// Per-thread bump allocator for kernel scratch memory: im2col column
// matrices, zero-bordered image planes, GEMM packing panels. Hot-loop
// allocations reuse the same chunks round after round, so steady-state
// training performs no heap traffic inside the kernels.
//
// Usage: open a Scope, AllocFloats freely, let the Scope rewind on
// destruction. Chunks never move once allocated (growth appends a new
// chunk), so pointers handed out stay valid until the Scope that covers
// them closes. Scopes nest: a conv kernel holds its im2col buffer open
// while the GEMM it calls allocates and releases packing panels.
//
// Thread safety: arenas are strictly thread-local (ThreadLocal() returns
// the calling thread's instance) and no pointer may cross threads; the
// `tsan` preset's GemmConcurrency tests exercise concurrent kernels each
// bumping their own arena.
//
// ColumnWorkspace, below, is the one scratch store that outlives a kernel
// call: it carries a training forward's im2col columns to the matching
// backward.

#ifndef FEDMIGR_NN_SCRATCH_H_
#define FEDMIGR_NN_SCRATCH_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace fedmigr::nn {

class ScratchArena {
 public:
  // Uninitialized storage for n floats. Requests are rounded up to
  // 16-float granularity; SIMD consumers use unaligned loads, so the
  // natural new[] alignment suffices.
  float* AllocFloats(int64_t n);

  // The calling thread's arena.
  static ScratchArena& ThreadLocal();

  // RAII marker: rewinds the thread-local arena to its entry position.
  class Scope {
   public:
    Scope();
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ScratchArena& arena_;
    size_t chunk_;
    int64_t used_;
  };

  // Total floats reserved across all chunks (diagnostics/tests).
  int64_t capacity() const;

 private:
  struct Chunk {
    std::unique_ptr<float[]> data;
    int64_t capacity = 0;  // floats
    int64_t used = 0;      // floats
  };

  std::vector<Chunk> chunks_;
  size_t current_ = 0;
};

// Per-thread slots that keep a training forward's im2col columns until the
// matching backward reads them (see DESIGN.md §8, "Column reuse").
//
// A conv layer's training forward Acquires a slot, lowers its batch into it
// and keeps the Token; its backward Finds the columns through the Token and
// Releases the slot. A Token names one Acquire on one thread's workspace:
// Find returns null once the slot was taken by a later Acquire (every slot
// busy, the least recently acquired one is evicted), when the Token was
// released, or when the caller runs on another thread, and the caller then
// lowers again. Memory is per thread, not per model: kSlots slots, each
// sized to the largest request it has served. Released slots are reused
// lowest index first, so a thread that trains one model at a time keeps one
// step of columns however many models it trains.
class ColumnWorkspace {
 public:
  static constexpr int kSlots = 4;

  // Default-constructed: owns nothing.
  struct Token {
    uint64_t workspace = 0;  // id of the owning thread's workspace; 0: none
    uint64_t generation = 0;
    int slot = -1;
  };

  // The calling thread's workspace.
  static ColumnWorkspace& ThreadLocal();

  // Releases *token, then claims a slot of at least n floats and records it
  // in *token. The storage is uninitialized and stays valid until the slot
  // is acquired again.
  float* Acquire(int64_t n, Token* token);

  // The storage of *token's Acquire if the Token still owns its slot on
  // this thread's workspace; otherwise null.
  const float* Find(const Token& token) const;

  // Frees the Token's slot if it owns one on this thread's workspace, and
  // resets the Token either way.
  void Release(Token* token);

  // Floats reserved across all slots (diagnostics/tests).
  int64_t capacity() const;

 private:
  ColumnWorkspace();

  struct Slot {
    std::unique_ptr<float[]> data;
    int64_t capacity = 0;     // floats
    uint64_t generation = 0;  // of the Acquire that owns it; 0: free
  };

  bool Owns(const Token& token) const;

  const uint64_t id_;
  uint64_t next_generation_ = 1;
  std::array<Slot, kSlots> slots_;
};

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_SCRATCH_H_
