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

#ifndef FEDMIGR_NN_SCRATCH_H_
#define FEDMIGR_NN_SCRATCH_H_

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

}  // namespace fedmigr::nn

#endif  // FEDMIGR_NN_SCRATCH_H_
