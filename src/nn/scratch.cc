#include "nn/scratch.h"

#include <algorithm>
#include <atomic>

namespace fedmigr::nn {

namespace {
constexpr int64_t kGranularity = 16;       // floats; keeps panels 64B-apart
constexpr int64_t kMinChunkFloats = 1 << 16;  // 256 KiB first chunk
}  // namespace

float* ScratchArena::AllocFloats(int64_t n) {
  n = (n + kGranularity - 1) / kGranularity * kGranularity;
  // Advance through existing chunks (everything past current_ is fully
  // rewound) before growing.
  while (current_ < chunks_.size()) {
    Chunk& chunk = chunks_[current_];
    if (chunk.capacity - chunk.used >= n) {
      float* out = chunk.data.get() + chunk.used;
      chunk.used += n;
      return out;
    }
    ++current_;
  }
  Chunk chunk;
  const int64_t prev =
      chunks_.empty() ? 0 : 2 * chunks_.back().capacity;
  chunk.capacity = std::max({n, prev, kMinChunkFloats});
  chunk.data = std::make_unique<float[]>(static_cast<size_t>(chunk.capacity));
  chunk.used = n;
  chunks_.push_back(std::move(chunk));
  current_ = chunks_.size() - 1;
  return chunks_.back().data.get();
}

ScratchArena& ScratchArena::ThreadLocal() {
  static thread_local ScratchArena arena;
  return arena;
}

int64_t ScratchArena::capacity() const {
  int64_t total = 0;
  for (const Chunk& chunk : chunks_) total += chunk.capacity;
  return total;
}

ScratchArena::Scope::Scope()
    : arena_(ThreadLocal()),
      chunk_(arena_.current_),
      used_(arena_.chunks_.empty()
                ? 0
                : arena_.chunks_[arena_.current_].used) {}

ScratchArena::Scope::~Scope() {
  for (size_t i = chunk_ + 1; i < arena_.chunks_.size(); ++i) {
    arena_.chunks_[i].used = 0;
  }
  if (chunk_ < arena_.chunks_.size()) {
    arena_.chunks_[chunk_].used = used_;
  }
  arena_.current_ = chunk_;
}

ColumnWorkspace::ColumnWorkspace()
    : id_([] {
        // Never 0 (the empty Token) and never reused by a later thread, so a
        // Token cannot match a workspace it was not issued by.
        static std::atomic<uint64_t> next_id{1};
        return next_id.fetch_add(1, std::memory_order_relaxed);
      }()) {}

ColumnWorkspace& ColumnWorkspace::ThreadLocal() {
  static thread_local ColumnWorkspace workspace;
  return workspace;
}

bool ColumnWorkspace::Owns(const Token& token) const {
  // Only this workspace's Acquire issues its id, always with a valid slot.
  return token.workspace == id_ &&
         slots_[static_cast<size_t>(token.slot)].generation ==
             token.generation;
}

float* ColumnWorkspace::Acquire(int64_t n, Token* token) {
  Release(token);
  // The lowest free slot, else the least recently acquired one.
  size_t pick = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].generation == 0) {
      pick = i;
      break;
    }
    if (slots_[i].generation < slots_[pick].generation) pick = i;
  }
  Slot& slot = slots_[pick];
  if (slot.capacity < n) {
    slot.data = std::make_unique_for_overwrite<float[]>(static_cast<size_t>(n));
    slot.capacity = n;
  }
  slot.generation = next_generation_++;
  token->workspace = id_;
  token->generation = slot.generation;
  token->slot = static_cast<int>(pick);
  return slot.data.get();
}

const float* ColumnWorkspace::Find(const Token& token) const {
  return Owns(token) ? slots_[static_cast<size_t>(token.slot)].data.get()
                     : nullptr;
}

void ColumnWorkspace::Release(Token* token) {
  if (Owns(*token)) slots_[static_cast<size_t>(token->slot)].generation = 0;
  *token = Token{};
}

int64_t ColumnWorkspace::capacity() const {
  int64_t total = 0;
  for (const Slot& slot : slots_) total += slot.capacity;
  return total;
}

}  // namespace fedmigr::nn
