// Seeded violations for `fedmigr_lint --self-test`. Every line marked
// LINT-EXPECT must be flagged with exactly that rule; any other flagged
// line is a self-test failure (false positive). This file is a fixture —
// it is never compiled or linked.

#include <sys/time.h>

#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "util/file.h"
#include "util/status.h"

namespace fedmigr::lint_fixture {

// --- banned-random ---------------------------------------------------------

unsigned SeedFromHardware() {
  std::random_device device;  // LINT-EXPECT: banned-random
  return device();
}

unsigned SeedFromClock() {
  return static_cast<unsigned>(time(nullptr));  // LINT-EXPECT: banned-random
}

int LegacyRand() {
  srand(42);     // LINT-EXPECT: banned-random
  return rand(); // LINT-EXPECT: banned-random
}

double StdEngineDraw() {
  std::mt19937 engine;  // LINT-EXPECT: banned-random
  std::default_random_engine fallback;  // LINT-EXPECT: banned-random
  return static_cast<double>(engine()) + static_cast<double>(fallback());
}

// --- unordered-iter --------------------------------------------------------

double SumInHashOrder(const std::unordered_map<int, double>& weights) {
  double total = 0.0;
  for (const auto& [id, w] : weights) {  // LINT-EXPECT: unordered-iter
    total += w;
  }
  return total;
}

int WalkUnorderedSet() {
  std::unordered_set<int> ids = {3, 1, 2};
  int checksum = 0;
  for (auto it = ids.begin(); it != ids.end(); ++it) {  // LINT-EXPECT: unordered-iter
    checksum = checksum * 31 + *it;
  }
  return checksum;
}

// --- raw-file-write --------------------------------------------------------

void TearProneWrite(const char* path) {
  std::FILE* f = fopen(path, "wb");  // LINT-EXPECT: raw-file-write
  const char byte = 1;
  fwrite(&byte, 1, 1, f);  // LINT-EXPECT: raw-file-write
}

void StreamWrite(const char* path) {
  std::ofstream out(path);  // LINT-EXPECT: raw-file-write
  out << "metrics";
}

// --- wallclock -------------------------------------------------------------

long HostTimeLeak() {
  const auto wall = std::chrono::steady_clock::now();  // LINT-EXPECT: wallclock
  (void)std::chrono::system_clock::now();  // LINT-EXPECT: wallclock
  using Clock = std::chrono::high_resolution_clock;  // LINT-EXPECT: wallclock
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);  // LINT-EXPECT: wallclock
  struct timeval tv;
  gettimeofday(&tv, nullptr);  // LINT-EXPECT: wallclock
  return wall.time_since_epoch().count() + Clock::duration::period::den +
         ts.tv_sec + tv.tv_sec;
}

// --- eager-client-alloc ----------------------------------------------------

namespace nn {
struct Sequential {};
}  // namespace nn

void EagerModelAllocations() {
  nn::Sequential replica;  // LINT-EXPECT: eager-client-alloc
  auto minted = std::make_shared<nn::Sequential>();  // LINT-EXPECT: eager-client-alloc
  auto owned = std::make_unique<nn::Sequential>();  // LINT-EXPECT: eager-client-alloc
  std::vector<nn::Sequential> fleet;  // LINT-EXPECT: eager-client-alloc
  (void)replica;
  (void)minted;
  (void)owned;
  (void)fleet;
}

// --- journal-emit ----------------------------------------------------------

void ForgesJournalRecords(fedmigr::util::ByteWriter* writer,
                          std::vector<fedmigr::obs::JournalEvent>* queue) {
  obs::JournalEvent raw;  // LINT-EXPECT: journal-emit
  raw.kind = 14;
  obs::WriteJournalEvent(raw, writer);  // LINT-EXPECT: journal-emit
  queue->push_back(obs::JournalEvent{21, 0, 0, 0, 0, 0, 0.0});  // LINT-EXPECT: journal-emit
  const std::vector<unsigned char> payload;
  util::BeginFrame(0x4e524a46, 1, payload.size(), writer);  // LINT-EXPECT: journal-emit
  const auto framed = util::SealFrame(writer);  // LINT-EXPECT: journal-emit
  (void)framed;
}

// --- snapshot-coverage -----------------------------------------------------

class Gadget {
 public:
  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(ticks_);
    return ar.status();
  }

 private:
  int64_t ticks_ = 0;
  double drift_ = 0.0;  // LINT-EXPECT: snapshot-coverage
  // SNAPSHOT-SKIP()
  int scratch_ = 0;  // LINT-EXPECT: snapshot-coverage
};

// --- discarded-status ------------------------------------------------------

void DropsStatuses(const std::string& path) {
  util::RemoveFile(path);  // LINT-EXPECT: discarded-status
  util::MakeDirectories(path);  // LINT-EXPECT: discarded-status
}

}  // namespace fedmigr::lint_fixture
