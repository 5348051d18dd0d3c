// Negative fixture for `fedmigr_lint --self-test`: idiomatic FedMigr code
// that must produce zero findings. Patterns here are chosen to sit close
// to each rule's boundary — mentioning banned names only in comments and
// strings, ordered-container iteration, sanctioned error handling — so a
// rule that over-triggers fails the self-test as loudly as one that goes
// quiet. Never compiled or linked.

#include <map>
#include <string>
#include <vector>

#include "obs/events.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/status.h"

namespace fedmigr::lint_fixture {

// Comments may talk about std::random_device, rand() and time(nullptr)
// freely; only code draws findings.
double SanctionedDraw(util::Rng* rng) {
  // "call srand() first" — banned names inside a string are fine too.
  const std::string hint = "do not use rand() or std::mt19937 here";
  return rng->Uniform() + static_cast<double>(hint.size());
}

double SumInKeyOrder(const std::map<int, double>& weights) {
  double total = 0.0;
  for (const auto& [id, w] : weights) {
    total += w + id;
  }
  return total;
}

// The eager-client-alloc boundary: references, pointers and const shared
// handles are the sanctioned CoW currency — only by-value construction
// (and make_shared/make_unique/vector of whole models) is a finding.
namespace nn {
struct Sequential {};
}  // namespace nn

long CowHandlesAreClean(const nn::Sequential& model, nn::Sequential* scratch) {
  const std::shared_ptr<const nn::Sequential> alias;
  const nn::Sequential* view = alias ? alias.get() : &model;
  std::vector<const nn::Sequential*> uploads = {view};
  (void)scratch;
  return static_cast<long>(uploads.size());
}

// snapshot-coverage: every member is named in Visit (here or in an
// out-of-line Visit* helper) or carries a reasoned SNAPSHOT-SKIP.
struct Sample {
  int64_t ticks = 0;
  template <class Ar>
  util::Status Visit(Ar& ar) {
    ar.Io(ticks);
    return ar.status();
  }
};

class Widget {
 public:
  template <class Ar>
  util::Status Visit(Ar& ar);

 private:
  std::vector<int> slots_;
  Sample sample_{};
  // SNAPSHOT-SKIP(rebuilt from configuration on load)
  double rate_ = 1.0;
};

template <class Ar>
util::Status Widget::Visit(Ar& ar) {
  ar.Io(slots_);
  ar.Io(sample_);
  return ar.status();
}

util::Status HandledStatuses(const std::string& path,
                             const std::vector<uint8_t>& payload) {
  FEDMIGR_RETURN_IF_ERROR(util::MakeDirectories(path));
  const util::Status written = util::AtomicWriteFile(path + "/a.bin", payload);
  if (!written.ok()) {
    return written;
  }
  return util::RemoveFile(path + "/a.bin");
}

// The journal-emit boundary: events recorded through the EventBuffer
// emitters and read back by reference (folded, persisted) are the
// sanctioned path — only building a record by value is a finding.
int64_t RecordsThroughTheEmitters(obs::EventBuffer* events,
                                  obs::EventCounts* counts) {
  events->QuorumMiss(/*epoch=*/3, /*arrivals=*/1, /*required=*/2);
  for (const obs::JournalEvent& event : events->events()) {
    obs::FoldEvent(event, counts);
  }
  return counts->chaos.quorum_misses;
}

}  // namespace fedmigr::lint_fixture
