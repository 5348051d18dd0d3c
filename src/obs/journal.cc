#include "obs/journal.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "util/crc32.h"
#include "util/frame.h"
#include "util/logging.h"

namespace fedmigr::obs {

namespace {

// "FJRN" read as a little-endian u32.
constexpr uint32_t kJournalMagic = 0x4E524A46u;

// Chunk kinds (first payload byte).
constexpr uint8_t kChunkHeader = 0;
constexpr uint8_t kChunkEpoch = 1;
constexpr uint8_t kChunkSummary = 2;

// The per-client kinds Options::sample_rate thins (client id in `a`):
// kModelDistributed through kScreenVerdict. No summary total counts them.
bool IsClientDetailKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(JournalEventKind::kModelDistributed) &&
         kind <= static_cast<uint8_t>(JournalEventKind::kScreenVerdict);
}

// splitmix64: the same finalizer the cohort sampler uses for seed mixing.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// The summary chunk's totals out of FoldEvent's counts.
JournalSummary SummarizeCounts(const EventCounts& counts) {
  const ChaosCounters& chaos = counts.chaos;
  JournalSummary summary;
  summary.epochs_run = counts.epochs_run;
  summary.migrations_planned = chaos.migrations_planned;
  summary.migrations_completed = chaos.migrations_completed;
  summary.migration_fallbacks = chaos.migration_fallbacks;
  summary.migrations_rolled_back = chaos.migrations_rolled_back;
  summary.quorum_commits = chaos.quorum_commits;
  summary.quorum_misses = chaos.quorum_misses;
  summary.carryover_clients = chaos.carryover_clients;
  summary.churn_absences = chaos.churn_absences;
  summary.churn_departures = chaos.churn_departures;
  summary.quarantines = counts.robust.quarantines;
  summary.model_publishes = counts.model_publishes;
  return summary;
}

// A chunk of `kind` being written straight after its frame header;
// Journal::AppendChunk seals it.
util::ByteWriter BeginChunk(uint8_t kind) {
  util::ByteWriter chunk;
  util::BeginFrame(kJournalMagic, kJournalVersion, 0, &chunk);
  chunk.Io(kind);
  return chunk;
}

}  // namespace

// --- Wire serializers -----------------------------------------------------

void WriteJournalEvent(const JournalEvent& event, util::ByteWriter* writer) {
  util::Save(event, writer);
}

util::Status ReadJournalEvent(util::ByteReader* reader, JournalEvent* event) {
  return util::Load(reader, event);
}

void WriteJournalHeader(const JournalHeader& header,
                        util::ByteWriter* writer) {
  util::Save(header, writer);
}

util::Status ReadJournalHeader(util::ByteReader* reader,
                               JournalHeader* header) {
  return util::Load(reader, header);
}

void WriteJournalSummary(const JournalSummary& summary,
                         util::ByteWriter* writer) {
  util::Save(summary, writer);
}

util::Status ReadJournalSummary(util::ByteReader* reader,
                                JournalSummary* summary) {
  return util::Load(reader, summary);
}

util::Result<std::vector<uint8_t>> UnframeJournalChunk(const uint8_t* data,
                                                       size_t size,
                                                       size_t* consumed) {
  *consumed = 0;
  if (size < util::kFrameOverhead) {
    return util::Status::DataLoss("journal chunk truncated below frame size");
  }
  util::ByteReader reader(data, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t payload_size = 0;
  reader.Io(magic);
  reader.Io(version);
  reader.Io(payload_size);
  FEDMIGR_RETURN_IF_ERROR(reader.status());
  if (magic != kJournalMagic) {
    return util::Status::DataLoss("journal chunk magic mismatch");
  }
  if (version != kJournalVersion) {
    return util::Status::InvalidArgument("unsupported journal version");
  }
  if (payload_size > size - util::kFrameOverhead) {
    return util::Status::DataLoss("journal chunk payload truncated");
  }
  const size_t checked =
      util::kFrameHeaderSize + static_cast<size_t>(payload_size);
  const uint32_t expected = util::Crc32(data, checked);
  uint32_t stored = 0;
  std::memcpy(&stored, data + checked, sizeof(stored));
  if (stored != expected) {
    return util::Status::DataLoss("journal chunk checksum mismatch");
  }
  *consumed = checked + sizeof(stored);
  return std::vector<uint8_t>(data + util::kFrameHeaderSize, data + checked);
}

// --- Recorder -------------------------------------------------------------

Journal::Journal(Options options) : options_(std::move(options)) {
  if (options_.sample_rate < 0.0) options_.sample_rate = 0.0;
  if (options_.sample_rate > 1.0) options_.sample_rate = 1.0;
}

Journal::~Journal() {
  if (file_.is_open()) {
    (void)file_.Close();  // best effort; Finish() is the durable path
  }
}

bool Journal::SampledClient(int client) const {
  if (options_.sample_rate >= 1.0) return true;
  if (options_.sample_rate <= 0.0) return false;
  // Top 32 bits of a splitmix64 hash of the client id against the rate:
  // pure in (client, rate), so stable across runs, threads and resume.
  const uint64_t h = Mix64(static_cast<uint64_t>(client)) >> 32;
  return static_cast<double>(h) <
         options_.sample_rate * 4294967296.0;  // 2^32
}

namespace {

// Scans framed bytes and returns the byte offset just past the last chunk
// worth keeping for a resume after `resume_epoch`: the header chunk plus
// every epoch chunk with epoch <= resume_epoch. Stops at the first torn or
// out-of-order frame. Also reports whether a header chunk survived.
uint64_t KeepOffsetForResume(const std::vector<uint8_t>& bytes,
                             int resume_epoch, bool* header_kept) {
  *header_kept = false;
  uint64_t keep = 0;
  size_t offset = 0;
  while (offset < bytes.size()) {
    size_t consumed = 0;
    util::Result<std::vector<uint8_t>> payload = UnframeJournalChunk(
        bytes.data() + offset, bytes.size() - offset, &consumed);
    if (!payload.ok()) break;  // torn tail: truncate here
    util::ByteReader reader(*payload);
    uint8_t chunk_kind = 0;
    reader.Io(chunk_kind);
    if (!reader.ok()) break;
    if (chunk_kind == kChunkHeader) {
      if (offset != 0) break;  // header only ever leads the file
      *header_kept = true;
      keep = offset + consumed;
    } else if (chunk_kind == kChunkEpoch) {
      int32_t epoch = 0;
      reader.Io(epoch);
      if (!reader.ok()) break;
      if (epoch > resume_epoch) break;  // replayed on resume
      keep = offset + consumed;
    } else {
      break;  // summary (or unknown): always replayed
    }
    offset += consumed;
  }
  return keep;
}

}  // namespace

util::Status Journal::Attach(int resume_epoch) {
  FEDMIGR_CHECK(!attached_) << "journal attached twice";
  folded_ = EventCounts();
  events_committed_ = 0;
  header_written_ = false;
  if (options_.path.empty()) {
    memory_.clear();
    attached_ = true;
    return util::Status::Ok();
  }
  std::vector<uint8_t> existing;
  if (util::FileExists(options_.path)) {
    util::Result<std::vector<uint8_t>> bytes =
        util::ReadFileBytes(options_.path);
    if (!bytes.ok()) return bytes.status();
    existing = std::move(*bytes);
  }
  bool header_kept = false;
  const uint64_t keep =
      resume_epoch > 0
          ? KeepOffsetForResume(existing, resume_epoch, &header_kept)
          : 0;
  if (keep > 0) {
    // Re-prime the running summary from the kept chunks so a resumed run
    // ends with the same summary bytes an uninterrupted one would have.
    existing.resize(static_cast<size_t>(keep));
    util::Result<JournalContents> kept = ParseJournal(existing);
    if (!kept.ok()) return kept.status();
    for (const JournalEvent& event : kept->events) {
      FoldEvent(event, &folded_);
    }
    events_committed_ = static_cast<int64_t>(kept->events.size());
  }
  FEDMIGR_RETURN_IF_ERROR(file_.Open(options_.path));
  if (file_.size() > keep) {
    FEDMIGR_RETURN_IF_ERROR(file_.Truncate(keep));
  }
  header_written_ = header_kept;
  attached_ = true;
  return util::Status::Ok();
}

void Journal::BeginRun(const JournalHeader& header) {
  if (!attached_ || header_written_) return;
  JournalHeader stamped = header;
  stamped.sample_rate = options_.sample_rate;
  util::ByteWriter chunk = BeginChunk(kChunkHeader);
  WriteJournalHeader(stamped, &chunk);
  FEDMIGR_CHECK(AppendChunk(&chunk).ok()) << "journal header append failed";
  header_written_ = true;
}

util::Status Journal::AppendChunk(util::ByteWriter* chunk) {
  const std::vector<uint8_t> framed = util::SealFrame(chunk);
  if (options_.path.empty()) {
    memory_.insert(memory_.end(), framed.begin(), framed.end());
    return util::Status::Ok();
  }
  return file_.Append(framed);
}

util::Status Journal::CommitEpoch(int epoch,
                                  const std::vector<JournalEvent>& events) {
  if (!attached_) return util::Status::Ok();
  const auto persisted = [this](const JournalEvent& event) {
    return !IsClientDetailKind(event.kind) || SampledClient(event.a);
  };
  const auto count = static_cast<uint32_t>(
      std::count_if(events.begin(), events.end(), persisted));
  util::ByteWriter chunk = BeginChunk(kChunkEpoch);
  chunk.Io(epoch);
  chunk.Io(count);
  for (const JournalEvent& event : events) {
    FEDMIGR_CHECK_EQ(event.epoch, epoch)
        << "journal event from another epoch";
    if (!persisted(event)) continue;
    FoldEvent(event, &folded_);
    WriteJournalEvent(event, &chunk);
  }
  events_committed_ += count;
  return AppendChunk(&chunk);
}

JournalSummary Journal::running_summary() const {
  return SummarizeCounts(folded_);
}

util::Status Journal::EndRun() {
  if (!attached_) return util::Status::Ok();
  util::ByteWriter chunk = BeginChunk(kChunkSummary);
  WriteJournalSummary(SummarizeCounts(folded_), &chunk);
  FEDMIGR_RETURN_IF_ERROR(AppendChunk(&chunk));
  return Finish();
}

util::Status Journal::Finish() {
  if (!attached_ || options_.path.empty()) return util::Status::Ok();
  return file_.Sync();
}

// --- Reader ---------------------------------------------------------------

util::Result<JournalContents> ParseJournal(
    const std::vector<uint8_t>& bytes) {
  JournalContents contents;
  size_t offset = 0;
  while (offset < bytes.size()) {
    size_t consumed = 0;
    util::Result<std::vector<uint8_t>> payload = UnframeJournalChunk(
        bytes.data() + offset, bytes.size() - offset, &consumed);
    if (!payload.ok()) {
      contents.torn_tail_bytes = bytes.size() - offset;
      break;
    }
    util::ByteReader reader(*payload);
    uint8_t chunk_kind = 0;
    reader.Io(chunk_kind);
    FEDMIGR_RETURN_IF_ERROR(reader.status());
    if (chunk_kind == kChunkHeader) {
      if (contents.has_header || offset != 0) {
        return util::Status::DataLoss("journal header chunk out of place");
      }
      FEDMIGR_RETURN_IF_ERROR(ReadJournalHeader(&reader, &contents.header));
      contents.has_header = true;
    } else if (chunk_kind == kChunkEpoch) {
      int32_t epoch = 0;
      uint32_t count = 0;
      reader.Io(epoch);
      reader.Io(count);
      FEDMIGR_RETURN_IF_ERROR(reader.status());
      if (!contents.committed_epochs.empty() &&
          epoch <= contents.committed_epochs.back()) {
        return util::Status::DataLoss("journal epochs not monotone");
      }
      contents.committed_epochs.push_back(epoch);
      for (uint32_t i = 0; i < count; ++i) {
        JournalEvent event;
        FEDMIGR_RETURN_IF_ERROR(ReadJournalEvent(&reader, &event));
        if (event.epoch != epoch) {
          return util::Status::DataLoss("journal event epoch mismatch");
        }
        contents.events.push_back(event);
      }
    } else if (chunk_kind == kChunkSummary) {
      if (contents.has_summary) {
        return util::Status::DataLoss("duplicate journal summary chunk");
      }
      FEDMIGR_RETURN_IF_ERROR(ReadJournalSummary(&reader, &contents.summary));
      contents.has_summary = true;
    } else {
      return util::Status::DataLoss("unknown journal chunk kind");
    }
    if (!reader.AtEnd()) {
      return util::Status::DataLoss("journal chunk has trailing bytes");
    }
    offset += consumed;
  }
  return contents;
}

util::Result<JournalContents> ReadJournalFile(const std::string& path) {
  util::Result<std::vector<uint8_t>> bytes = util::ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return ParseJournal(*bytes);
}

JournalSummary SummarizeJournalEvents(
    const std::vector<JournalEvent>& events) {
  EventCounts counts;
  for (const JournalEvent& event : events) FoldEvent(event, &counts);
  return SummarizeCounts(counts);
}

}  // namespace fedmigr::obs
