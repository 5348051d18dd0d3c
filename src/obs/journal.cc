#include "obs/journal.h"

#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/logging.h"

namespace fedmigr::obs {

namespace {

// "FJRN" read as a little-endian u32.
constexpr uint32_t kJournalMagic = 0x4E524A46u;
// magic + version + payload_size before the payload, crc32 after it.
constexpr size_t kChunkHeaderSize = 4 + 4 + 8;
constexpr size_t kChunkOverhead = kChunkHeaderSize + 4;

// Chunk kinds (first payload byte).
constexpr uint8_t kChunkHeader = 0;
constexpr uint8_t kChunkEpoch = 1;
constexpr uint8_t kChunkSummary = 2;

// splitmix64: the same finalizer the cohort sampler uses for seed mixing.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// One event's contribution to the summary totals — shared by the recorder's
// running summary and the reader-side re-derivation, so the two can never
// drift apart.
void AccumulateSummaryEvent(const JournalEvent& event, JournalSummary* s) {
  switch (static_cast<JournalEventKind>(event.kind)) {
    case JournalEventKind::kRoundCommit:
      ++s->epochs_run;
      break;
    case JournalEventKind::kMigrationC2C:
      ++s->migrations_planned;
      ++s->migrations_completed;
      break;
    case JournalEventKind::kMigrationFallback:
      ++s->migrations_planned;
      ++s->migration_fallbacks;
      break;
    case JournalEventKind::kMigrationRolledBack:
      ++s->migrations_planned;
      ++s->migrations_rolled_back;
      break;
    case JournalEventKind::kQuorumCommit:
      ++s->quorum_commits;
      break;
    case JournalEventKind::kQuorumMiss:
      ++s->quorum_misses;
      break;
    case JournalEventKind::kClientCarriedOver:
      ++s->carryover_clients;
      break;
    case JournalEventKind::kChurnAbsence:
      ++s->churn_absences;
      break;
    case JournalEventKind::kClientDeparted:
      ++s->churn_departures;
      break;
    case JournalEventKind::kQuarantineTransition:
      if ((event.b & 0xFF) == kJournalStateQuarantined) ++s->quarantines;
      break;
    case JournalEventKind::kModelPublished:
      ++s->model_publishes;
      break;
    default:
      break;
  }
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

std::vector<uint8_t> FrameJournalChunk(const std::vector<uint8_t>& payload) {
  util::ByteWriter writer;
  writer.Io(kJournalMagic);
  writer.Io(kJournalVersion);
  writer.Io(static_cast<uint64_t>(payload.size()));
  std::vector<uint8_t> framed = writer.TakeBytes();
  framed.insert(framed.end(), payload.begin(), payload.end());
  const uint32_t crc = util::Crc32(framed.data(), framed.size());
  const auto* p = reinterpret_cast<const uint8_t*>(&crc);
  framed.insert(framed.end(), p, p + sizeof(crc));
  return framed;
}

util::Result<std::vector<uint8_t>> UnframeJournalChunk(const uint8_t* data,
                                                       size_t size,
                                                       size_t* consumed) {
  *consumed = 0;
  if (size < kChunkOverhead) {
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
  if (payload_size > size - kChunkOverhead) {
    return util::Status::DataLoss("journal chunk payload truncated");
  }
  const size_t checked = kChunkHeaderSize + static_cast<size_t>(payload_size);
  const uint32_t expected = util::Crc32(data, checked);
  uint32_t stored = 0;
  std::memcpy(&stored, data + checked, sizeof(stored));
  if (stored != expected) {
    return util::Status::DataLoss("journal chunk checksum mismatch");
  }
  *consumed = checked + sizeof(stored);
  return std::vector<uint8_t>(data + kChunkHeaderSize, data + checked);
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
  buffer_.clear();
  summary_ = JournalSummary();
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
    summary_ = SummarizeJournalEvents(kept->events);
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

void Journal::Emit(const JournalEvent& event) {
  if (!attached_) return;
  AccumulateSummaryEvent(event, &summary_);
  buffer_.push_back(event);
}

void Journal::BeginRun(const JournalHeader& header) {
  if (!attached_ || header_written_) return;
  JournalHeader stamped = header;
  stamped.sample_rate = options_.sample_rate;
  util::ByteWriter payload;
  payload.Io(kChunkHeader);
  WriteJournalHeader(stamped, &payload);
  FEDMIGR_CHECK(AppendChunk(payload.TakeBytes()).ok())
      << "journal header append failed";
  header_written_ = true;
}

void Journal::RoundBegin(int epoch, int active, int available,
                         int64_t lineage) {
  Emit({static_cast<uint8_t>(JournalEventKind::kRoundBegin), epoch, active,
        available, static_cast<uint64_t>(lineage), 0, 0.0});
}

void Journal::CohortSampled(int epoch, int cohort_size, int carryover) {
  Emit({static_cast<uint8_t>(JournalEventKind::kCohortSampled), epoch,
        cohort_size, carryover, 0, 0, 0.0});
}

void Journal::ClientDeparted(int epoch, int client) {
  Emit({static_cast<uint8_t>(JournalEventKind::kClientDeparted), epoch,
        client, 0, 0, 0, 0.0});
}

void Journal::ClientCarriedOver(int epoch, int client) {
  Emit({static_cast<uint8_t>(JournalEventKind::kClientCarriedOver), epoch,
        client, 0, 0, 0, 0.0});
}

void Journal::ChurnAbsence(int epoch, int client) {
  Emit({static_cast<uint8_t>(JournalEventKind::kChurnAbsence), epoch, client,
        0, 0, 0, 0.0});
}

void Journal::ModelDistributed(int epoch, int client, int64_t lineage) {
  if (!SampledClient(client)) return;
  Emit({static_cast<uint8_t>(JournalEventKind::kModelDistributed), epoch,
        client, 0, static_cast<uint64_t>(lineage), 0, 0.0});
}

void Journal::ClientParticipated(int epoch, int client, int lan,
                                 int64_t lineage, double loss) {
  if (!SampledClient(client)) return;
  Emit({static_cast<uint8_t>(JournalEventKind::kClientParticipated), epoch,
        client, lan, static_cast<uint64_t>(lineage), 0, loss});
}

void Journal::ClientUploaded(int epoch, int client, UploadStatus status,
                             int64_t lineage) {
  if (!SampledClient(client)) return;
  Emit({static_cast<uint8_t>(JournalEventKind::kClientUploaded), epoch,
        client, static_cast<int32_t>(status),
        static_cast<uint64_t>(lineage), 0, 0.0});
}

void Journal::ScreenVerdict(int epoch, int client, bool flagged) {
  if (!SampledClient(client)) return;
  Emit({static_cast<uint8_t>(JournalEventKind::kScreenVerdict), epoch,
        client, flagged ? 1 : 0, 0, 0, 0.0});
}

void Journal::QuarantineTransition(int epoch, int client, int from_state,
                                   int to_state) {
  Emit({static_cast<uint8_t>(JournalEventKind::kQuarantineTransition), epoch,
        client, (from_state << 8) | to_state, 0, 0, 0.0});
}

void Journal::QuorumCommit(int epoch, int arrivals, int required) {
  Emit({static_cast<uint8_t>(JournalEventKind::kQuorumCommit), epoch,
        arrivals, required, 0, 0, 0.0});
}

void Journal::QuorumMiss(int epoch, int arrivals, int required) {
  Emit({static_cast<uint8_t>(JournalEventKind::kQuorumMiss), epoch, arrivals,
        required, 0, 0, 0.0});
}

void Journal::ModelPublished(int epoch, int64_t lineage, int64_t parent) {
  Emit({static_cast<uint8_t>(JournalEventKind::kModelPublished), epoch, 0, 0,
        static_cast<uint64_t>(lineage), static_cast<uint64_t>(parent), 0.0});
}

void Journal::MigrationHop(int epoch, int src, int dst, MigrationRoute route,
                           int64_t lineage) {
  JournalEventKind kind = JournalEventKind::kMigrationC2C;
  if (route == MigrationRoute::kServerFallback) {
    kind = JournalEventKind::kMigrationFallback;
  } else if (route == MigrationRoute::kRolledBack) {
    kind = JournalEventKind::kMigrationRolledBack;
  }
  Emit({static_cast<uint8_t>(kind), epoch, src, dst,
        static_cast<uint64_t>(lineage), 0, 0.0});
}

void Journal::ChaosLanSealed(int epoch, int lan) {
  Emit({static_cast<uint8_t>(JournalEventKind::kChaosLanSealed), epoch, lan,
        0, 0, 0, 0.0});
}

void Journal::ChaosLanOpened(int epoch, int lan) {
  Emit({static_cast<uint8_t>(JournalEventKind::kChaosLanOpened), epoch, lan,
        0, 0, 0, 0.0});
}

void Journal::ChaosServerDown(int epoch) {
  Emit({static_cast<uint8_t>(JournalEventKind::kChaosServerDown), epoch, 0,
        0, 0, 0, 0.0});
}

void Journal::ChaosServerUp(int epoch) {
  Emit({static_cast<uint8_t>(JournalEventKind::kChaosServerUp), epoch, 0, 0,
        0, 0, 0.0});
}

void Journal::RoundCommitted(int epoch, int participating, bool published,
                             int64_t lineage, double train_loss) {
  Emit({static_cast<uint8_t>(JournalEventKind::kRoundCommit), epoch,
        participating, published ? 1 : 0, static_cast<uint64_t>(lineage), 0,
        train_loss});
}

util::Status Journal::AppendChunk(const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> framed = FrameJournalChunk(payload);
  if (options_.path.empty()) {
    memory_.insert(memory_.end(), framed.begin(), framed.end());
    return util::Status::Ok();
  }
  return file_.Append(framed);
}

util::Status Journal::CommitEpoch(int epoch) {
  if (!attached_) return util::Status::Ok();
  util::ByteWriter payload;
  payload.Io(kChunkEpoch);
  payload.Io(epoch);
  payload.Io(static_cast<uint32_t>(buffer_.size()));
  for (const JournalEvent& event : buffer_) {
    FEDMIGR_CHECK_EQ(event.epoch, epoch)
        << "buffered journal event from another epoch";
    WriteJournalEvent(event, &payload);
  }
  events_committed_ += static_cast<int64_t>(buffer_.size());
  buffer_.clear();
  return AppendChunk(payload.TakeBytes());
}

util::Status Journal::EndRun() {
  if (!attached_) return util::Status::Ok();
  util::ByteWriter payload;
  payload.Io(kChunkSummary);
  WriteJournalSummary(summary_, &payload);
  FEDMIGR_RETURN_IF_ERROR(AppendChunk(payload.TakeBytes()));
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
  JournalSummary summary;
  for (const JournalEvent& event : events) {
    AccumulateSummaryEvent(event, &summary);
  }
  return summary;
}

}  // namespace fedmigr::obs
