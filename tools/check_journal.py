#!/usr/bin/env python3
"""check_journal — structural validator for FedMigr flight-recorder journals.

Independently re-implements the FJRN container (src/obs/journal.h) in pure
Python — no dependency on the C++ reader — and checks that a journal
produced by `--journal-out` holds together:

  * every chunk frame validates: magic "FJRN", version 1, payload length,
    CRC32 over the preceding frame bytes;
  * the header chunk leads the file, epoch chunks carry strictly
    increasing epochs, and every event inside an epoch chunk is stamped
    with that chunk's epoch;
  * each committed epoch contains exactly one round-commit event, and it
    is the last event of its chunk;
  * publish events mint strictly increasing lineage ids and each parent
    precedes its child (the lineage DAG is acyclic by construction —
    this check proves the file on disk kept it that way);
  * when the summary chunk is present, every one of its twelve totals
    re-derives exactly from the event stream.

A torn tail (bytes after the last valid frame) is an error by default —
a cleanly finished run has none; pass --allow-torn for journals from
interrupted runs, where a torn final frame is the documented crash mode.

Usage: tools/check_journal.py [--allow-torn] JOURNAL.fjrn [...]
Exits 0 when every file validates, 1 otherwise.

The parsing half doubles as a library: tools/fedmigr_report imports
parse_journal()/summarize() from here.
"""

import struct
import sys
import zlib

JOURNAL_MAGIC = 0x4E524A46  # "FJRN" little-endian
JOURNAL_VERSION = 1
CHUNK_HEADER, CHUNK_EPOCH, CHUNK_SUMMARY = 0, 1, 2

FRAME_HEADER = struct.Struct("<IIQ")  # magic, version, payload_size
EVENT = struct.Struct("<BiiiQQd")     # kind, epoch, a, b, u, v, x (37 bytes)

# JournalEventKind (src/obs/journal.h). Values are the on-disk format.
KIND_NAMES = {
    1: "round_begin",
    2: "cohort_sampled",
    3: "client_departed",
    4: "client_carried_over",
    5: "churn_absence",
    6: "model_distributed",
    7: "client_participated",
    8: "client_uploaded",
    9: "screen_verdict",
    10: "quarantine_transition",
    11: "quorum_commit",
    12: "quorum_miss",
    13: "model_published",
    14: "migration_c2c",
    15: "migration_fallback",
    16: "migration_rolled_back",
    17: "chaos_lan_sealed",
    18: "chaos_lan_opened",
    19: "chaos_server_down",
    20: "chaos_server_up",
    21: "round_commit",
}
KINDS = {name: value for value, name in KIND_NAMES.items()}

SUMMARY_FIELDS = (
    "epochs_run", "migrations_planned", "migrations_completed",
    "migration_fallbacks", "migrations_rolled_back", "quorum_commits",
    "quorum_misses", "carryover_clients", "churn_absences",
    "churn_departures", "quarantines", "model_publishes",
)

# Reputation state counted by the summary's `quarantines` total
# (kJournalStateQuarantined in src/obs/journal.h).
STATE_QUARANTINED = 2


class JournalError(Exception):
    """A structural violation the C++ reader would also reject."""


class Event(object):
    __slots__ = ("kind", "epoch", "a", "b", "u", "v", "x")

    def __init__(self, kind, epoch, a, b, u, v, x):
        self.kind = kind
        self.epoch = epoch
        self.a = a
        self.b = b
        self.u = u
        self.v = v
        self.x = x

    @property
    def name(self):
        return KIND_NAMES.get(self.kind, "unknown(%d)" % self.kind)

    def __repr__(self):
        return "Event(%s, epoch=%d, a=%d, b=%d, u=%d, v=%d, x=%g)" % (
            self.name, self.epoch, self.a, self.b, self.u, self.v, self.x)


def _split_frames(data):
    """Yields (payload, offset) per valid frame; returns torn-tail size."""
    frames = []
    offset = 0
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < FRAME_HEADER.size + 4:
            break
        magic, version, payload_size = FRAME_HEADER.unpack_from(data, offset)
        if magic != JOURNAL_MAGIC or version != JOURNAL_VERSION:
            break
        checked = FRAME_HEADER.size + payload_size
        if remaining < checked + 4:
            break
        stored = struct.unpack_from("<I", data, offset + checked)[0]
        if stored != zlib.crc32(data[offset:offset + checked]) & 0xFFFFFFFF:
            break
        payload = data[offset + FRAME_HEADER.size:offset + checked]
        frames.append((payload, offset))
        offset += checked + 4
    return frames, len(data) - offset


def _read_string(payload, offset):
    (size,) = struct.unpack_from("<Q", payload, offset)
    offset += 8
    if offset + size > len(payload):
        raise JournalError("string runs past its chunk")
    return payload[offset:offset + size].decode("utf-8"), offset + size


def parse_journal(data):
    """Parses journal bytes into a dict mirroring obs::JournalContents.

    Returns {"header": dict|None, "events": [Event], "committed_epochs":
    [int], "summary": dict|None, "torn_tail_bytes": int}. Raises
    JournalError on violations the C++ reader also rejects (out-of-place
    header, non-monotone epochs, event/chunk epoch mismatch, trailing
    payload bytes); a torn tail is reported, not raised.
    """
    frames, torn = _split_frames(data)
    result = {
        "header": None,
        "events": [],
        "committed_epochs": [],
        "summary": None,
        "torn_tail_bytes": torn,
    }
    for payload, frame_offset in frames:
        if not payload:
            raise JournalError("empty chunk payload at offset %d"
                               % frame_offset)
        chunk_kind = payload[0]
        if chunk_kind == CHUNK_HEADER:
            if result["header"] is not None or frame_offset != 0:
                raise JournalError("header chunk out of place")
            offset = 1
            run_seed, num_clients, cohort_size, sample_rate = \
                struct.unpack_from("<Qqqd", payload, offset)
            offset += 8 * 4
            scheme, offset = _read_string(payload, offset)
            if offset != len(payload):
                raise JournalError("header chunk has trailing bytes")
            result["header"] = {
                "run_seed": run_seed,
                "num_clients": num_clients,
                "cohort_size": cohort_size,
                "sample_rate": sample_rate,
                "scheme": scheme,
            }
        elif chunk_kind == CHUNK_EPOCH:
            epoch, count = struct.unpack_from("<iI", payload, 1)
            if result["committed_epochs"] and \
                    epoch <= result["committed_epochs"][-1]:
                raise JournalError("journal epochs not monotone at epoch %d"
                                   % epoch)
            result["committed_epochs"].append(epoch)
            offset = 1 + 8
            for _ in range(count):
                if offset + EVENT.size > len(payload):
                    raise JournalError("epoch %d chunk truncated mid-event"
                                       % epoch)
                event = Event(*EVENT.unpack_from(payload, offset))
                offset += EVENT.size
                if event.epoch != epoch:
                    raise JournalError(
                        "event stamped epoch %d inside epoch %d chunk"
                        % (event.epoch, epoch))
                result["events"].append(event)
            if offset != len(payload):
                raise JournalError("epoch %d chunk has trailing bytes" % epoch)
        elif chunk_kind == CHUNK_SUMMARY:
            if result["summary"] is not None:
                raise JournalError("duplicate summary chunk")
            values = struct.unpack_from("<%dq" % len(SUMMARY_FIELDS),
                                        payload, 1)
            if 1 + 8 * len(SUMMARY_FIELDS) != len(payload):
                raise JournalError("summary chunk has trailing bytes")
            result["summary"] = dict(zip(SUMMARY_FIELDS, values))
        else:
            raise JournalError("unknown chunk kind %d" % chunk_kind)
    return result


def parse_journal_file(path):
    with open(path, "rb") as f:
        return parse_journal(f.read())


def summarize(events):
    """Re-derives the summary totals from the event stream — the same
    accumulation as FoldEvent in src/obs/events.cc."""
    s = dict.fromkeys(SUMMARY_FIELDS, 0)
    for e in events:
        if e.kind == KINDS["round_commit"]:
            s["epochs_run"] += 1
        elif e.kind == KINDS["migration_c2c"]:
            s["migrations_planned"] += 1
            s["migrations_completed"] += 1
        elif e.kind == KINDS["migration_fallback"]:
            s["migrations_planned"] += 1
            s["migration_fallbacks"] += 1
        elif e.kind == KINDS["migration_rolled_back"]:
            s["migrations_planned"] += 1
            s["migrations_rolled_back"] += 1
        elif e.kind == KINDS["quorum_commit"]:
            s["quorum_commits"] += 1
        elif e.kind == KINDS["quorum_miss"]:
            s["quorum_misses"] += 1
        elif e.kind == KINDS["client_carried_over"]:
            s["carryover_clients"] += 1
        elif e.kind == KINDS["churn_absence"]:
            s["churn_absences"] += 1
        elif e.kind == KINDS["client_departed"]:
            s["churn_departures"] += 1
        elif e.kind == KINDS["quarantine_transition"]:
            if (e.b & 0xFF) == STATE_QUARANTINED:
                s["quarantines"] += 1
        elif e.kind == KINDS["model_published"]:
            s["model_publishes"] += 1
    return s


def validate(path, allow_torn=False):
    errors = []
    try:
        journal = parse_journal_file(path)
    except OSError as e:
        return ["%s: cannot read: %s" % (path, e)], None
    except JournalError as e:
        return ["%s: %s" % (path, e)], None

    if journal["torn_tail_bytes"] and not allow_torn:
        errors.append(
            "%s: %d torn-tail byte(s) after the last valid frame (pass "
            "--allow-torn for interrupted runs)"
            % (path, journal["torn_tail_bytes"]))
    if journal["header"] is None:
        errors.append("%s: no header chunk" % path)

    # One round commit per committed epoch, and it closes the chunk.
    by_epoch = {}
    for event in journal["events"]:
        by_epoch.setdefault(event.epoch, []).append(event)
    for epoch in journal["committed_epochs"]:
        events = by_epoch.get(epoch, [])
        commits = [e for e in events if e.kind == KINDS["round_commit"]]
        if len(commits) != 1:
            errors.append("%s: epoch %d has %d round-commit events (want 1)"
                          % (path, epoch, len(commits)))
        elif events[-1] is not commits[0]:
            errors.append("%s: epoch %d round commit is not the chunk's "
                          "final event" % (path, epoch))

    # Publishes mint strictly increasing lineage ids; every parent was
    # minted earlier (or is a pre-journal id), so the DAG is acyclic.
    last_minted = 0
    for event in journal["events"]:
        if event.kind != KINDS["model_published"]:
            continue
        if event.u <= last_minted:
            errors.append(
                "%s: publish lineage %d at epoch %d not strictly increasing "
                "(last %d)" % (path, event.u, event.epoch, last_minted))
        if event.v >= event.u:
            errors.append(
                "%s: publish lineage %d at epoch %d has parent %d >= itself"
                % (path, event.u, event.epoch, event.v))
        last_minted = max(last_minted, event.u)

    if journal["summary"] is not None:
        derived = summarize(journal["events"])
        for field in SUMMARY_FIELDS:
            if journal["summary"][field] != derived[field]:
                errors.append(
                    "%s: summary.%s = %d but the events derive %d"
                    % (path, field, journal["summary"][field],
                       derived[field]))

    return errors, journal


def main(argv):
    allow_torn = False
    paths = []
    for arg in argv:
        if arg == "--allow-torn":
            allow_torn = True
        elif arg.startswith("-"):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        errors, journal = validate(path, allow_torn=allow_torn)
        for error in errors:
            print("check_journal: " + error, file=sys.stderr)
        if errors:
            failed = True
        else:
            print("check_journal: %s OK (%d epochs, %d events%s)"
                  % (path, len(journal["committed_epochs"]),
                     len(journal["events"]),
                     ", sealed" if journal["summary"] is not None
                     else ", unsealed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
