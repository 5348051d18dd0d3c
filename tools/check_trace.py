#!/usr/bin/env python3
"""check_trace — structural validator for FedMigr telemetry exports.

Chrome traces (from `--trace-out`, obs::TraceRecorder::WriteChromeJson)
must actually load in a trace viewer:

  * parses as JSON with a top-level "traceEvents" list;
  * every event carries ph/pid/tid, and every non-metadata event a numeric
    "ts";
  * per (pid, tid) track, timestamps are monotone non-decreasing in stream
    order (the viewer requirement the exporter guarantees by construction);
  * "B" and "E" events pair up: every "E" closes an open "B" on its track
    and no track ends with an open span;
  * metadata names the two clock domains (pid 1 wall clock, pid 2
    simulated time) when events reference them;
  * a trace whose "otherData" reports dropped events (the recorder's ring
    was full) is rejected as truncated;
  * counter tracks ("C", e.g. tools/fedmigr_report's journal counters)
    carry a name and numeric series values.

Metrics snapshots (from `--metrics-out`, obs::MetricsSnapshot::ToJson)
are detected by their top-level "counters"/"gauges"/"histograms" shape:

  * every histogram carries count/sum/mean and the p50/p90/p95/p99
    percentile columns;
  * percentiles are monotone: p50 <= p90 <= p95 <= p99;
  * the per-bucket counts sum to the sample count.

Usage: tools/check_trace.py FILE.json [FILE2.json ...]
Exits 0 when every file validates, 1 otherwise.
"""

import json
import sys

PERCENTILE_KEYS = ("p50", "p90", "p95", "p99")


def validate_metrics(path, doc):
    errors = []
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            errors.append("%s: metrics section %r is missing" % (path, section))
    histograms = doc.get("histograms")
    if not isinstance(histograms, dict):
        return errors
    for name, hist in sorted(histograms.items()):
        where = "%s: histogram %r" % (path, name)
        if not isinstance(hist, dict):
            errors.append("%s: not an object" % where)
            continue
        for key in ("count", "sum", "mean", "bounds", "counts") + \
                PERCENTILE_KEYS:
            if key not in hist:
                errors.append("%s: missing %r" % (where, key))
        percentiles = [hist.get(key) for key in PERCENTILE_KEYS]
        if all(isinstance(p, (int, float)) for p in percentiles):
            for lo, hi, lo_v, hi_v in zip(
                    PERCENTILE_KEYS, PERCENTILE_KEYS[1:],
                    percentiles, percentiles[1:]):
                if lo_v > hi_v:
                    errors.append(
                        "%s: %s=%s exceeds %s=%s (percentiles must be "
                        "monotone)" % (where, lo, lo_v, hi, hi_v))
        counts = hist.get("counts")
        if isinstance(counts, list) and isinstance(hist.get("count"), int):
            if sum(counts) != hist["count"]:
                errors.append(
                    "%s: bucket counts sum to %s but count is %s"
                    % (where, sum(counts), hist["count"]))
    return errors


def validate(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: does not parse as JSON: %s" % (path, e)]

    if isinstance(doc, dict) and "traceEvents" not in doc and \
            "histograms" in doc:
        return validate_metrics(path, doc)

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["%s: top-level 'traceEvents' list is missing" % path]
    other = doc.get("otherData")
    if isinstance(other, dict) and other.get("dropped_events", 0) != 0:
        errors.append(
            "%s: the trace ring dropped %s events, so the trace is truncated"
            % (path, other["dropped_events"]))

    last_ts = {}     # (pid, tid) -> last timestamp seen on the track
    open_spans = {}  # (pid, tid) -> count of unclosed "B" events
    named_pids = set()
    for index, event in enumerate(events):
        where = "%s: traceEvents[%d]" % (path, index)
        if not isinstance(event, dict):
            errors.append("%s: event is not an object" % where)
            continue
        ph = event.get("ph")
        if ph not in ("B", "E", "i", "M", "X", "C"):
            errors.append("%s: unknown phase %r" % (where, ph))
            continue
        if "pid" not in event or "tid" not in event:
            errors.append("%s: missing pid/tid" % where)
            continue
        track = (event["pid"], event["tid"])
        if ph == "M":
            if event.get("name") == "process_name":
                named_pids.add(event["pid"])
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append("%s: missing numeric 'ts'" % where)
            continue
        if ts < last_ts.get(track, float("-inf")):
            errors.append(
                "%s: ts %s goes backwards on track pid=%s tid=%s (last %s)"
                % (where, ts, track[0], track[1], last_ts[track]))
        last_ts[track] = ts
        if ph == "C":
            # Counter samples (fedmigr_report's journal tracks): a name and
            # numeric series values are what the viewer plots.
            if not event.get("name"):
                errors.append("%s: 'C' event without a name" % where)
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                errors.append("%s: 'C' event without args" % where)
            elif not all(isinstance(v, (int, float))
                         for v in args.values()):
                errors.append("%s: 'C' event with non-numeric series"
                              % where)
        elif ph == "B":
            if not event.get("name"):
                errors.append("%s: 'B' event without a name" % where)
            open_spans[track] = open_spans.get(track, 0) + 1
        elif ph == "E":
            if open_spans.get(track, 0) <= 0:
                errors.append(
                    "%s: 'E' with no open 'B' on track pid=%s tid=%s"
                    % (where, track[0], track[1]))
            else:
                open_spans[track] -= 1

    for track, count in sorted(open_spans.items()):
        if count > 0:
            errors.append(
                "%s: %d unclosed 'B' span(s) on track pid=%s tid=%s"
                % (path, count, track[0], track[1]))
    for pid in sorted({track[0] for track in last_ts}):
        if pid not in named_pids:
            errors.append(
                "%s: events reference pid %s but no process_name metadata "
                "names it" % (path, pid))
    return errors


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        errors = validate(path)
        for error in errors:
            print("check_trace: " + error, file=sys.stderr)
        if errors:
            failed = True
        else:
            print("check_trace: %s OK" % path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
