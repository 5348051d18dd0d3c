#!/usr/bin/env bash
# Paired end-to-end benchmark of a change against its parent commit; appends
# one entry to BENCH_e2e.json, the end-to-end speed trajectory.
#
# Usage: scripts/bench_e2e.sh [options]
#   --parent REV        baseline commit (default HEAD~1)
#   --change REV        measured commit (default HEAD)
#   --workloads "W..."  perfbench workloads (default: all three)
#   --pairs N           pairs per workload (default 10)
#   --first-seed S      pair i uses workload seed S + i (default 1)
#   --seconds T         run length passed to run.py (default: run.py's own)
#   --workdir DIR       exported trees, their builds and raw outputs
#                       (default ${TMPDIR:-/tmp}/fedmigr-bench-e2e)
#   --out FILE          trajectory file (default BENCH_e2e.json at the root)
#   --note TEXT         free text stored with the entry
#
# Both commits are exported with `git archive` into WORKDIR, so each side
# builds from its committed files alone, in a fresh directory, and neither
# the working tree nor .git is touched. For every workload the script runs
# N pairs of
#   python3 perfbench/run.py --workload W --seed S --trace 0 [--seconds T]
# one on each side with the same seed. Pair i runs the parent first when i
# is even and the change first when it is odd, so a slow phase of a shared
# host does not always land on the same side. Each run's two output lines
# (context, result) are kept under WORKDIR/raw/.
#
# The entry holds both commits, the change side's context line (host, CPU,
# compiler, build type, thread widths), for each side whether the host CPU
# has avx512f and the FEDMIGR_GEMM_KERNEL value its runs saw (so the GEMM
# kernel each side measured can be told), whether every run passed its
# output checks, and for each workload and end-to-end metric of
# BENCHMARK.json the per-pair values, median, quartiles and IQR of each
# side, the median's relative change and how many pairs the change won.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_rev="HEAD~1"
change_rev="HEAD"
workloads="fig3-crosslan cohort-1m fedmigr-durable"
pairs=10
first_seed=1
seconds=""
workdir="${TMPDIR:-/tmp}/fedmigr-bench-e2e"
out="$repo_root/BENCH_e2e.json"
note=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --parent) parent_rev="$2"; shift 2 ;;
    --change) change_rev="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --first-seed) first_seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workdir) workdir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --note) note="$2"; shift 2 ;;
    -h|--help) sed -n '2,33p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "bench_e2e.sh: unknown option $1" >&2; exit 2 ;;
  esac
done

parent_sha="$(git -C "$repo_root" rev-parse --verify "$parent_rev^{commit}")"
change_sha="$(git -C "$repo_root" rev-parse --verify "$change_rev^{commit}")"

# Exports a commit once; a tree already exported for the same commit is
# reused with its perfbench build.
export_tree() {
  local sha="$1" dir="$2"
  if [[ -f "$dir/.exported" && "$(cat "$dir/.exported")" == "$sha" ]]; then
    return
  fi
  rm -rf "$dir"
  mkdir -p "$dir"
  git -C "$repo_root" archive "$sha" | tar -x -C "$dir"
  echo "$sha" > "$dir/.exported"
}

mkdir -p "$workdir/raw"
export_tree "$parent_sha" "$workdir/parent"
export_tree "$change_sha" "$workdir/change"

seconds_flag=()
if [[ -n "$seconds" ]]; then seconds_flag=(--seconds "$seconds"); fi

# The two facts that pick a side's GEMM kernel, as one JSON object.
gemm_facts() {
  local avx512f=false
  if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then avx512f=true; fi
  local kernel=null
  if [[ -n "${FEDMIGR_GEMM_KERNEL+set}" ]]; then
    kernel="\"$FEDMIGR_GEMM_KERNEL\""
  fi
  echo "{\"host_avx512f\": $avx512f, \"FEDMIGR_GEMM_KERNEL\": $kernel}"
}

run_side() {
  local side="$1" workload="$2" seed="$3"
  local log="$workdir/raw/$workload-s$seed-$side.jsonl"
  gemm_facts > "$workdir/raw/$workload-s$seed-$side.gemm.json"
  (cd "$workdir/$side" &&
   python3 perfbench/run.py --workload "$workload" --seed "$seed" \
     --trace 0 "${seconds_flag[@]}" > "$log")
  echo "  $side $(tail -n 1 "$log" | python3 -c \
    'import json,sys; m=json.load(sys.stdin)["metrics"]; print("epoch_ms_min %.2f" % m["epoch_ms_min"]["value"])')"
}

for workload in $workloads; do
  for ((i = 0; i < pairs; ++i)); do
    seed=$((first_seed + i))
    echo "$workload seed $seed"
    if ((i % 2 == 0)); then
      run_side parent "$workload" "$seed"
      run_side change "$workload" "$seed"
    else
      run_side change "$workload" "$seed"
      run_side parent "$workload" "$seed"
    fi
  done
done

python3 - "$repo_root/BENCHMARK.json" "$workdir/raw" "$out" "$parent_sha" \
  "$change_sha" "$pairs" "$first_seed" "$seconds" "$note" $workloads <<'EOF'
import datetime
import json
import os
import statistics
import sys

(benchmark_json, raw_dir, out, parent_sha, change_sha, pairs, first_seed,
 seconds, note) = sys.argv[1:10]
workloads = sys.argv[10:]
pairs, first_seed = int(pairs), int(first_seed)
seeds = [first_seed + i for i in range(pairs)]
with open(benchmark_json) as handle:
    metrics = json.load(handle)["end_to_end"]


def load(workload, seed, side):
    path = os.path.join(raw_dir, "%s-s%d-%s.jsonl" % (workload, seed, side))
    with open(path) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    return lines[-2]["context"], lines[-1]


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def gemm_facts(workload, seed, side):
    path = os.path.join(raw_dir, "%s-s%d-%s.gemm.json" % (workload, seed, side))
    with open(path) as handle:
        return json.load(handle)


context = None
all_correct = True
results = {}
facts = {"parent": [], "change": []}
for workload in workloads:
    runs = {side: [load(workload, seed, side) for seed in seeds]
            for side in ("parent", "change")}
    for side in facts:
        for seed in seeds:
            fact = gemm_facts(workload, seed, side)
            if fact not in facts[side]:
                facts[side].append(fact)
    if context is None:
        context = runs["change"][0][0]
    for side in runs:
        all_correct &= all(result["correct"] for _, result in runs[side])
    per_metric = {}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [result["metrics"][name]["value"]
                        for _, result in runs[side]] for side in runs}
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in zip(sides["parent"], sides["change"])
                   if (c < p if lower else c > p))
        ties = sum(1 for p, c in zip(sides["parent"], sides["change"])
                   if c == p)
        parent, change = summary(sides["parent"]), summary(sides["change"])
        per_metric[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": parent, "change": change,
            "median_change": (change["median"] / parent["median"] - 1.0
                              if parent["median"] else None),
            "wins": wins, "ties": ties, "pairs": pairs,
        }
    results[workload] = per_metric

entry = {
    "commit": change_sha,
    "parent": parent_sha,
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"),
    "note": note,
    "context": context,
    # One object per side when every run of it saw the same facts.
    "gemm": {side: seen[0] if len(seen) == 1 else seen
             for side, seen in facts.items()},
    "protocol": {
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0"
                   + (" --seconds " + seconds if seconds else ""),
        "seeds": seeds,
        "order": "pair i runs the parent first when i is even",
    },
    "all_output_checks_passed": all_correct,
    "workloads": results,
}
trajectory = {"entries": []}
if os.path.exists(out):
    with open(out) as handle:
        trajectory = json.load(handle)
trajectory["entries"].append(entry)
with open(out, "w") as handle:
    json.dump(trajectory, handle, indent=1)
    handle.write("\n")

for workload, per_metric in results.items():
    print(workload)
    for name, m in per_metric.items():
        change = m["median_change"]
        print("  %-15s %12.6g -> %12.6g %-8s %+7.1f%%  won %d/%d"
              % (name, m["parent"]["median"], m["change"]["median"],
                 m["unit"], 100 * change if change is not None else 0.0,
                 m["wins"], m["pairs"]))
print("wrote %s" % out)
EOF
