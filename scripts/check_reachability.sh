#!/usr/bin/env bash
# Reachability gate: every strong fedmigr:: function in src/ is linked into
# some program (a bench, an example or perfbench), or is named in
# tools/reachability_allowlist.txt with a reason.
#
# Usage: scripts/check_reachability.sh [build-dir]
#        scripts/check_reachability.sh --self-test
#
# The scan builds every program at -O0 -fno-inline with one section per
# function and links with --gc-sections, so a function no program calls is
# dropped from every binary. At -O2, inlining hides callers and the scan
# would list false positives. It then takes the strong text (`T`) symbols
# of the src/ static libraries, removes every symbol some program defines,
# and fails on any fedmigr:: symbol left that the allowlist does not name,
# and on an allowlist line whose symbol a program links or src/ lost.
#
# The build directory defaults to build-reach/. Configuring perfbench/ pulls
# in the root project, so one tree builds perfbench, the benches and the
# examples. --self-test runs the same scan on a two-function library and a
# main that calls one of them, and fails unless exactly the other function
# is reported.
set -euo pipefail
export LC_ALL=C

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ALLOWLIST="$ROOT/tools/reachability_allowlist.txt"
SCAN_CXXFLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections"
SCAN_LDFLAGS="-Wl,--gc-sections"

# strong_text FILE...: the mangled strong text (`T`) symbols, sorted.
strong_text() {
  nm --defined-only "$@" 2>/dev/null | awk '$2 == "T" { print $3 }' | sort -u
}

# defined FILE...: every mangled symbol the files define, sorted.
defined() {
  nm --defined-only "$@" 2>/dev/null | awk 'NF == 3 { print $3 }' | sort -u
}

# fedmigr_only: demangles stdin and keeps the fedmigr:: symbols, sorted.
fedmigr_only() {
  c++filt | grep '^fedmigr::' | sort -u || true
}

# The allowlist: one demangled symbol per line, then `  # reason`.
allowed() {
  sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' "$ALLOWLIST" | sort -u
}

# self_test DIR: builds the planted library and program in DIR and checks
# that the scan reports exactly the function main does not call.
self_test() {
  local dir="$1" cxx="${CXX:-c++}" got
  cat > "$dir/lib.cc" <<'EOF'
namespace fedmigr::selftest {
int Called(int x) { return x + 1; }
int NeverCalled(int x) { return x - 1; }
}  // namespace fedmigr::selftest
EOF
  cat > "$dir/main.cc" <<'EOF'
namespace fedmigr::selftest { int Called(int x); }
int main() { return fedmigr::selftest::Called(-1); }
EOF
  # shellcheck disable=SC2086
  $cxx $SCAN_CXXFLAGS -c "$dir/lib.cc" -o "$dir/lib.o"
  ar rcs "$dir/libselftest.a" "$dir/lib.o"
  # shellcheck disable=SC2086
  $cxx $SCAN_CXXFLAGS "$dir/main.cc" "$dir/libselftest.a" $SCAN_LDFLAGS \
    -o "$dir/main"
  got="$(comm -23 <(strong_text "$dir/libselftest.a") <(defined "$dir/main") \
    | fedmigr_only)"
  if [ "$got" != "fedmigr::selftest::NeverCalled(int)" ]; then
    echo "check_reachability self-test FAILED: expected exactly" \
         "'fedmigr::selftest::NeverCalled(int)', got:" >&2
    echo "${got:-<nothing>}" >&2
    return 1
  fi
  echo "check_reachability self-test: ok (reported $got)"
}

if [ "${1:-}" = "--self-test" ]; then
  SELFTEST_DIR="$(mktemp -d)"
  trap 'rm -rf "$SELFTEST_DIR"' EXIT
  self_test "$SELFTEST_DIR"
  exit $?
fi

BUILD="${1:-$ROOT/build-reach}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -S "$ROOT/perfbench" -B "$BUILD" -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="$SCAN_CXXFLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SCAN_LDFLAGS" > /dev/null

# The programs: perfbench plus every executable bench/ and examples/ declare.
mapfile -t PROGRAMS < <(
  sed -n -e 's/^fedmigr_add_g\{0,1\}bench(\([A-Za-z0-9_]*\)).*/\1/p' \
         -e 's/^add_executable(\([A-Za-z0-9_]*\) .*/\1/p' \
         "$ROOT/bench/CMakeLists.txt" "$ROOT/examples/CMakeLists.txt")
PROGRAMS+=(perfbench)
cmake --build "$BUILD" --parallel "$JOBS" --target "${PROGRAMS[@]}" > /dev/null

BINS=()
for p in "${PROGRAMS[@]}"; do
  bin="$(find "$BUILD" -type f -name "$p" -perm -u+x | head -n 1)"
  if [ -z "$bin" ]; then
    echo "check_reachability: built program $p not found under $BUILD" >&2
    exit 2
  fi
  BINS+=("$bin")
done
mapfile -t LIBS < <(find "$BUILD/fedmigr/src" -name 'libfedmigr_*.a' | sort)
if [ "${#LIBS[@]}" -eq 0 ]; then
  echo "check_reachability: no src/ libraries under $BUILD/fedmigr/src" >&2
  exit 2
fi

REPORT="$(comm -23 <(strong_text "${LIBS[@]}") <(defined "${BINS[@]}") \
  | fedmigr_only)"
total="$(strong_text "${LIBS[@]}" | fedmigr_only | grep -c . || true)"
count="$(printf '%s' "$REPORT" | grep -c . || true)"
echo "check_reachability: ${#BINS[@]} programs, ${#LIBS[@]} libraries," \
     "$total strong fedmigr:: symbols, $count linked into no program"

NEW="$(comm -23 <(printf '%s\n' "$REPORT" | sed '/^$/d') <(allowed))"
STALE="$(comm -13 <(printf '%s\n' "$REPORT" | sed '/^$/d') <(allowed))"
status=0
if [ -n "$NEW" ]; then
  echo "FAILED: linked into no program and not in" \
       "tools/reachability_allowlist.txt:" >&2
  sed 's/^/  /' <<< "$NEW" >&2
  status=1
fi
if [ -n "$STALE" ]; then
  echo "FAILED: allowlisted but a program links it (or it is gone);" \
       "drop its allowlist line:" >&2
  sed 's/^/  /' <<< "$STALE" >&2
  status=1
fi
[ "$status" -eq 0 ] && echo "check_reachability: ok"
exit "$status"
