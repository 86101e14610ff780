#!/usr/bin/env bash
# Runs clang-tidy (config: .clang-tidy at the repo root) over the first-party
# sources, using the compile database of an existing build directory.
#
#   tools/run_tidy.sh [build-dir] [-- extra clang-tidy args...]
#
# The build directory defaults to ./build and must have been configured
# already (CMAKE_EXPORT_COMPILE_COMMANDS is on by default in the top-level
# CMakeLists.txt). Exits 0 with a notice when clang-tidy is not installed,
# so CI images without LLVM tooling skip the check instead of failing.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
shift || true
[ "${1:-}" = "--" ] && shift

TIDY="$(command -v clang-tidy || true)"
if [ -z "$TIDY" ]; then
  echo "run_tidy.sh: clang-tidy not found on PATH; skipping (install LLVM" \
       "tooling to enable the lint pass)" >&2
  exit 0
fi

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "run_tidy.sh: $BUILD_DIR/compile_commands.json missing; configure" \
       "first: cmake -B $BUILD_DIR -S $ROOT" >&2
  exit 1
fi

# First-party translation units only: the compile database also contains
# GTest/benchmark glue we do not own. find covers src/ wholesale (including
# src/driver, src/state, and src/analysis — the abstract interpreter and
# the register renaming behind sks-lint's semantic and
# non-canonical-registers rules, plus src/cache and src/service — the
# kernel store and the concurrent front end behind sks-serve) and the
# tools/ CLIs. The bench tree is covered selectively: hot-path
# microbenchmarks that exercise first-party SIMD, the portfolio race
# harness that drives the backend interface, the ablation table that
# reports the dead-instruction gate's counter, the n=5 budget run that
# drives the layered engine under a byte budget, and the analytics
# workloads that drive the pair JIT and the sortlib selection entry
# points. From the test tree, the register-renaming tests, the service
# tests, the goal-predicate tests, and the translation-validation tests
# ride along: they exercise the program renaming, the concurrency
# contract, the goal layer, and the decoder/symbolic-executor proof stack
# the JIT's safety now rests on, so their idioms are held to the same
# bar.
FILES=$(find "$ROOT/src" "$ROOT/tools" "$ROOT/examples" -name '*.cpp' | sort)
FILES="$FILES $ROOT/bench/bench_expand_micro.cpp"
FILES="$FILES $ROOT/bench/bench_portfolio.cpp"
FILES="$FILES $ROOT/bench/bench_enum_ablation.cpp"
FILES="$FILES $ROOT/bench/bench_kernels_n5.cpp"
FILES="$FILES $ROOT/bench/bench_analytics.cpp"
FILES="$FILES $ROOT/tests/SymmetryTest.cpp"
FILES="$FILES $ROOT/tests/ServiceTest.cpp"
FILES="$FILES $ROOT/tests/GoalTest.cpp"
FILES="$FILES $ROOT/tests/ValidateTest.cpp"

STATUS=0
for F in $FILES; do
  "$TIDY" -p "$BUILD_DIR" --quiet "$@" "$F" || STATUS=1
done
exit $STATUS
