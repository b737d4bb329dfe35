#!/usr/bin/env bash
# Builds and tests the analysis matrix defined in CMakePresets.json.
#
#   tools/run_analysis_matrix.sh                 # the full CI matrix
#   tools/run_analysis_matrix.sh --presets=asan,tsan
#   tools/run_analysis_matrix.sh --jobs=8
#
# Each preset configures into build-<preset>/, builds, and runs its
# labeled ctest subset (asan/ubsan -> faults|coro|tuning|cache|disk|
# checksum|join, tsan -> threaded|sched|tuning|cache|disk|checksum|faults,
# analysis -> lint|bench-smoke, debug -> everything). The script keeps going after
# a preset fails and exits nonzero if ANY step failed, so a CI job
# reports the whole matrix in one run.
#
# Sanitizer presets are for correctness only — never quote perf numbers
# from them (EXPERIMENTS.md).

set -u

cd "$(dirname "$0")/.."

PRESETS="analysis,debug,asan,ubsan,tsan"
JOBS="$(nproc 2>/dev/null || echo 2)"

for arg in "$@"; do
  case "$arg" in
    --presets=*) PRESETS="${arg#--presets=}" ;;
    --jobs=*)    JOBS="${arg#--jobs=}" ;;
    -h|--help)
      sed -n '2,15p' "$0" | sed 's/^# \{0,1\}//'
      exit 0
      ;;
    *)
      echo "run_analysis_matrix.sh: unknown argument '$arg'" >&2
      exit 2
      ;;
  esac
done

failed=()
passed=()
declare -A stage_result  # "<preset>:<stage>" -> PASS / FAIL / skip

run_step() {
  local preset="$1"; shift
  echo
  echo "=== [$preset] $* ==="
  if ! "$@"; then
    return 1
  fi
}

# The lint stage runs the hjlint binary directly (baseline-checked, so
# tracked debt is suppressed and stale entries fail) on presets whose
# ctest subset includes the lint label. It is redundant with the
# hjlint_tree test on purpose: the summary table gets a dedicated
# lint column even when a preset's ctest step dies earlier.
lint_stage() {
  local preset="$1"
  "build-$preset/tools/hjlint" \
      --baseline=tools/hjlint/baseline.txt src bench tools examples
}

IFS=',' read -r -a preset_list <<< "$PRESETS"
for preset in "${preset_list[@]}"; do
  ok=1
  for stage in configure build lint test; do
    stage_result["$preset:$stage"]="skip"
  done
  if run_step "$preset" cmake --preset "$preset"; then
    stage_result["$preset:configure"]="PASS"
  else
    stage_result["$preset:configure"]="FAIL"; ok=0
  fi
  if [ "$ok" = 1 ]; then
    if run_step "$preset" cmake --build --preset "$preset" -j "$JOBS"; then
      stage_result["$preset:build"]="PASS"
    else
      stage_result["$preset:build"]="FAIL"; ok=0
    fi
  fi
  if [ "$ok" = 1 ] && [ "$preset" = analysis ]; then
    if run_step "$preset" lint_stage "$preset"; then
      stage_result["$preset:lint"]="PASS"
    else
      stage_result["$preset:lint"]="FAIL"; ok=0
    fi
  fi
  if [ "$ok" = 1 ]; then
    if run_step "$preset" ctest --preset "$preset" -j "$JOBS"; then
      stage_result["$preset:test"]="PASS"
    else
      stage_result["$preset:test"]="FAIL"; ok=0
    fi
  fi
  if [ "$ok" = 1 ]; then
    passed+=("$preset")
  else
    failed+=("$preset")
  fi
done

echo
echo "=== analysis matrix summary ==="
printf '  %-10s %-10s %-10s %-10s %-10s %s\n' \
       preset configure build lint test result
for preset in "${preset_list[@]}"; do
  overall=PASS
  for p in ${failed[@]+"${failed[@]}"}; do
    [ "$p" = "$preset" ] && overall=FAIL
  done
  printf '  %-10s %-10s %-10s %-10s %-10s %s\n' "$preset" \
         "${stage_result[$preset:configure]}" \
         "${stage_result[$preset:build]}" \
         "${stage_result[$preset:lint]}" \
         "${stage_result[$preset:test]}" \
         "$overall"
done

if [ "${#failed[@]}" -ne 0 ]; then
  echo "analysis matrix: ${#failed[@]} preset(s) failed" >&2
  exit 1
fi
echo "analysis matrix: all ${#passed[@]} preset(s) passed"
