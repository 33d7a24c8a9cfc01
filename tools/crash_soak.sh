#!/usr/bin/env bash
# Crash-recovery soak for the wsnex persist protocol.
#
# Runs an uninterrupted reference quick campaign, then for every
# registered persist-site failpoint: re-runs the campaign with that site
# armed to `crash`, asserts the process died with the crash sentinel
# (exit 86), recovers the way an operator would (`wsnex resume` when the
# campaign.json header exists, re-issued `wsnex run` when the crash
# predates it), and byte-compares the recovered archives against the
# reference. A two-scenario `--jobs 1` leg then crashes each commit site
# (archives, summary) of the first scenario while the lane already runs
# the second optimizer, and the second scenario's summary after the first
# is complete. A final leg tears the PRD calibration disk cache mid-write
# and checks a warm rerun degrades to recompute with identical archives.
#
# Usage: tools/crash_soak.sh <path-to-wsnex-binary> [workdir]
# The binary must be built with -DWSNEX_FAILPOINTS=ON; the script fails
# fast (site never fired -> exit 0 -> assertion trips) when it is not.
set -u

BIN=${1:?usage: crash_soak.sh <wsnex-binary> [workdir]}
WORK=${2:-$(mktemp -d "${TMPDIR:-/tmp}/wsnex_crash_soak.XXXXXX")}
SCENARIO=hospital_ward_2
CRASH_EXIT=86  # util::failpoint::kCrashExitCode
mkdir -p "$WORK"

failures=0
fail() { echo "FAIL: $*" >&2; failures=$((failures + 1)); }

run_campaign() { # out-dir, extra args...
  local out=$1; shift
  WSNEX_FAILPOINTS= "$BIN" run "$SCENARIO" -o "$out" --quick "$@"
}

# crash_leg LABEL ARM REF SCENARIO...: crashes a `--jobs 1` quick run of
# the scenarios at ARM, recovers it and byte-compares every scenario's
# archives with the reference store REF.
crash_leg() {
  local label=$1 arm=$2 ref=$3; shift 3
  local out="$WORK/$label" status s f leftovers
  echo "== crash site $label ($arm) =="

  WSNEX_FAILPOINTS="$arm" "$BIN" run "$@" -o "$out" --quick --jobs 1 \
    >/dev/null 2>"$WORK/$label.crash.log"
  status=$?
  if [ "$status" -ne "$CRASH_EXIT" ]; then
    fail "$label: expected crash exit $CRASH_EXIT, got $status (site never fired?)"
    return
  fi

  # Recover: resume once the header exists, otherwise rerun from scratch.
  if [ -f "$out/campaign.json" ]; then
    WSNEX_FAILPOINTS= "$BIN" resume "$out" >/dev/null \
      || { fail "$label: resume failed"; return; }
  else
    WSNEX_FAILPOINTS= "$BIN" run "$@" -o "$out" --quick --jobs 1 >/dev/null \
      || { fail "$label: rerun after pre-header crash failed"; return; }
  fi

  for s in "$@"; do
    for f in pareto.csv feasible.csv; do
      cmp -s "$out/results/$s/$f" "$ref/results/$s/$f" \
        || fail "$label: $s/$f differs from reference after recovery"
    done
  done
  leftovers=$(find "$out" -name "*.tmp.*" | wc -l)
  [ "$leftovers" -eq 0 ] || fail "$label: $leftovers stale temp files left"
}

echo "== reference run =="
REF="$WORK/ref"
run_campaign "$REF" >/dev/null || { echo "reference campaign failed" >&2; exit 1; }
REF_PARETO="$REF/results/$SCENARIO/pareto.csv"
REF_FEASIBLE="$REF/results/$SCENARIO/feasible.csv"
[ -s "$REF_PARETO" ] || { echo "reference pareto.csv missing" >&2; exit 1; }

# site label -> WSNEX_FAILPOINTS arming. The manifest sites fire only at
# the campaign.json header written at initialize; a crash there leaves no
# header, so recovery reruns.
SITES=(
  "spec:result_store.spec=crash"
  "spec_rename:result_store.spec.rename=crash"
  "manifest:result_store.manifest=crash"
  "manifest_rename:result_store.manifest.rename=crash"
  "persist:campaign.persist=crash"
  "summary:result_store.summary=crash"
  "summary_rename:result_store.summary.rename=crash"
)
for entry in "${SITES[@]}"; do
  crash_leg "${entry%%:*}" "${entry#*:}" "$REF" "$SCENARIO"
done

# Two scenarios: the lane's commit worker writes the first one's archives
# and summary.json while the lane runs the second one's optimizer, so the
# first three crashes land mid-optimizer. Summary evaluation 2 records the
# second scenario, after the first is complete.
PAIR=(hospital_ward_2 hospital_ward_3)
echo "== two-scenario reference run =="
PAIR_REF="$WORK/pair_ref"
WSNEX_FAILPOINTS= "$BIN" run "${PAIR[@]}" -o "$PAIR_REF" --quick --jobs 1 \
  >/dev/null || { echo "two-scenario reference failed" >&2; exit 1; }
PAIR_SITES=(
  "pair_persist:campaign.persist=crash"
  "pair_summary:result_store.summary=crash"
  "pair_summary_rename:result_store.summary.rename=crash"
  "pair_summary2:result_store.summary=crash#2"
  "pair_summary_rename2:result_store.summary.rename=crash#2"
)
for entry in "${PAIR_SITES[@]}"; do
  crash_leg "${entry%%:*}" "${entry#*:}" "$PAIR_REF" "${PAIR[@]}"
done

echo "== torn PRD cache leg =="
CACHE="$WORK/prd_cache"
# Cold run with the cache write torn at 128 bytes: the campaign must still
# succeed (the tear is silent) with reference-identical archives.
WSNEX_FAILPOINTS="prd_cache.write=torn@128" \
  "$BIN" run "$SCENARIO" -o "$WORK/torn_cold" --quick \
  --cache-dir "$CACHE" >/dev/null \
  || fail "torn-cache cold run failed"
torn_size=$(wc -c <"$CACHE/prd_calibration.json" 2>/dev/null || echo 0)
[ "$torn_size" -eq 128 ] || fail "torn cache write left $torn_size bytes, expected 128"
cmp -s "$WORK/torn_cold/results/$SCENARIO/pareto.csv" "$REF_PARETO" \
  || fail "torn-cache cold run archives differ"
# Warm rerun reads the torn cache: must degrade to in-memory recompute
# (warning logged, campaign succeeds, archives identical) and heal the
# cache file for the third run.
run_campaign "$WORK/torn_warm" --cache-dir "$CACHE" 2>"$WORK/torn_warm.log" >/dev/null \
  || fail "degraded warm run failed"
grep -q "unusable calibration cache" "$WORK/torn_warm.log" \
  || fail "degraded warm run did not log the cache degradation"
cmp -s "$WORK/torn_warm/results/$SCENARIO/pareto.csv" "$REF_PARETO" \
  || fail "degraded warm run archives differ"
run_campaign "$WORK/healed" --cache-dir "$CACHE" >/dev/null \
  || fail "healed warm run failed"
cmp -s "$WORK/healed/results/$SCENARIO/pareto.csv" "$REF_PARETO" \
  || fail "healed warm run archives differ"

if [ "$failures" -ne 0 ]; then
  echo "crash soak: $failures failure(s), artifacts kept in $WORK" >&2
  exit 1
fi
echo "crash soak: all sites recovered bit-identically ($WORK)"
rm -rf "$WORK"
