#!/usr/bin/env bash
# Builds the concurrency-heavy test binaries (delegation pool, callback watchdog, crash
# explorer, op-ring drainer, multi-tenant schedule explorer, fuzz corpus, fleet, tier,
# LibFS structures, striped counters, the sharded node table, the verifier's chain walk)
# under ThreadSanitizer and AddressSanitizer and runs a smoke subset of each.
#
# Usage: scripts/run_sanitizers.sh [thread|address] [--adversarial]
#   (no sanitizer: both, thread first)
#   --adversarial: run the FULL schedule-explorer, fuzz-corpus, and integrity sweeps
#   instead of the smoke subsets — the scheduled CI job's deep pass.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
adversarial=0
sanitizers=()
for arg in "$@"; do
  case "$arg" in
    --adversarial) adversarial=1 ;;
    thread|address) sanitizers+=("$arg") ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
if [[ ${#sanitizers[@]} -eq 0 ]]; then
  sanitizers=(thread address)
fi

# Smoke subsets: the full suites pass too, but these filters keep a two-sanitizer sweep
# under a few minutes on one CPU while still exercising every thread-crossing path
# (parking/wakeup/stealing, worker-fault retry, watchdog abandonment, explorer reboots,
# tenant interleaving, verify-and-quarantine).
delegation_filter='DelegationFaultTest.*:DelegationTest.ConcurrentStandaloneSubmitsFromManyThreads:DelegationTest.*Park*:DelegationTest.*Steal*:DelegationTest.*Batch*'
explorer_filter='FaultSimKernelTest.*:CrashExplorerTest.AppendHeavyWorkloadCleanAtEveryFence'
# Every OpRingTest crosses the submitter/drainer boundary (SPSC rings, park/wake, epoch
# close before CQE post) — exactly what TSan needs to see; SpscRingTest adds the raw
# two-thread ring in isolation.
ring_filter='OpRingTest.*'
spsc_filter='SpscRingTest.*'
# Schedule explorer: the whole suite (determinism, a full clean sweep, and the planted
# canary hunt with its replays) — every revoke in it crosses to the watchdog helper
# thread. Fuzz smoke: one seed variant of every corruption class plus the
# verifier/quarantine bounds tests.
schedule_filter='ScheduleExplorerTest.*'
fuzz_filter='*FuzzCorpusTest*_v0:VerifierBoundsTest.*:QuarantineBoundsTest.*'
# Fleet suite: 64 tenants over the sharded controller, concurrent cross-shard renames,
# the 4-thread rename churn that must never force a cooperating holder
# (FleetTest.RenameChurnNeverForcesCooperatingHolders), revoke/force-release canaries,
# cross-shard forgeries — the shard refactor's thread-crossing paths. Small enough to
# run whole under both sanitizers.
fleet_filter='FleetTest.*'
# Tier suite: background digestion thread vs grants, promote-cache seqlock reads, the
# LeaseCache refill worker, and the digestion crash sweep. Small enough to run whole.
tier_filter='TierTest.*'
# LibFS auxiliary structures (directory index resizing under concurrent inserts, fd
# table, journal, lease cache): small enough to run whole.
structures_filter='*'
# Striped obs::Counter sums and resets across threads.
counter_filter='StatRegistryTest.*'
# The sharded node table: multi-threaded namespace churn on one LibFS, a node dropped
# while an op holds it, and the other concurrent ArckFS tests.
arckfs_filter='ArckFsTest.Concurrent*:ArckFsTest.DroppedNode*'
# The verifier's one-pass chain walk (sorted report lists, batched tier-slot check):
# the unit tests run whole; the integrity smoke runs the attack tests and one seed of
# every scripted corruption through verify, reconcile and rollback.
verifier_filter='*'
integrity_filter='IntegrityTest.*:*CorruptionSweepTest*_seed0'
targets=(delegation_test crash_explorer_test op_ring_test common_test
         schedule_explorer_test fuzz_corpus_test fleet_test tier_test
         libfs_structures_test obs_test arckfs_test verifier_test integrity_test)
if [[ $adversarial -eq 1 ]]; then
  schedule_filter='*'
  fuzz_filter='*'
  explorer_filter='*'
  integrity_filter='*'
fi

for san in "${sanitizers[@]}"; do
  build="$repo/build-$san"
  echo "== TRIO_SANITIZE=$san: configuring $build =="
  cmake -B "$build" -S "$repo" -DTRIO_SANITIZE="$san" >/dev/null
  cmake --build "$build" -j2 --target "${targets[@]}"

  echo "== TRIO_SANITIZE=$san: delegation_test =="
  "$build/tests/delegation_test" --gtest_filter="$delegation_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: crash_explorer_test =="
  "$build/tests/crash_explorer_test" --gtest_filter="$explorer_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: op_ring_test =="
  "$build/tests/op_ring_test" --gtest_filter="$ring_filter" --gtest_brief=1
  "$build/tests/common_test" --gtest_filter="$spsc_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: schedule_explorer_test =="
  "$build/tests/schedule_explorer_test" --gtest_filter="$schedule_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: fuzz_corpus_test =="
  "$build/tests/fuzz_corpus_test" --gtest_filter="$fuzz_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: fleet_test =="
  "$build/tests/fleet_test" --gtest_filter="$fleet_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: tier_test =="
  "$build/tests/tier_test" --gtest_filter="$tier_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: libfs_structures_test =="
  "$build/tests/libfs_structures_test" --gtest_filter="$structures_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: obs_test =="
  "$build/tests/obs_test" --gtest_filter="$counter_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: arckfs_test =="
  "$build/tests/arckfs_test" --gtest_filter="$arckfs_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: verifier_test =="
  "$build/tests/verifier_test" --gtest_filter="$verifier_filter" --gtest_brief=1

  echo "== TRIO_SANITIZE=$san: integrity_test =="
  "$build/tests/integrity_test" --gtest_filter="$integrity_filter" --gtest_brief=1
done

echo "== sanitizer sweep passed: ${sanitizers[*]} (adversarial=$adversarial) =="
