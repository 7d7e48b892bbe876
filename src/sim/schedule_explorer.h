// ScheduleExplorer: seeded PCT-style exploration of two LibFS tenants racing on shared
// state — the multi-tenant half of FaultSim. Each tenant is a scripted sequence of
// file-system steps; a schedule is one interleaving of the two scripts, executed
// cooperatively (single-threaded, deterministic, replayable from its bit-vector). For
// every explored schedule the explorer:
//
//   1. runs the interleaving on a fresh kTracking pool with fence recording — lease
//      revocations, verify-on-transfer, checkpoint/rollback all fire exactly as the
//      schedule dictates;
//   2. tears both tenants down (final ownership transfers + verification), then fscks the
//      LIVE image — cross-tenant damage that survives reconciliation shows up here;
//   3. materializes a crash at every recorded fence (subject to max_crash_points),
//      remounts, recovers with both tenants' journals, and requires fsck-clean plus a
//      passing oracle walk — damage that only a crash makes visible shows up here.
//
// The two no-preemption baselines (all of A then B, all of B then A) are always explored
// first: a failure there is a sequential bug, not an interleaving bug, and the explorer
// reports it as such. A failing interleaving is minimized — trailing steps dropped, then
// preemptions greedily removed — while preserving the failure, so the report carries a
// small replayable schedule instead of "seed 17 failed somewhere".

#ifndef SRC_SIM_SCHEDULE_EXPLORER_H_
#define SRC_SIM_SCHEDULE_EXPLORER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/sim/fault_injector.h"
#include "src/sim/remount.h"

namespace trio {

// One tenant's script: steps applied in order, each a complete file-system interaction
// (the schedule decides only the interleaving ORDER, never splits a step). Steps must
// tolerate lease revocation between any two of them.
using TenantStep = std::function<void(ArckFs&)>;
using TenantScript = std::vector<TenantStep>;

// An interleaving: 0 = next step of tenant A, 1 = next step of tenant B. Always contains
// exactly |A| zeros and |B| ones (minimized schedules may contain fewer).
using Schedule = std::vector<uint8_t>;

struct ScheduleExplorerOptions {
  size_t pool_pages = 2048;
  uint64_t max_inodes = 1024;
  // Random interleavings explored beyond the two baselines.
  size_t schedules = 16;
  // PCT-style bound: at most this many context switches per generated schedule. Low
  // bounds find most real races (PCT's insight) while keeping schedules minimizable.
  size_t max_preemptions = 4;
  uint64_t seed = 2026;
  // Crash points per schedule: 0 = every fence; otherwise an evenly spaced sample
  // (first/last kept, truncation counted in stats().sampled_out).
  size_t max_crash_points = 0;
  // Kernel config for the WORKLOAD phase. Its lease_ms, revoke_grace_ms and
  // fix_timeout_ms are raised to 60 s during schedule execution, far above any step's run
  // time, so no LibFS callback is ever abandoned by the watchdog and each schedule is a
  // single deterministic execution. Recovery boots always use a default config.
  KernelConfig kernel_config;
  // Fault points armed on each schedule's workload pool (e.g.
  // kFaultKernelLeakOnRevokedTransfer for the planted-bug acceptance test). Every run
  // gets a fresh injector seeded from `seed`, so a schedule replays the same firings.
  std::vector<ArmedFault> faults;
  // ArckFs configs for the two tenants (uid/gid, page_batch, ...).
  ArckFsConfig tenant_a;
  ArckFsConfig tenant_b;
  // Stop after this many failing schedules.
  size_t max_failing_schedules = 1;
  bool minimize = true;  // Shrink the first failing schedule.
};

struct ScheduleExplorerStats {
  std::atomic<uint64_t> schedules_explored{0};
  std::atomic<uint64_t> steps_executed{0};
  std::atomic<uint64_t> fences_recorded{0};
  std::atomic<uint64_t> crash_points_explored{0};
  std::atomic<uint64_t> remounts{0};
  std::atomic<uint64_t> fsck_runs{0};
  std::atomic<uint64_t> live_fsck_failures{0};
  std::atomic<uint64_t> crash_fsck_failures{0};
  std::atomic<uint64_t> sampled_out{0};
  std::atomic<uint64_t> minimization_replays{0};
};

struct ScheduleFailure {
  Schedule schedule;        // The failing interleaving (minimized when minimize is on).
  size_t fence = SIZE_MAX;  // Earliest failing crash fence; SIZE_MAX = live-image failure.
  bool baseline = false;    // True: a no-preemption schedule failed (sequential bug).
  std::string what;
};

struct ScheduleExplorerReport {
  size_t schedules_explored = 0;
  std::vector<ScheduleFailure> failures;
  bool Clean() const { return failures.empty(); }
};

class ScheduleExplorer {
 public:
  explicit ScheduleExplorer(ScheduleExplorerOptions options = {});

  // Explores baselines + `schedules` seeded interleavings of the two scripts. Harness
  // errors surface as a status; failing schedules go in the report.
  Result<ScheduleExplorerReport> Explore(const TenantScript& a, const TenantScript& b);

  // Re-runs one schedule end to end (live fsck + full crash sweep) and returns its
  // failure verdict: fence SIZE_MAX-1 means "passed". Public so a failure report is
  // replayable from just the schedule bit-vector.
  ScheduleFailure Replay(const TenantScript& a, const TenantScript& b,
                         const Schedule& schedule);

  // The deterministic schedule generator (exposed for replay-from-seed: the i-th random
  // schedule of a given seed is always the same interleaving).
  Schedule GenerateSchedule(size_t index, size_t steps_a, size_t steps_b) const;

  const ScheduleExplorerStats& stats() const { return stats_; }

 private:
  struct RunOutcome {
    bool failed = false;
    size_t fence = SIZE_MAX;
    std::string what;
  };
  RunOutcome RunSchedule(const TenantScript& a, const TenantScript& b,
                         const Schedule& schedule);
  Schedule Minimize(const TenantScript& a, const TenantScript& b, Schedule failing);

  ScheduleExplorerOptions options_;
  ScheduleExplorerStats stats_;
};

// True when the schedule executes with no context switch (one tenant fully drains before
// the other starts) — the sequential baselines.
bool IsSequentialSchedule(const Schedule& schedule);

}  // namespace trio

#endif  // SRC_SIM_SCHEDULE_EXPLORER_H_
