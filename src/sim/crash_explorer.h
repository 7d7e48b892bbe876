// CrashExplorer: systematic crash-point exploration (Chipmunk-style), the test harness
// half of FaultSim. It runs a workload on a kTracking pool while recording every Fence(),
// then for EVERY recorded fence materializes the persisted image a crash at that point
// would leave behind, reboots it (mount + journal replay + RunRecovery), and checks:
//
//   1. trio.fsck reports a clean image (G1..G6);
//   2. a POSIX oracle walk succeeds — every directory lists, every file stats and reads
//      back its full size with no error (the recovered tree is internally consistent);
//   3. an optional caller check (workload-specific semantics, e.g. "old or new content,
//      never a mix");
//   4. with `explore_recovery`, recovery itself is re-crashed: the first recovery runs on
//      a kTracking pool with fence recording, every inner fence is materialized, a SECOND
//      recovery runs on it, and the result must be fsck-clean and tree-identical to the
//      uncrashed first recovery (recovery idempotence / convergence).
//
// Faults from FaultSim (torn persists, bit flips, ...) can be armed for the workload
// phase, so the explorer doubles as a media-fault harness: a fault that defeats recovery
// shows up as a failing crash point, and the explorer shrinks it to the minimal (earliest)
// failing fence. When a sampling cap truncates the sweep, the truncation is logged and
// counted — a capped run never silently reads as exhaustive.

#ifndef SRC_SIM_CRASH_EXPLORER_H_
#define SRC_SIM_CRASH_EXPLORER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/libfs/arckfs.h"
#include "src/sim/fault_injector.h"
#include "src/sim/remount.h"

namespace trio {

struct CrashExplorerOptions {
  size_t pool_pages = 2048;
  uint64_t max_inodes = 1024;
  // 0 = exhaustive (every fence). Otherwise at most this many evenly spaced crash points
  // (always including the first and last); skipped points are counted in sampled_out and
  // the truncation is logged.
  size_t max_crash_points = 0;
  // Re-crash recovery itself at each outer crash point and require the second recovery to
  // converge (fsck-clean and tree-equal to the uncrashed recovery).
  bool explore_recovery = false;
  // 0 = every inner (mid-recovery) fence; otherwise an evenly spaced sample per point.
  size_t max_recovery_points = 0;
  // Fault points armed on the workload pool (disarmed before exploration starts, so the
  // explorer observes the faults' durable damage, not fresh injections).
  std::vector<ArmedFault> faults;
  // Config for the ArckFs the workload runs on (e.g. ring.enabled to crash-test the
  // op-ring drainer's group-commit epochs). Recovery boots always use a default config:
  // the recovered image must be readable without the workload's special modes.
  ArckFsConfig workload_config;
  // Kernel config for the workload kernel AND every recovery boot. Unlike the LibFS
  // config above, this one must carry over to recovery: a tier.backend holds the only
  // copy of digested pages, so a recovered image is unreadable without it. The backend
  // outlives every pool the explorer boots; each Mount re-runs BeginRebuild + Adopt
  // against the materialized image, and fsck's G7 cross-tier check runs against the
  // resulting owner snapshot. Recovery boots force tier.start_digestion off — a
  // background digestion thread would mutate the image mid-audit.
  KernelConfig kernel_config;
  // Seeds the injector's Rng; every run with the same seed explores identical faults.
  uint64_t seed = 2026;
  // Stop exploring after this many failing crash points (details kept for all of them).
  size_t max_failures = 8;
};

// Sharded-stats pattern: relaxed atomics, safe to read while an exploration runs.
struct CrashExplorerStats {
  std::atomic<uint64_t> fences_recorded{0};
  std::atomic<uint64_t> crash_points_explored{0};
  std::atomic<uint64_t> recovery_points_explored{0};
  std::atomic<uint64_t> remounts{0};
  std::atomic<uint64_t> recoveries{0};
  std::atomic<uint64_t> fsck_runs{0};
  std::atomic<uint64_t> fsck_problems{0};
  std::atomic<uint64_t> oracle_checks{0};
  std::atomic<uint64_t> faults_injected{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> sampled_out{0};  // Crash points skipped by a sampling cap.
  std::atomic<uint64_t> min_failing_fence{UINT64_MAX};
};

struct CrashFailure {
  size_t fence = 0;  // Outer crash point (fence index in the workload recording).
  // Inner crash point when the failure is a non-convergent second recovery; SIZE_MAX for
  // plain outer failures.
  size_t recovery_fence = SIZE_MAX;
  std::string what;
};

struct CrashExplorerReport {
  size_t fences = 0;    // Fences recorded by the workload.
  size_t explored = 0;  // Outer crash points actually checked.
  std::vector<CrashFailure> failures;
  size_t minimal_failing_fence = SIZE_MAX;  // Earliest failing fence after shrinking.

  bool Clean() const { return failures.empty(); }
};

class CrashExplorer {
 public:
  using Workload = std::function<void(ArckFs&)>;
  // Optional extra oracle run on every recovered file system; return a non-OK status to
  // flag the crash point as failing.
  using Check = std::function<Status(ArckFs&)>;

  explicit CrashExplorer(CrashExplorerOptions options = {});

  // Formats a fresh tracking pool, runs `workload` under fence recording (with any armed
  // faults), then sweeps the crash points. Errors (not failing crash points — those go in
  // the report) are returned as a status.
  Result<CrashExplorerReport> Explore(const Workload& workload, const Check& check = {});

  const CrashExplorerStats& stats() const { return stats_; }
  FaultInjector& injector() { return injector_; }

 private:
  RemountedFs Boot(const char* image, NvmMode mode, const std::vector<PageNumber>& journals,
                   bool record_recovery);
  // Checks one outer crash point; empty return = pass, otherwise appends failure records.
  void CheckPoint(size_t fence, NvmPool& primary, const std::vector<PageNumber>& journals,
                  std::vector<char>& image, const Check& check,
                  CrashExplorerReport& report);
  // Evenly spaced sample of [0, count) capped at `cap` (0 = all), first and last kept.
  std::vector<size_t> SamplePoints(size_t count, size_t cap, const char* what);
  void RecordFailure(CrashExplorerReport& report, size_t fence, size_t recovery_fence,
                     std::string what);

  CrashExplorerOptions options_;
  FaultInjector injector_;
  CrashExplorerStats stats_;
};

}  // namespace trio

#endif  // SRC_SIM_CRASH_EXPLORER_H_
