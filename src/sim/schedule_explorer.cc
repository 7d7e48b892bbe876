#include "src/sim/schedule_explorer.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/core_state.h"
#include "src/verifier/fsck.h"

namespace trio {

namespace {

// Workload-phase lease, revoke-grace and fix budgets: far above any step's run time, so
// the callback watchdog never abandons a LibFS callback inside a schedule.
constexpr uint64_t kCallbackBudgetMs = 60000;

size_t Alternations(const Schedule& schedule) {
  size_t n = 0;
  for (size_t i = 1; i < schedule.size(); ++i) {
    if (schedule[i] != schedule[i - 1]) {
      ++n;
    }
  }
  return n;
}

std::string ScheduleString(const Schedule& schedule) {
  std::string s;
  s.reserve(schedule.size());
  for (uint8_t bit : schedule) {
    s.push_back(bit == 0 ? 'A' : 'B');
  }
  return s;
}

std::string FsckFailureString(const FsckReport& report) {
  const FsckProblem& p = report.problems.front();
  return "fsck " + p.invariant + " (ino " + std::to_string(p.ino) + "): " + p.detail +
         " [+" + std::to_string(report.problems.size() - 1) + " more]";
}

}  // namespace

bool IsSequentialSchedule(const Schedule& schedule) {
  return Alternations(schedule) <= 1;
}

ScheduleExplorer::ScheduleExplorer(ScheduleExplorerOptions options)
    : options_(std::move(options)) {}

Schedule ScheduleExplorer::GenerateSchedule(size_t index, size_t steps_a,
                                            size_t steps_b) const {
  // Seeded per index so the i-th schedule of a seed is reproducible in isolation,
  // independent of how many schedules ran before it.
  Rng rng(options_.seed * 1000003 + index);
  Schedule s;
  s.reserve(steps_a + steps_b);
  size_t rem[2] = {steps_a, steps_b};
  uint8_t cur = static_cast<uint8_t>(rng.Below(2));
  const size_t switches = rng.Below(options_.max_preemptions + 1);
  for (size_t i = 0; i < switches; ++i) {
    const uint8_t other = static_cast<uint8_t>(1 - cur);
    if (rem[cur] == 0) {
      cur = other;
      continue;
    }
    if (rem[other] == 0) {
      break;
    }
    const size_t len = 1 + rng.Below(rem[cur]);
    s.insert(s.end(), len, cur);
    rem[cur] -= len;
    cur = other;
  }
  s.insert(s.end(), rem[cur], cur);
  rem[cur] = 0;
  const uint8_t other = static_cast<uint8_t>(1 - cur);
  s.insert(s.end(), rem[other], other);
  return s;
}

ScheduleExplorer::RunOutcome ScheduleExplorer::RunSchedule(const TenantScript& a,
                                                           const TenantScript& b,
                                                           const Schedule& schedule) {
  RunOutcome out;
  stats_.schedules_explored.fetch_add(1, std::memory_order_relaxed);

  NvmPool pool(options_.pool_pages, NvmMode::kTracking);
  FormatOptions format;
  format.max_inodes = options_.max_inodes;
  Status formatted = Format(pool, format);
  if (!formatted.ok()) {
    out.failed = true;
    out.what = "harness: format failed: " + formatted.ToString();
    return out;
  }
  // LibFS callbacks run on a watchdog helper while the stepping thread waits for them, and
  // with these budgets none is ever abandoned: one schedule bit-vector, one execution.
  KernelConfig kernel_config = options_.kernel_config;
  kernel_config.lease_ms = kCallbackBudgetMs;
  kernel_config.revoke_grace_ms = kCallbackBudgetMs;
  kernel_config.fix_timeout_ms = kCallbackBudgetMs;
  FaultInjector injector(options_.seed);
  for (const ArmedFault& fault : options_.faults) {
    injector.Arm(fault.point, fault.policy);
  }
  pool.set_fault_injector(&injector);
  KernelController kernel(pool, kernel_config);
  Status mounted = kernel.Mount();
  if (!mounted.ok()) {
    out.failed = true;
    out.what = "harness: mount failed: " + mounted.ToString();
    return out;
  }
  auto fs_a = std::make_unique<ArckFs>(kernel, options_.tenant_a);
  auto fs_b = std::make_unique<ArckFs>(kernel, options_.tenant_b);

  pool.StartFenceRecording();
  size_t next_a = 0;
  size_t next_b = 0;
  for (uint8_t bit : schedule) {
    if (bit == 0) {
      if (next_a < a.size()) {
        a[next_a++](*fs_a);
        stats_.steps_executed.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (next_b < b.size()) {
      b[next_b++](*fs_b);
      stats_.steps_executed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Both journals feed every recovery boot: a crash point does not know which tenant's
  // in-flight ops it truncated.
  std::vector<PageNumber> journals = fs_a->JournalPages();
  const std::vector<PageNumber> journals_b = fs_b->JournalPages();
  journals.insert(journals.end(), journals_b.begin(), journals_b.end());
  // Teardown runs INSIDE the fence recording: the final ownership transfers (and their
  // verify/reconcile) are part of the schedule, and crashes mid-teardown are explored.
  fs_b.reset();
  fs_a.reset();
  pool.StopFenceRecording();
  pool.set_fault_injector(nullptr);

  const size_t fences = pool.RecordedFenceCount();
  stats_.fences_recorded.fetch_add(fences, std::memory_order_relaxed);

  // Live image first: both tenants have fully reconciled, so any fsck problem here is
  // durable cross-tenant damage that verify-on-transfer let through.
  Result<FsckReport> live = RunFsck(pool);
  stats_.fsck_runs.fetch_add(1, std::memory_order_relaxed);
  if (!live.ok() || !live->Clean()) {
    stats_.live_fsck_failures.fetch_add(1, std::memory_order_relaxed);
    out.failed = true;
    out.fence = SIZE_MAX;
    out.what = live.ok() ? "live image dirty: " + FsckFailureString(*live)
                         : "live fsck errored: " + live.status().ToString();
    return out;
  }

  // Crash sweep: evenly spaced sample of [0, fences] capped at max_crash_points, first
  // and last kept (mirrors CrashExplorer::SamplePoints).
  std::vector<size_t> points;
  const size_t count = fences + 1;
  if (options_.max_crash_points == 0 || count <= options_.max_crash_points) {
    points.resize(count);
    for (size_t i = 0; i < count; ++i) {
      points[i] = i;
    }
  } else if (options_.max_crash_points == 1) {
    points.push_back(count - 1);
  } else {
    for (size_t i = 0; i < options_.max_crash_points; ++i) {
      const size_t p = i * (count - 1) / (options_.max_crash_points - 1);
      if (points.empty() || points.back() != p) {
        points.push_back(p);
      }
    }
  }
  if (points.size() < count) {
    stats_.sampled_out.fetch_add(count - points.size(), std::memory_order_relaxed);
  }

  std::vector<char> image(options_.pool_pages * kPageSize);
  for (size_t fence : points) {
    pool.MaterializeAt(fence, image.data());
    stats_.crash_points_explored.fetch_add(1, std::memory_order_relaxed);
    // Recovery always boots a DEFAULT kernel config: a recovered image must be sound
    // without the workload kernel's special (or test-only) modes.
    RemountedFs booted =
        BootImage(image.data(), options_.pool_pages, NvmMode::kFast, journals, false);
    stats_.remounts.fetch_add(1, std::memory_order_relaxed);
    if (!booted.status.ok()) {
      out.failed = true;
      out.fence = fence;
      out.what = "boot/recovery failed: " + booted.status.ToString();
      break;
    }
    Result<FsckReport> fsck = RunFsck(*booted.pool);
    stats_.fsck_runs.fetch_add(1, std::memory_order_relaxed);
    if (!fsck.ok() || !fsck->Clean()) {
      stats_.crash_fsck_failures.fetch_add(1, std::memory_order_relaxed);
      out.failed = true;
      out.fence = fence;
      out.what = fsck.ok() ? FsckFailureString(*fsck)
                           : "fsck errored: " + fsck.status().ToString();
      break;
    }
    TreeSnapshot snapshot;
    Status walk = WalkTree(*booted.fs, "/", snapshot);
    if (!walk.ok()) {
      out.failed = true;
      out.fence = fence;
      out.what = "oracle walk failed: " + walk.ToString();
      break;
    }
  }
  return out;
}

Schedule ScheduleExplorer::Minimize(const TenantScript& a, const TenantScript& b,
                                    Schedule failing) {
  // Phase 1: greedy tail truncation — steps after the damage is done are noise.
  while (!failing.empty()) {
    Schedule shorter(failing.begin(), failing.end() - 1);
    stats_.minimization_replays.fetch_add(1, std::memory_order_relaxed);
    if (!RunSchedule(a, b, shorter).failed) {
      break;
    }
    failing = std::move(shorter);
  }
  // Phase 2: preemption reduction — swap adjacent differing bits; keep a swap only if the
  // schedule still fails with strictly fewer alternations. Converges because alternations
  // strictly decrease on every accepted swap.
  bool improved = true;
  while (improved) {
    improved = false;
    const size_t current = Alternations(failing);
    for (size_t i = 0; i + 1 < failing.size(); ++i) {
      if (failing[i] == failing[i + 1]) {
        continue;
      }
      Schedule swapped = failing;
      std::swap(swapped[i], swapped[i + 1]);
      if (Alternations(swapped) >= current) {
        continue;
      }
      stats_.minimization_replays.fetch_add(1, std::memory_order_relaxed);
      if (RunSchedule(a, b, swapped).failed) {
        failing = std::move(swapped);
        improved = true;
        break;
      }
    }
  }
  return failing;
}

ScheduleFailure ScheduleExplorer::Replay(const TenantScript& a, const TenantScript& b,
                                         const Schedule& schedule) {
  ScheduleFailure verdict;
  verdict.schedule = schedule;
  verdict.baseline = IsSequentialSchedule(schedule);
  RunOutcome outcome = RunSchedule(a, b, schedule);
  if (!outcome.failed) {
    verdict.fence = SIZE_MAX - 1;
    verdict.what = "passed";
    return verdict;
  }
  verdict.fence = outcome.fence;
  verdict.what = std::move(outcome.what);
  return verdict;
}

Result<ScheduleExplorerReport> ScheduleExplorer::Explore(const TenantScript& a,
                                                         const TenantScript& b) {
  ScheduleExplorerReport report;

  std::vector<std::pair<Schedule, bool>> plan;  // schedule, is_baseline
  Schedule ab(a.size(), 0);
  ab.insert(ab.end(), b.size(), 1);
  Schedule ba(b.size(), 1);
  ba.insert(ba.end(), a.size(), 0);
  plan.emplace_back(std::move(ab), true);
  plan.emplace_back(std::move(ba), true);
  for (size_t i = 0; i < options_.schedules; ++i) {
    plan.emplace_back(GenerateSchedule(i, a.size(), b.size()), false);
  }

  for (auto& [schedule, is_baseline] : plan) {
    RunOutcome outcome = RunSchedule(a, b, schedule);
    ++report.schedules_explored;
    if (!outcome.failed) {
      continue;
    }
    ScheduleFailure failure;
    failure.baseline = is_baseline;
    failure.fence = outcome.fence;
    failure.what = std::move(outcome.what);
    if (is_baseline) {
      // A sequential failure is not an interleaving bug — minimizing preemptions away is
      // meaningless, so report it as-is.
      failure.schedule = schedule;
      TRIO_LOG(kWarn) << "BASELINE schedule " << ScheduleString(schedule)
                      << " failed: " << failure.what;
    } else {
      TRIO_LOG(kWarn) << "schedule " << ScheduleString(schedule)
                      << " failed: " << failure.what;
      if (options_.minimize) {
        failure.schedule = Minimize(a, b, schedule);
        // Re-run the minimized schedule so fence/what describe IT, not the original.
        RunOutcome minimized = RunSchedule(a, b, failure.schedule);
        if (minimized.failed) {
          failure.fence = minimized.fence;
          failure.what = std::move(minimized.what);
        }
        TRIO_LOG(kWarn) << "minimized to " << ScheduleString(failure.schedule) << " ("
                        << Alternations(failure.schedule) << " preemptions), fence "
                        << failure.fence;
      } else {
        failure.schedule = schedule;
      }
    }
    report.failures.push_back(std::move(failure));
    if (report.failures.size() >= options_.max_failing_schedules) {
      TRIO_LOG(kWarn) << "stopping after " << report.failures.size()
                      << " failing schedules (max_failing_schedules)";
      break;
    }
  }
  return report;
}

}  // namespace trio
