// Fleet-scale controller benchmarks: many LibFS tenants over ONE sharded kernel,
// Zipfian-shared files, with the legacy configuration (controller_shards=1,
// lockfree_lookup=off — every grant lookup funnels through one mutex, the pre-shard
// controller) as the baseline. BM_GrantLookup is the CI-gated pair: the 8-shard
// lock-free configuration must beat the 1-shard legacy one on items_per_second
// (scripts/check_bench.py fleet). BM_FleetChurn runs the full fleet op mix (Zipfian
// reads + private writes + cross-shard renames) to exercise the two-phase path under
// load and to measure the fast-hit rate. Run with --benchmark_out=BENCH_fleet.json
// --benchmark_out_format=json to track the trajectory across PRs.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/workloads/workloads.h"

namespace trio {
namespace {

constexpr size_t kPoolPages = 1 << 13;
constexpr int kTenants = 8;
constexpr int kSharedFiles = 64;

struct FleetHarness {
  explicit FleetHarness(int shards, bool use_ring = false) {
    pool = std::make_unique<NvmPool>(kPoolPages);
    FormatOptions options;
    options.max_inodes = 4096;
    TRIO_CHECK_OK(Format(*pool, options));
    KernelConfig config;
    config.controller_shards = static_cast<size_t>(shards);
    // shards == 1 is the legacy controller: one lock domain, no lock-free fast path.
    config.lockfree_lookup = shards > 1;
    kernel = std::make_unique<KernelController>(*pool, config);
    TRIO_CHECK_OK(kernel->Mount());

    FleetConfig fleet;
    fleet.tenants = kTenants;
    fleet.shared_files = kSharedFiles;
    fleet.use_ring = use_ring;  // Private writes go through SubmitBurst.
    workload = std::make_unique<FleetWorkload>(*kernel, fleet);
    TRIO_CHECK_OK(workload->Prepare());

    // Resolve the shared inos and warm every tenant's read grant, so LookupGrant has a
    // grant to revalidate (fast path when the cache is on, locked fallback when off).
    for (int f = 0; f < kSharedFiles; ++f) {
      Result<StatInfo> info =
          workload->tenant(0).Stat("/fleet_shared/f" + std::to_string(f));
      TRIO_CHECK_OK(info.status());
      shared_inos.push_back(info->ino);
    }
    for (int t = 0; t < kTenants; ++t) {
      tenant_ids.push_back(workload->tenant(t).id());
      for (int f = 0; f < kSharedFiles; ++f) {
        char byte;
        Result<Fd> fd =
            workload->tenant(t).Open("/fleet_shared/f" + std::to_string(f),
                                     OpenFlags::ReadOnly());
        TRIO_CHECK_OK(fd.status());
        TRIO_CHECK_OK(workload->tenant(t).Pread(*fd, &byte, 1, 0).status());
        TRIO_CHECK_OK(workload->tenant(t).Close(*fd));
      }
    }
  }

  std::unique_ptr<NvmPool> pool;
  std::unique_ptr<KernelController> kernel;
  std::unique_ptr<FleetWorkload> workload;
  std::vector<Ino> shared_inos;
  std::vector<LibFsId> tenant_ids;
};

FleetHarness& HarnessFor(int shards, bool use_ring = false) {
  static std::mutex mu;
  static std::map<std::pair<int, bool>, std::unique_ptr<FleetHarness>> harnesses;
  std::lock_guard<std::mutex> guard(mu);
  std::unique_ptr<FleetHarness>& slot = harnesses[{shards, use_ring}];
  if (slot == nullptr) {
    slot = std::make_unique<FleetHarness>(shards, use_ring);
  }
  return *slot;
}

// ---- The CI-gated pair: grant revalidation throughput, legacy vs sharded ----

void BM_GrantLookup(benchmark::State& state) {
  FleetHarness& harness = HarnessFor(static_cast<int>(state.range(0)));
  const int tenant = state.thread_index() % kTenants;
  Rng rng(123 + static_cast<uint64_t>(tenant));
  Zipfian zipf(kSharedFiles, 0.99);
  for (auto _ : state) {
    const uint64_t rank = zipf.Next(rng);
    Result<MapInfo> grant = harness.kernel->LookupGrant(
        harness.tenant_ids[static_cast<size_t>(tenant)], harness.shared_inos[rank]);
    if (!grant.ok()) {
      state.SkipWithError(("LookupGrant failed: " + grant.status().ToString()).c_str());
      return;
    }
    benchmark::DoNotOptimize(grant);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    KernelStats& stats = harness.kernel->stats();
    state.counters["fast_hits"] =
        static_cast<double>(stats.grant_fast_hits.load());
    state.counters["fast_misses"] =
        static_cast<double>(stats.grant_fast_misses.load());
    state.counters["lock_contended"] =
        static_cast<double>(stats.shard_lock_contended.load());
  }
}
BENCHMARK(BM_GrantLookup)
    ->ArgNames({"shards"})
    ->Arg(1)
    ->Arg(8)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

// ---- Full fleet mix: Zipfian reads + private writes + cross-shard renames ----

void BM_FleetChurn(benchmark::State& state) {
  const bool use_ring = state.range(1) != 0;
  FleetHarness& harness = HarnessFor(static_cast<int>(state.range(0)), use_ring);
  const int tenant = state.thread_index() % kTenants;
  uint64_t i = 0;
  for (auto _ : state) {
    Status status = harness.workload->Op(tenant, i++);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    KernelStats& stats = harness.kernel->stats();
    state.counters["cross_shard_acquires"] =
        static_cast<double>(stats.cross_shard_acquires.load());
    if (use_ring) {
      // Ring-path liveness: private writes must actually flow through the rings.
      uint64_t sqes = 0;
      for (int t = 0; t < kTenants; ++t) {
        OpRingEngine* ring = harness.workload->tenant(t).ring_engine();
        if (ring != nullptr) {
          sqes += ring->stats().submitted.load();
        }
      }
      state.counters["ring_sqes"] = static_cast<double>(sqes);
    }
  }
}
BENCHMARK(BM_FleetChurn)
    ->ArgNames({"shards", "ring"})
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Threads(4)
    ->UseRealTime();

}  // namespace

}  // namespace trio

int main(int argc, char** argv) {
  // Construct the clock singleton BEFORE the static harness map: function-local statics
  // die in reverse construction order, so a clock born inside harness construction would
  // be destroyed first and harness teardown would call NowNs() through a dead vtable
  // ("pure virtual method called" at exit).
  trio::SystemClock::Instance();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
