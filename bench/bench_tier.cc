// Absorb-tier benchmarks: datasets larger than NVM, with background digestion to the
// simulated slow backend and the LibFS promote cache faulting hot pages back in.
//
// The CI-gated pair (scripts/check_bench.py tier):
//   BM_TierSyncWrite mode:1 (absorb tier, dataset 4x NVM) must stay within 1.25x of
//     mode:0 (NVM-only, dataset fits) on items_per_second — syncs always land in NVM,
//     so a dataset that outgrows NVM must not slow the sync path down. Digestion must
//     also be live (digest_pages > 0), or the "absorb" run silently degenerates into an
//     overcommitted NVM-only run.
//   BM_TierHotRead threads:1 must serve >= 90% of its tier lookups from the promote
//     cache (promote_hits / (promote_hits + promote_misses), deltas over the timed
//     run). Reads are Zipfian(0.99) over a hot set strided across the whole 4x dataset
//     — every hot page lives behind a tier entry, so a dead cache fails loudly. A
//     Zipfian over ALL dataset pages cannot concentrate 90% of its mass inside any
//     NVM-sized fast set at bench scale (top-k mass grows like ln k / ln N), so the hot
//     set models the hot-working-set-within-cold-archive shape the absorb tier exists
//     for; hot_rate additionally reports the all-reads no-backend-fault fraction.
//
// mode:2 is the Strata-like baseline point (userspace log + synchronous digestion to a
// kernel FS): its sync path pays log append + digestion stalls, the shape the absorb
// tier exists to avoid. Reported for comparison, not gated.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/baselines/fs_factory.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/sim/backend.h"
#include "src/workloads/workloads.h"

namespace trio {
namespace {

constexpr size_t kPoolPages = 1 << 12;  // 16 MiB of emulated NVM.
constexpr uint64_t kFilePages = 64;     // 256 KiB per dataset file.
// Absorb-tier dataset: 4x the NVM pool (the ISSUE's >=4x capacity point). NVM-only and
// Strata keep a dataset that fits, because without the tier it has to.
constexpr int kTierFiles = 256;   // 16384 data pages = 4x kPoolPages.
constexpr int kSmallFiles = 24;   // 1536 data pages, comfortably NVM-resident.
constexpr size_t kIoSize = kPageSize;
// Hot-read set: 2048 pages strided across the dataset (every 8th page), so the hot set
// touches every file but is 8x larger than nothing — half of NVM, 1/8 of the dataset.
constexpr uint64_t kDatasetPages = static_cast<uint64_t>(kTierFiles) * kFilePages;
constexpr uint64_t kHotPages = 2048;
constexpr uint64_t kHotStride = kDatasetPages / kHotPages;

enum TierMode { kNvmOnly = 0, kAbsorb = 1, kStrata = 2 };

std::string DataPath(int file) { return "/tier/f" + std::to_string(file); }

Status FillFile(FsInterface& fs, const std::string& path, uint64_t pages) {
  TRIO_ASSIGN_OR_RETURN(Fd fd, fs.Open(path, OpenFlags::CreateRw()));
  const std::string block(kIoSize, 'T');
  for (uint64_t p = 0; p < pages; ++p) {
    Result<size_t> n = fs.Pwrite(fd, block.data(), block.size(), p * kPageSize);
    if (!n.ok()) {
      (void)fs.Close(fd);
      return n.status();
    }
  }
  return fs.Close(fd);
}

struct TierHarness {
  explicit TierHarness(TierMode mode) : mode(mode) {
    if (mode == kStrata) {
      // The factory's kernel-FS layout needs a bigger pool than the 16 MiB tier pools;
      // capacity parity is irrelevant for this point — only the log+digest sync path is.
      strata = MakeFs("Strata", FsFactoryOptions{});
      fs_raw = strata.fs.get();
    } else {
      pool = std::make_unique<NvmPool>(kPoolPages);
      FormatOptions format;
      format.max_inodes = 4096;
      TRIO_CHECK_OK(Format(*pool, format));
      KernelConfig config;
      if (mode == kAbsorb) {
        backend = std::make_unique<SlowBackend>(
            BackendCostModel{/*read_ns_per_page=*/1500, /*write_ns_per_page=*/3000});
        config.tier.backend = backend.get();
        config.tier.high_watermark = 0.55;
        config.tier.low_watermark = 0.35;
        config.tier.batch_pages = 64;
        config.tier.start_digestion = true;
        config.tier.scan_interval_ms = 1;
      }
      kernel = std::make_unique<KernelController>(*pool, config);
      TRIO_CHECK_OK(kernel->Mount());
      ArckFsConfig fs_config;
      if (mode == kAbsorb) {
        fs_config.promote_cache_slots = 1536;  // 6 MiB of NVM re-used as promote cache.
      }
      arckfs = std::make_unique<ArckFs>(*kernel, fs_config);
      fs_raw = arckfs.get();
    }

    FsInterface& fs = *fs_raw;
    const int files = mode == kAbsorb ? kTierFiles : kSmallFiles;
    TRIO_CHECK_OK(fs.Mkdir("/tier"));
    if (arckfs != nullptr) {
      // Register /tier with the kernel: per-file releases below commit the PARENT to
      // reconcile the new child, which is a no-op while the kernel has no record of the
      // directory itself — and unreconciled files are invisible to digestion.
      TRIO_CHECK_OK(arckfs->Commit("/tier"));
    }
    for (int f = 0; f < files; ++f) {
      TRIO_CHECK_OK(FillFile(fs, DataPath(f), kFilePages));
      if (arckfs != nullptr) {
        // Unmap so the file becomes digestible (digestion skips mapped files).
        TRIO_CHECK_OK(arckfs->ReleaseFile(DataPath(f)));
      }
    }
    (void)fs.Mkdir("/work");
    TRIO_CHECK_OK(FillFile(fs, "/work/sync", kFilePages));
    if (mode == kAbsorb) {
      // Drain to the low watermark before timing anything, so the bench starts from the
      // steady state the background thread maintains (instead of mid-stall).
      while (kernel->NvmOccupancy() > config_low_watermark() &&
             kernel->DigestNow(64) > 0) {
      }
      WarmPromoteCache();
    }
  }

  // Pre-populate the promote cache with the Zipfian hot set, so every timed run
  // measures steady-state hit rate instead of compulsory cold misses.
  void WarmPromoteCache() {
    Rng rng(7);
    Zipfian zipf(kHotPages, 0.99);
    std::vector<char> buffer(kIoSize);
    for (int i = 0; i < 30000; ++i) {
      const uint64_t global = zipf.Next(rng) * kHotStride;
      const int file = static_cast<int>(global / kFilePages);
      const uint64_t offset = (global % kFilePages) * kPageSize;
      Result<Fd> fd = arckfs->Open(DataPath(file), OpenFlags::ReadOnly());
      TRIO_CHECK_OK(fd.status());
      TRIO_CHECK_OK(arckfs->Pread(*fd, buffer.data(), buffer.size(), offset).status());
      TRIO_CHECK_OK(arckfs->Close(*fd));
    }
  }

  static double config_low_watermark() { return 0.35; }

  TierMode mode;
  std::unique_ptr<NvmPool> pool;
  std::unique_ptr<SlowBackend> backend;
  std::unique_ptr<KernelController> kernel;
  std::unique_ptr<ArckFs> arckfs;
  FsInstance strata;        // kStrata only.
  FsInterface* fs_raw = nullptr;
};

TierHarness& HarnessFor(TierMode mode) {
  static std::mutex mu;
  static std::map<int, std::unique_ptr<TierHarness>> harnesses;
  std::lock_guard<std::mutex> guard(mu);
  std::unique_ptr<TierHarness>& slot = harnesses[mode];
  if (slot == nullptr) {
    slot = std::make_unique<TierHarness>(mode);
  }
  return *slot;
}

// ---- Gated: sync-path latency must not notice the oversized dataset ----

void BM_TierSyncWrite(benchmark::State& state) {
  TierHarness& harness = HarnessFor(static_cast<TierMode>(state.range(0)));
  FsInterface& fs = *harness.fs_raw;
  Result<Fd> fd = fs.Open("/work/sync", OpenFlags::ReadWrite());
  if (!fd.ok()) {
    state.SkipWithError(("open failed: " + fd.status().ToString()).c_str());
    return;
  }
  Rng rng(41 + static_cast<uint64_t>(state.thread_index()));
  const std::string block(kIoSize, 'S');
  for (auto _ : state) {
    const uint64_t offset = rng.Below(kFilePages) * kPageSize;
    Result<size_t> n = fs.Pwrite(*fd, block.data(), block.size(), offset);
    Status synced = n.ok() ? fs.Fsync(*fd) : n.status();
    if (!synced.ok()) {
      state.SkipWithError(("sync write failed: " + synced.ToString()).c_str());
      (void)fs.Close(*fd);
      return;
    }
  }
  (void)fs.Close(*fd);
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0 && harness.kernel != nullptr) {
    KernelTierStats& tier = harness.kernel->tier_stats();
    state.counters["digest_pages"] = static_cast<double>(tier.digest_pages.load());
    state.counters["watermark_stalls"] =
        static_cast<double>(tier.watermark_stalls.load());
    state.counters["occupancy"] = harness.kernel->NvmOccupancy();
  }
}
BENCHMARK(BM_TierSyncWrite)
    ->ArgNames({"mode"})
    ->Arg(kNvmOnly)
    ->Arg(kAbsorb)
    ->Arg(kStrata)
    ->UseRealTime();

// ---- Gated: hot Zipfian reads over the 4x dataset stay off the backend ----

void BM_TierHotRead(benchmark::State& state) {
  TierHarness& harness = HarnessFor(kAbsorb);
  ArckFs& fs = *harness.arckfs;
  PromoteCacheStats& cache = fs.promote_cache().stats();
  Rng rng(97 + static_cast<uint64_t>(state.thread_index()));
  Zipfian zipf(kHotPages, 0.99);
  std::vector<char> buffer(kIoSize);
  const uint64_t miss0 = cache.promote_misses.load();
  const uint64_t hit0 = cache.promote_hits.load();
  uint64_t reads = 0;
  for (auto _ : state) {
    const uint64_t global = zipf.Next(rng) * kHotStride;
    const int file = static_cast<int>(global / kFilePages);
    const uint64_t offset = (global % kFilePages) * kPageSize;
    Result<Fd> fd = fs.Open(DataPath(file), OpenFlags::ReadOnly());
    Result<size_t> n =
        fd.ok() ? fs.Pread(*fd, buffer.data(), buffer.size(), offset) : fd.status();
    Status closed = fd.ok() ? fs.Close(*fd) : OkStatus();
    if (!n.ok() || !closed.ok()) {
      state.SkipWithError(("hot read failed: " + n.status().ToString()).c_str());
      return;
    }
    ++reads;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0 && reads > 0) {
    // Deltas over this run only. hit_rate is the gated promote-cache hit rate among
    // tier lookups; hot_rate is the all-reads fraction that never faulted to the
    // backend (NVM-resident pages count too).
    const double misses = static_cast<double>(cache.promote_misses.load() - miss0);
    const double hits = static_cast<double>(cache.promote_hits.load() - hit0);
    state.counters["promote_hits"] = hits;
    state.counters["promote_misses"] = misses;
    state.counters["hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    state.counters["hot_rate"] = 1.0 - misses / static_cast<double>(reads);
  }
}
BENCHMARK(BM_TierHotRead)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace

void PrintTierSummary() {
  TierHarness& harness = HarnessFor(kAbsorb);
  KernelTierStats& tier = harness.kernel->tier_stats();
  PromoteCacheStats& cache = harness.arckfs->promote_cache().stats();
  bench::Table table("Absorb tier (dataset 4x NVM, Zipfian 0.99 reads)");
  table.SetHeader({"metric", "value"});
  auto row = [&](const char* name, uint64_t v) {
    table.AddRow({name, std::to_string(v)});
  };
  row("digest_batches", tier.digest_batches.load());
  row("digest_pages", tier.digest_pages.load());
  row("watermark_stalls", tier.watermark_stalls.load());
  row("promote_reads(kernel)", tier.promote_reads.load());
  row("promote_hits", cache.promote_hits.load());
  row("promote_misses", cache.promote_misses.load());
  row("promote_evictions", cache.promote_evictions.load());
  row("backend_slots_owned", harness.backend->OwnedSlotCount());
  char occupancy[32];
  std::snprintf(occupancy, sizeof(occupancy), "%.3f", harness.kernel->NvmOccupancy());
  table.AddRow({"nvm_occupancy", occupancy});
  table.Print();
}

}  // namespace trio

int main(int argc, char** argv) {
  // Construct the clock singleton BEFORE any static harness: function-local statics die
  // in reverse construction order, so a clock born inside harness construction would be
  // destroyed first and teardown would call NowNs() through a dead vtable.
  trio::SystemClock::Instance();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  trio::PrintTierSummary();
  return 0;
}
