#include "perfbench/src/metrics.h"

#include <algorithm>

#include "src/kernel/controller.h"
#include "src/obs/stats.h"

namespace perfbench {
namespace {

// The registry counters the per-layer metrics are derived from.
constexpr std::pair<const char*, const char*> kCounters[] = {
    {"kernel", "syscalls"},
    {"kernel", "maps"},
    {"kernel", "unmaps"},
    {"kernel", "verifications"},
    {"kernel", "verify_failures"},
    {"kernel", "revocations"},
    {"kernel", "callback_timeouts"},
    {"kernel", "forced_releases"},
    {"kernel", "files_quarantined"},
    {"kernel", "grant_fast_hits"},
    {"kernel", "grant_fast_misses"},
    {"kernel", "shard_lock_contended"},
    {"kernel", "cross_shard_acquires"},
    {"kernel", "map_ns"},
    {"kernel", "unmap_ns"},
    {"kernel", "verify_ns"},
    {"kernel", "checkpoint_ns"},
    {"libfs", "rebuilds"},
    {"libfs", "revocations"},
    {"nvm", "fences"},
    {"nvm", "lines_flushed"},
    {"nvm", "bytes_written"},
    {"nvm", "bytes_read"},
    {"delegation", "submitted"},
    {"delegation", "batches"},
    {"delegation", "wakeups"},
    {"delegation", "parks"},
    {"delegation", "steals"},
    {"delegation", "inline_fallbacks"},
    {"tier", "promote_hits"},
    {"tier", "promote_misses"},
    {"tier", "promote_evictions"},
    {"tier", "promote_reads"},
    {"tier", "digest_pages"},
    {"tier", "digest_batches"},
    {"tier", "watermark_stalls"},
    {"tier", "backend_pages_written"},
    {"tier", "backend_bytes_written"},
};

// Quantile of a log2-binned histogram delta (bin b holds [2^b, 2^(b+1)) ns), linear
// inside the bin.
double Log2Quantile(const std::array<uint64_t, 64>& bins, double q) {
  uint64_t total = 0;
  for (uint64_t n : bins) {
    total += n;
  }
  if (total == 0) {
    return 0;
  }
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (size_t b = 0; b < bins.size(); ++b) {
    const double n = static_cast<double>(bins[b]);
    if (n > 0 && seen + n >= rank) {
      const double low = b == 0 ? 0.0 : static_cast<double>(1ull << b);
      const double high = static_cast<double>(2ull << b);
      return low + (rank - seen) / n * (high - low);
    }
    seen += n;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Snapshot TakeSnapshot(Workload& workload) {
  Snapshot snap;
  const trio::obs::StatRegistry& registry = trio::obs::StatRegistry::Global();
  for (const auto& [layer, name] : kCounters) {
    snap.counters[std::string(layer) + "." + name] = registry.CounterValue(layer, name);
  }
  trio::KernelController& kernel = workload.kernel();
  for (size_t b = 0; b < snap.syscall_bins.size(); ++b) {
    snap.syscall_bins[b] = kernel.stats().syscall_latency.BinCount(b);
  }
  snap.sync_refills = workload.SyncRefills();
  snap.nvm_occupancy = kernel.backend() != nullptr ? kernel.NvmOccupancy() : 0.0;
  return snap;
}

PhaseTotals MergeClients(std::vector<Client>& clients, const PhaseTimes& times) {
  PhaseTotals totals;
  totals.times = times;
  ClientStats& all = totals.stats;
  all.windows.assign(times.window_s.size(), WindowStats{});
  for (Client& client : clients) {
    const ClientStats& s = client.stats();
    for (size_t w = 0; w < all.windows.size(); ++w) {
      all.windows[w].Merge(s.windows[w]);
      totals.all.Merge(s.windows[w]);
    }
    all.user_bytes_written += s.user_bytes_written;
    for (const auto& [code, message] : s.first_error) {
      all.first_error.try_emplace(code, message);
    }
    all.wrong_results.insert(all.wrong_results.end(), s.wrong_results.begin(),
                             s.wrong_results.end());
    all.traced_ok += s.traced_ok;
    all.traced_calls += s.traced_calls;
    all.op_self_ns += s.op_self_ns;
    for (size_t c = 0; c < kCallKinds; ++c) {
      all.calls[c].Merge(s.calls[c]);
    }
    all.started_traced += s.started_traced;
    all.started_untraced += s.started_untraced;
  }
  return totals;
}

std::vector<bool> UsableWindows(const PhaseTimes& times) {
  const std::vector<double>& steal = times.window_steal;
  std::vector<bool> usable(steal.size());
  size_t count = 0;
  for (size_t w = 0; w < steal.size(); ++w) {
    usable[w] = steal[w] <= kMaxWindowSteal;
    count += usable[w] ? 1 : 0;
  }
  const size_t least = (steal.size() + kMinUsableWindowsDivisor - 1) / kMinUsableWindowsDivisor;
  if (count >= least) {
    return usable;
  }
  std::vector<size_t> order(steal.size());
  for (size_t w = 0; w < order.size(); ++w) {
    order[w] = w;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  for (size_t i = 0; i < order.size(); ++i) {
    usable[order[i]] = i < least;
  }
  return usable;
}

Metrics EndToEndMetrics(const PhaseTotals& totals, const Snapshot& before,
                        const Snapshot& after) {
  const ClientStats& s = totals.stats;
  const WindowStats& all = totals.all;
  auto delta = [&](const char* key) {
    return static_cast<double>(after.counters.at(key) - before.counters.at(key));
  };
  // Median over the usable windows of a per-window figure; windows without samples (a
  // partial last window, a kind of op that did not occur) are skipped.
  const std::vector<bool> usable = UsableWindows(totals.times);
  auto median_of = [&](auto per_window) {
    std::vector<double> values;
    for (size_t w = 0; w < s.windows.size(); ++w) {
      if (!usable[w]) {
        continue;
      }
      const double v = per_window(s.windows[w], totals.times.window_s[w]);
      if (v > 0) {
        values.push_back(v);
      }
    }
    return Median(values);
  };
  auto rate = [](const WindowStats& ws, double secs) {
    return secs >= kWindowSeconds / 2 ? static_cast<double>(ws.ok) / secs : 0.0;
  };
  auto p = [](Histogram WindowStats::*h, double q) {
    return [h, q](const WindowStats& ws, double) { return (ws.*h).Quantile(q) / 1e3; };
  };
  const double device_bytes = delta("nvm.bytes_written") + delta("tier.backend_bytes_written");
  return {
      {"ops_per_s", {median_of(rate), "1/s", all.ok}},
      {"op_p50_us", {median_of(p(&WindowStats::op, 0.5)), "us", all.op.count()}},
      {"op_p95_us", {median_of(p(&WindowStats::op, 0.95)), "us", all.op.count()}},
      {"read_p50_us", {median_of(p(&WindowStats::read, 0.5)), "us", all.read.count()}},
      {"write_p50_us", {median_of(p(&WindowStats::write, 0.5)), "us", all.write.count()}},
      {"write_amp",
       {Ratio(device_bytes, static_cast<double>(s.user_bytes_written)), "ratio",
        s.user_bytes_written}},
  };
}

Metrics PerLayerMetrics(const PhaseTotals& totals, const Snapshot& before,
                        const Snapshot& after) {
  const ClientStats& s = totals.stats;
  const double ops = static_cast<double>(totals.all.ok);
  const uint64_t base = totals.all.ok;
  auto delta = [&](const char* key) {
    return static_cast<double>(after.counters.at(key) - before.counters.at(key));
  };
  auto per_op =[&](const char* key) { return Ratio(delta(key), ops); };
  auto per_kop = [&](const char* key) { return 1e3 * Ratio(delta(key), ops); };
  auto us_per_op = [&](const char* key) { return Ratio(delta(key), ops) / 1e3; };
  auto call_p50 = [&](Call call) {
    const Histogram& h = s.calls[static_cast<size_t>(call)];
    return Metric{h.Quantile(0.5) / 1e3, "us", h.count()};
  };

  uint64_t libfs_calls = 0;
  for (size_t c = 0; c < kCallKinds; ++c) {
    if (c != static_cast<size_t>(Call::kFleetOp)) {
      libfs_calls += s.calls[c].count();
    }
  }
  std::array<uint64_t, 64> syscall_bins{};
  for (size_t b = 0; b < syscall_bins.size(); ++b) {
    syscall_bins[b] = after.syscall_bins[b] - before.syscall_bins[b];
  }
  uint64_t syscall_samples = 0;
  for (uint64_t n : syscall_bins) {
    syscall_samples += n;
  }
  const double grant_lookups = delta("kernel.grant_fast_hits") + delta("kernel.grant_fast_misses");
  const double promote_lookups = delta("tier.promote_hits") + delta("tier.promote_misses");
  const double traced_rate =
      Ratio(static_cast<double>(s.started_traced), totals.times.traced_s);
  const double untraced_rate =
      Ratio(static_cast<double>(s.started_untraced), totals.times.untraced_s);
  const double traced_ops = static_cast<double>(s.traced_ok);

  return {
      {"libfs.open_p50_us", call_p50(Call::kOpen)},
      {"libfs.create_p50_us", call_p50(Call::kCreate)},
      {"libfs.read_p50_us", call_p50(Call::kRead)},
      {"libfs.write_p50_us", call_p50(Call::kWrite)},
      {"libfs.fsync_p50_us", call_p50(Call::kFsync)},
      {"libfs.close_p50_us", call_p50(Call::kClose)},
      {"libfs.unlink_p50_us", call_p50(Call::kUnlink)},
      {"libfs.rename_p50_us", call_p50(Call::kRename)},
      {"libfs.stat_p50_us", call_p50(Call::kStat)},
      {"libfs.release_p50_us", call_p50(Call::kRelease)},
      {"libfs.calls_per_op",
       {Ratio(static_cast<double>(libfs_calls), traced_ops), "1/op", s.traced_ok}},
      {"libfs.sync_refills_per_kop",
       {1e3 * Ratio(static_cast<double>(after.sync_refills - before.sync_refills), ops),
        "1/kop", base}},
      {"libfs.rebuilds_per_kop", {per_kop("libfs.rebuilds"), "1/kop", base}},
      {"libfs.revocations_per_kop", {per_kop("libfs.revocations"), "1/kop", base}},

      {"kernel.syscalls_per_op", {per_op("kernel.syscalls"), "1/op", base}},
      {"kernel.syscall_p50_us", {Log2Quantile(syscall_bins, 0.5) / 1e3, "us", syscall_samples}},
      {"kernel.syscall_p99_us", {Log2Quantile(syscall_bins, 0.99) / 1e3, "us", syscall_samples}},
      {"kernel.map_us_per_op", {us_per_op("kernel.map_ns"), "us/op", base}},
      {"kernel.unmap_us_per_op", {us_per_op("kernel.unmap_ns"), "us/op", base}},
      {"kernel.grant_fast_hit_ratio",
       {Ratio(delta("kernel.grant_fast_hits"), grant_lookups), "ratio",
        static_cast<uint64_t>(grant_lookups)}},
      {"kernel.grant_lookups", {grant_lookups, "count", 0}},
      {"kernel.shard_lock_contended_per_kop",
       {per_kop("kernel.shard_lock_contended"), "1/kop", base}},
      {"kernel.cross_shard_acquires_per_kop",
       {per_kop("kernel.cross_shard_acquires"), "1/kop", base}},
      {"kernel.revocations_per_kop", {per_kop("kernel.revocations"), "1/kop", base}},
      {"kernel.forced_releases", {delta("kernel.forced_releases"), "count", 0}},
      {"kernel.callback_timeouts", {delta("kernel.callback_timeouts"), "count", 0}},

      {"verifier.verify_us_per_op", {us_per_op("kernel.verify_ns"), "us/op", base}},
      {"verifier.checkpoint_us_per_op", {us_per_op("kernel.checkpoint_ns"), "us/op", base}},
      {"verifier.verifications_per_kop", {per_kop("kernel.verifications"), "1/kop", base}},
      {"verifier.verify_failures", {delta("kernel.verify_failures"), "count", 0}},
      {"verifier.files_quarantined", {delta("kernel.files_quarantined"), "count", 0}},

      {"nvm.fences_per_op", {per_op("nvm.fences"), "1/op", base}},
      {"nvm.lines_flushed_per_op", {per_op("nvm.lines_flushed"), "1/op", base}},
      {"nvm.bytes_written_per_op", {per_op("nvm.bytes_written"), "B/op", base}},
      {"nvm.bytes_read_per_op", {per_op("nvm.bytes_read"), "B/op", base}},

      {"delegation.submitted_per_op", {per_op("delegation.submitted"), "1/op", base}},
      {"delegation.batches_per_op", {per_op("delegation.batches"), "1/op", base}},
      {"delegation.wakeups_per_kop", {per_kop("delegation.wakeups"), "1/kop", base}},
      {"delegation.parks_per_kop", {per_kop("delegation.parks"), "1/kop", base}},
      {"delegation.steals_per_kop", {per_kop("delegation.steals"), "1/kop", base}},
      {"delegation.inline_fallbacks", {delta("delegation.inline_fallbacks"), "count", 0}},

      {"tier.promote_hit_ratio",
       {Ratio(delta("tier.promote_hits"), promote_lookups), "ratio",
        static_cast<uint64_t>(promote_lookups)}},
      {"tier.promote_lookups", {promote_lookups, "count", 0}},
      {"tier.promote_reads_per_kop", {per_kop("tier.promote_reads"), "1/kop", base}},
      {"tier.promote_evictions_per_kop", {per_kop("tier.promote_evictions"), "1/kop", base}},
      {"tier.digest_pages_per_s", {Ratio(delta("tier.digest_pages"), totals.seconds()), "1/s", 0}},
      {"tier.digest_batches", {delta("tier.digest_batches"), "count", 0}},
      {"tier.watermark_stalls_per_kop", {per_kop("tier.watermark_stalls"), "1/kop", base}},
      {"tier.backend_pages_written_per_op",
       {per_op("tier.backend_pages_written"), "1/op", base}},
      {"tier.nvm_occupancy", {after.nvm_occupancy, "ratio", 0}},

      {"driver.self_us_per_op",
       {Ratio(static_cast<double>(s.op_self_ns), traced_ops) / 1e3, "us/op", s.traced_ok}},
      {"driver.ops", {ops, "count", 0}},
      {"trace.overhead_ratio", {Ratio(traced_rate, untraced_rate), "ratio", s.started_traced}},
      {"trace.untraced_ops_per_s", {untraced_rate, "1/s", s.started_untraced}},
  };
}

}  // namespace perfbench
