// End-to-end and per-layer metrics. End-to-end metrics come from the benchmark's own
// timings; per-layer metrics come from the benchmark's spans and from deltas of the
// counters the program registers in obs::StatRegistry, read while every component is
// still alive (a destroyed component drops its registration, and a delta across that
// would wrap).

#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // Latency samples or base count behind the value (0 = n/a).
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

double Median(std::vector<double> values);  // 0 when empty.

// Registry counters plus the few layer readings the registry does not hold.
struct Snapshot {
  std::map<std::string, uint64_t> counters;  // "layer.name"
  std::array<uint64_t, 64> syscall_bins{};   // kernel.syscall_latency (log2 ns bins)
  uint64_t sync_refills = 0;
  double nvm_occupancy = 0;  // Of the absorb tier; 0 when the workload has none.
};
Snapshot TakeSnapshot(Workload& workload);

// Every client's stats of one timed phase, merged window by window.
struct PhaseTotals {
  PhaseTimes times;
  ClientStats stats;
  WindowStats all;  // Every window merged.

  double seconds() const { return times.traced_s + times.untraced_s; }
};
PhaseTotals MergeClients(std::vector<Client>& clients, const PhaseTimes& times);

// The reporting windows the end-to-end medians use. A window in which the host took
// more than kMaxWindowSteal of all CPU time measures the hypervisor rather than the
// program, and is left out; when fewer than a quarter of the windows are under that
// share, the quarter with the least steal is used instead.
inline constexpr double kMaxWindowSteal = 0.05;
inline constexpr size_t kMinUsableWindowsDivisor = 4;
std::vector<bool> UsableWindows(const PhaseTimes& times);

// ops_per_s and the op/read/write latency percentiles, each the median over the
// phase's usable reporting windows, and write_amp over the whole phase. The caller adds
// peak_rss_mib and setup_s, measured outside the timed phase.
//
// The tail is p95, not p99: on a 4-vCPU VM the p99 follows the host's scheduling (a
// delegation worker's or a client's wake-up) and settles at a different level from run
// to run, while the p95 stays steady. The p99 is still printed, with its sample count.
Metrics EndToEndMetrics(const PhaseTotals& totals, const Snapshot& before,
                        const Snapshot& after);

Metrics PerLayerMetrics(const PhaseTotals& totals, const Snapshot& before,
                        const Snapshot& after);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_
