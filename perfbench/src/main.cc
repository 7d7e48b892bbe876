// arckfs_bench: runs one workload for a fixed time and prints its metrics; perfbench/run.py
// builds it and passes the arguments through. The last line of stdout is the result:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {"<name>": {"value": V, "unit": U}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
//
// Policy, the same on every run: Release build, NvmMode::kFast, no NvmCostModel (device
// work shows as nvm.* counts, not modeled time), ArckFsConfig::sync_data, op rings off,
// the default 8 controller shards.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/workloads.h"
#include "src/common/clock.h"
#include "src/kernel/controller.h"

namespace perfbench {
namespace {

// Each run sets up this many times and reports the median (setup_s).
constexpr int kSetups = 11;
// Closed-loop ops before the timed phase, so lease caches, the promote cache and the
// file sets reach their steady state.
constexpr double kWarmupS = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "varmail") {
    return MakeVarmail(seed);
  }
  if (name == "fileserver") {
    return MakeFileserver(seed);
  }
  if (name == "fleet") {
    return MakeFleet(seed);
  }
  if (name == "tier") {
    return MakeTier();
  }
  return nullptr;
}

std::string Number(double v) {
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

// Starts a fresh peak-memory measurement: resets the kernel's high-water mark to the
// current RSS.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

// The process's resident-memory high-water mark (VmHWM), in MiB.
double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  double kib = 0;
  char line[256];
  while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  if (f != nullptr) {
    std::fclose(f);
  }
  return kib / 1024.0;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (int cpu : cpus) {
    out += (out.empty() ? "" : ",") + std::to_string(cpu);
  }
  return out;
}

int Run(const Args& args) {
  for (const char* var : {"TRIO_RING_ENABLE", "TRIO_RING_DEPTH"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set (op rings are pinned off)\n",
                   var);
      return 2;
    }
  }
  // Construct the clock singleton before any component that reads it, so it outlives
  // them all.
  trio::SystemClock::Instance();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Controlled placement: client c runs on a CPU of its own, and the program's threads
  // (delegation workers, digestion, lease refill; all created during setup, so they
  // inherit this thread's set) on the CPUs left over, or on every CPU when none are.
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.empty()) {
    std::fprintf(stderr, "perfbench: cannot read the CPU affinity set\n");
    return 1;
  }
  const size_t client_count = static_cast<size_t>(workload->clients());
  std::vector<int> client_cpus;
  for (size_t c = 0; c < client_count; ++c) {
    client_cpus.push_back(cpus[c % cpus.size()]);
  }
  std::vector<int> program_cpus(cpus.begin() + std::min(client_count, cpus.size()), cpus.end());
  if (program_cpus.empty()) {
    program_cpus = cpus;
  }
  if (!PinCurrentThread(program_cpus)) {
    std::printf("note: cannot pin threads; the placement below is not in force\n");
  }

  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const int64_t start = NowNs();
    const Status status = workload->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", status.ToString().c_str());
    }
    return status.ok();
  };
  // The measured instance is the first one set up: instances set up and torn down
  // before it would leave freed heap behind, and how much of that the run touches again
  // varies from run to run. The other set-ups are timed after the run.
  if (!timed_setup()) {
    return 1;
  }
  trio::KernelController& kernel = workload->kernel();
  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n", workload->name(),
              static_cast<unsigned long long>(args.seed), Number(args.seconds).c_str(),
              args.trace ? 1 : 0);
  std::printf("host nproc=%ld affinity_cpus=%zu build_type=%s placement clients=cpu%s "
              "program=cpu%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpus.size(), PERFBENCH_BUILD_TYPE,
              CpuList(client_cpus).c_str(), CpuList(program_cpus).c_str());
  std::printf("policy nvm_mode=%s nvm_cost_model=%s sync_data=1 op_rings=off "
              "controller_shards=%zu closed_loop=1 warmup_s=%s\n",
              kernel.pool().mode() == trio::NvmMode::kFast ? "kFast" : "kTracking",
              kernel.pool().cost_model().enabled() ? "on" : "off", kernel.shard_count(),
              Number(kWarmupS).c_str());
  std::printf("workload %s\n", workload->Describe().c_str());

  std::vector<Client> clients;
  for (int c = 0; c < workload->clients(); ++c) {
    clients.emplace_back(c, args.seed * 1000003ull + static_cast<uint64_t>(c),
                         client_cpus[static_cast<size_t>(c)]);
  }
  for (Client& client : clients) {
    client.BeginPhase(PhaseWindows(kWarmupS));
  }
  RunPhase(*workload, clients, kWarmupS, /*trace=*/false);
  // The timed phase's stats are allocated (and resident) before the peak-memory
  // measurement starts, and subtracted from it below.
  size_t stats_bytes = 0;
  for (Client& client : clients) {
    client.BeginPhase(PhaseWindows(args.seconds));
    stats_bytes += client.StatsBytes();
  }
  if (!ResetPeakRss()) {
    std::printf("note: cannot reset the RSS high-water mark; peak_rss_mib covers setup too\n");
  }
  const Snapshot before = TakeSnapshot(*workload);
  const std::pair<uint64_t, uint64_t> cpu_before = CpuJiffies();
  const PhaseTimes times = RunPhase(*workload, clients, args.seconds, args.trace);
  const std::pair<uint64_t, uint64_t> cpu_after = CpuJiffies();
  const Snapshot after = TakeSnapshot(*workload);
  // The simulated backend keeps every page ever digested in process memory; it stands
  // in for a disk, so its media bytes are not counted as memory of the file system, nor
  // are the benchmark's own stats.
  const double peak_rss =
      PeakRssMib() -
      static_cast<double>(after.counters.at("tier.backend_bytes_written") + stats_bytes) /
          (1 << 20);
  const PhaseTotals totals = MergeClients(clients, times);

  std::vector<std::string> problems = totals.stats.wrong_results;
  // No op of a workload may fail: a failure is a defect of the program, so it fails the
  // run (its first message per status class is printed below).
  if (totals.all.failed > 0) {
    problems.push_back(std::to_string(totals.all.failed) + " of " +
                       std::to_string(totals.all.ok + totals.all.failed) + " ops failed");
  }
  workload->Check(&problems);
  for (int i = 1; i < kSetups; ++i) {
    if (!timed_setup()) {
      return 1;
    }
    workload->Teardown();
  }

  Metrics metrics;
  if (args.trace) {
    metrics = PerLayerMetrics(totals, before, after);
  } else {
    metrics = EndToEndMetrics(totals, before, after);
    metrics.push_back({"peak_rss_mib", {peak_rss, "MiB", 0}});
    metrics.push_back({"setup_s", {Median(setup_s), "s", setup_s.size()}});
  }

  const WindowStats& all = totals.all;
  const uint64_t attempted = all.ok + all.failed;
  std::printf("setup_s samples:");
  for (double v : setup_s) {
    std::printf(" %s", Number(v).c_str());
  }
  std::printf("\nops attempted=%llu ok=%llu failed=%llu fail_ratio=%s (ratio)\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(all.ok),
              static_cast<unsigned long long>(all.failed),
              Number(attempted > 0 ? static_cast<double>(all.failed) / attempted : 0).c_str());
  const std::vector<bool> usable = UsableWindows(times);
  std::printf("windows %zu, used by the medians %zu (left out: host steal over %s, or all "
              "but the least-stolen quarter)\nsteal per window:",
              usable.size(), static_cast<size_t>(std::count(usable.begin(), usable.end(), true)),
              Number(kMaxWindowSteal).c_str());
  for (double steal : times.window_steal) {
    std::printf(" %.3f", steal);
  }
  std::printf("\nops/s per window:");
  for (size_t w = 0; w < times.window_s.size(); ++w) {
    std::printf(" %.0f", times.window_s[w] > 0 ? totals.stats.windows[w].ok / times.window_s[w]
                                                 : 0.0);
  }
  const uint64_t total_jiffies = cpu_after.second - cpu_before.second;
  std::printf("\nhost cpu_steal=%s (share of all CPU time lost to the hypervisor in the timed "
              "phase)\n",
              Number(total_jiffies > 0
                         ? static_cast<double>(cpu_after.first - cpu_before.first) / total_jiffies
                         : 0)
                  .c_str());
  for (const auto& [code, message] : totals.stats.first_error) {
    std::printf("first error [%s]: %s\n", trio::ErrorCodeName(code), message.c_str());
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("metric %-36s %-14s %s", name.c_str(), Number(metric.value).c_str(),
                metric.unit.c_str());
    if (metric.samples > 0) {
      std::printf("  (n=%llu)", static_cast<unsigned long long>(metric.samples));
    }
    std::printf("\n");
  }
  if (!args.trace) {
    std::printf("tail op_p99_us %s us over the whole phase (n=%llu, not gated: see metrics.h)\n",
                Number(all.op.Quantile(0.99) / 1e3).c_str(),
                static_cast<unsigned long long>(all.op.count()));
  }
  if (args.trace && !args.trace_out.empty()) {
    if (WriteChromeTrace(args.trace_out, clients)) {
      std::printf("trace written to %s\n", args.trace_out.c_str());
    } else {
      problems.push_back("cannot write trace to " + args.trace_out);
    }
  }
  for (const std::string& problem : problems) {
    std::printf("CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("correctness: %s\n", problems.empty() ? "ok" : "FAILED");

  std::string json = std::string("{\"correct\": ") + (problems.empty() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(all.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
            Number(metrics[i].second.value) + ", \"unit\": \"" + metrics[i].second.unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Line-buffered, so the lines before an abort inside the program reach a pipe.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: arckfs_bench --workload varmail|fileserver|fleet|tier --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
