#include "perfbench/src/harness.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "src/common/logging.h"

namespace perfbench {
namespace {

// Spans kept per client for the exported trace; later spans still feed the histograms.
constexpr size_t kMaxSpansPerClient = 1 << 15;
// Traced and untraced slices alternate at this period, so drift over a run (fileset
// churn, digestion cycles) lands on both modes alike.
constexpr double kTraceSliceS = 0.05;

}  // namespace

void WindowStats::Merge(const WindowStats& other) {
  ok += other.ok;
  failed += other.failed;
  op.Merge(other.op);
  read.Merge(other.read);
  write.Merge(other.write);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

bool AllBytesAre(const char* data, size_t len, char fill) {
  return len == 0 || (data[0] == fill && std::memcmp(data, data + 1, len - 1) == 0);
}

size_t Histogram::BucketOf(uint64_t v) {
  if (v < kSub) {
    return static_cast<size_t>(v);
  }
  const int exponent = 63 - __builtin_clzll(v);
  const int shift = exponent - kSubBits;
  const uint64_t sub = (v >> shift) - kSub;
  return static_cast<size_t>((exponent - kSubBits + 1) * kSub + sub);
}

uint64_t Histogram::BucketLow(size_t bucket) {
  if (bucket < kSub) {
    return bucket;
  }
  const size_t group = bucket / kSub;
  return (kSub + bucket % kSub) << (group - 1);
}

uint64_t Histogram::BucketWidth(size_t bucket) {
  return bucket < kSub ? 1 : 1ull << (bucket / kSub - 1);
}

void Histogram::Record(uint64_t ns) {
  ++buckets_[BucketOf(ns)];
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  for (size_t b = 0; b < buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(count_);
  double seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    const double n = static_cast<double>(buckets_[b]);
    if (n > 0 && seen + n >= rank) {
      const double within = (rank - seen) / n;
      return static_cast<double>(BucketLow(b)) + within * static_cast<double>(BucketWidth(b));
    }
    seen += n;
  }
  return static_cast<double>(BucketLow(buckets_.size() - 1));
}

const char* CallName(Call call) {
  switch (call) {
    case Call::kOpen:
      return "open";
    case Call::kCreate:
      return "create";
    case Call::kRead:
      return "read";
    case Call::kWrite:
      return "write";
    case Call::kFsync:
      return "fsync";
    case Call::kClose:
      return "close";
    case Call::kUnlink:
      return "unlink";
    case Call::kRename:
      return "rename";
    case Call::kStat:
      return "stat";
    case Call::kRelease:
      return "release";
    case Call::kFleetOp:
      return "fleet_op";
    case Call::kCount:
      break;
  }
  return "?";
}

void Client::WrongResult(const std::string& what) {
  if (stats_->wrong_results.size() < 8) {
    stats_->wrong_results.push_back(what);
  }
}

void Client::EndCall(Call call, int64_t start) {
  const int64_t end = NowNs();
  child_ns_ += end - start;
  ClientStats& s = *stats_;
  s.calls[static_cast<size_t>(call)].Record(static_cast<uint64_t>(end - start));
  ++s.traced_calls;
  if (s.spans.size() < kMaxSpansPerClient) {
    s.spans.push_back(Span{(static_cast<uint64_t>(id_) << 48) | op_index_, start, end,
                           static_cast<uint8_t>(call), static_cast<uint8_t>(id_)});
  }
}

void Client::RunOne(Workload& workload, bool traced, size_t window) {
  traced_ = traced;
  kind_ = OpKind::kMixed;
  child_ns_ = 0;
  ClientStats& s = *stats_;
  window_ = &s.windows[window];
  ++(traced ? s.started_traced : s.started_untraced);
  const int64_t start = NowNs();
  const Status status = workload.Op(*this);
  const int64_t end = NowNs();
  const uint64_t op_id = (static_cast<uint64_t>(id_) << 48) | op_index_;
  ++op_index_;
  if (!status.ok()) {
    ++window_->failed;
    s.first_error.try_emplace(status.code(), status.ToString());
    return;
  }
  ++window_->ok;
  const uint64_t ns = static_cast<uint64_t>(end - start);
  window_->op.Record(ns);
  if (kind_ == OpKind::kRead) {
    window_->read.Record(ns);
  } else if (kind_ == OpKind::kWrite) {
    window_->write.Record(ns);
  }
  if (traced) {
    ++s.traced_ok;
    s.op_self_ns += (end - start) - child_ns_;
    if (s.spans.size() < kMaxSpansPerClient) {
      s.spans.push_back(Span{op_id, start, end, static_cast<uint8_t>(kCallKinds),
                             static_cast<uint8_t>(id_)});
    }
  }
}

std::pair<uint64_t, uint64_t> CpuJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  unsigned long long v[8] = {};
  const bool read = f != nullptr && std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                                                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                                                &v[6], &v[7]) == 8;
  if (f != nullptr) {
    std::fclose(f);
  }
  uint64_t total = 0;
  for (unsigned long long x : v) {
    total += x;
  }
  return read ? std::pair<uint64_t, uint64_t>{v[7], total} : std::pair<uint64_t, uint64_t>{0, 0};
}

size_t PhaseWindows(double seconds) {
  const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
  const int64_t phase_ns = static_cast<int64_t>(seconds * 1e9);
  return static_cast<size_t>(std::max<int64_t>(1, (phase_ns + window_ns - 1) / window_ns));
}

PhaseTimes RunPhase(Workload& workload, std::vector<Client>& clients, double seconds,
                    bool trace) {
  const int64_t window_ns = static_cast<int64_t>(kWindowSeconds * 1e9);
  const int64_t slice_ns = static_cast<int64_t>(kTraceSliceS * 1e9);
  const int64_t phase_ns = static_cast<int64_t>(seconds * 1e9);
  const size_t windows = PhaseWindows(seconds);
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::atomic<size_t> window{0};
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (Client& client : clients) {
    TRIO_CHECK(client.stats().windows.size() == windows) << "client did not begin the phase";
    threads.emplace_back([&workload, &client, &stop, &traced, &window] {
      PinCurrentThread({client.cpu()});
      while (!stop.load(std::memory_order_relaxed)) {
        client.RunOne(workload, traced.load(std::memory_order_relaxed),
                      window.load(std::memory_order_relaxed));
      }
    });
  }
  PhaseTimes times;
  times.window_s.assign(windows, 0.0);
  std::vector<std::pair<uint64_t, uint64_t>> window_jiffies(windows);
  std::pair<uint64_t, uint64_t> last_jiffies = CpuJiffies();
  const int64_t begin = NowNs();
  const int64_t deadline = begin + phase_ns;
  int64_t last = begin;
  int64_t next_window = begin + window_ns;
  int64_t next_slice = begin + slice_ns;
  while (true) {
    const int64_t next = trace ? std::min({deadline, next_window, next_slice})
                               : std::min(deadline, next_window);
    const int64_t now = NowNs();
    if (now < next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      continue;
    }
    const double elapsed = static_cast<double>(now - last) / 1e9;
    last = now;
    times.window_s[window.load()] += elapsed;
    const std::pair<uint64_t, uint64_t> jiffies = CpuJiffies();
    window_jiffies[window.load()].first += jiffies.first - last_jiffies.first;
    window_jiffies[window.load()].second += jiffies.second - last_jiffies.second;
    last_jiffies = jiffies;
    (traced.load() ? times.traced_s : times.untraced_s) += elapsed;
    if (now >= deadline) {
      break;
    }
    if (now >= next_window) {
      next_window += window_ns;
      if (window.load() + 1 < windows) {
        window.store(window.load() + 1);
      }
    }
    if (trace && now >= next_slice) {
      next_slice += slice_ns;
      traced.store(!traced.load());
    }
  }
  stop.store(true);
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const auto& [steal, total] : window_jiffies) {
    times.window_steal.push_back(total > 0 ? static_cast<double>(steal) / total : 0.0);
  }
  return times;
}

bool WriteChromeTrace(const std::string& path, std::vector<Client>& clients) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  int64_t origin = INT64_MAX;
  for (Client& client : clients) {
    for (const Span& span : client.stats().spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  bool first = true;
  for (Client& client : clients) {
    for (const Span& span : client.stats().spans) {
      const bool is_op = span.call == kCallKinds;
      const char* name = is_op ? "op" : CallName(static_cast<Call>(span.call));
      const char* category = "libfs";
      if (is_op) {
        category = "op";
      } else if (span.call == static_cast<uint8_t>(Call::kFleetOp)) {
        category = "workload";
      }
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"%s\":%llu}}",
                   first ? "" : ",", name, category, static_cast<unsigned>(span.client),
                   static_cast<double>(span.start_ns - origin) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   is_op ? "op" : "parent_op", static_cast<unsigned long long>(span.op_id));
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
