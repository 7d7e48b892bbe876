// The closed-loop load generator shared by every workload: client threads, latency histograms,
// failure accounting and the benchmark-side trace (spans around each call into a layer).
//
// Tracing is recorded only from these files: a Client times each call it makes into the
// file system (an FsInterface method, ArckFs::ReleaseFile, FleetWorkload::Op) while its
// current op is traced, and the op itself is the parent span. Nothing inside src/ is
// instrumented by the benchmark.

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/common/status.h"

namespace trio {
class KernelController;
}

namespace perfbench {

using trio::Status;

int64_t NowNs();

// Restricts the calling thread to `cpus`. Threads it creates afterwards inherit the set.
bool PinCurrentThread(const std::vector<int>& cpus);

// True iff every byte of [data, data + len) equals `fill`.
bool AllBytesAre(const char* data, size_t len, char fill);

// Log-linear histogram: 64 sub-buckets per power of two (bucket width < 1.6% of its
// value), fixed size, so memory does not grow with the number of samples.
class Histogram {
 public:
  void Record(uint64_t ns);
  void Merge(const Histogram& other);
  uint64_t count() const { return count_; }
  // The q-quantile, interpolated linearly inside its bucket. 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 6;
  static constexpr uint64_t kSub = 1ull << kSubBits;
  static size_t BucketOf(uint64_t v);
  static uint64_t BucketLow(size_t bucket);
  static uint64_t BucketWidth(size_t bucket);

  std::array<uint64_t, 64 * kSub> buckets_{};
  uint64_t count_ = 0;
};

// The calls a client times as spans. libfs calls are FsInterface / ArckFs entry points;
// kFleetOp is one FleetWorkload::Op, whose tenants (and their calls) the workload owns.
enum class Call : uint8_t {
  kOpen,
  kCreate,
  kRead,
  kWrite,
  kFsync,
  kClose,
  kUnlink,
  kRename,
  kStat,
  kRelease,
  kFleetOp,
  kCount,
};
inline constexpr size_t kCallKinds = static_cast<size_t>(Call::kCount);
const char* CallName(Call call);

// How the whole op's latency is classified (read_p50_us / write_p50_us). Filebench flows
// are kMixed and record their read and write steps themselves.
enum class OpKind : uint8_t { kMixed, kRead, kWrite };

struct Span {
  uint64_t op_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint8_t call = 0;  // Call, or kCallKinds for the op span itself.
  uint8_t client = 0;
};

// Outcomes and latencies of the ops that started in one reporting window. End-to-end
// figures are medians over a phase's windows, so a transient stall on the shared host
// moves one window rather than the run.
struct WindowStats {
  uint64_t ok = 0;
  uint64_t failed = 0;
  Histogram op;
  Histogram read;
  Histogram write;

  void Merge(const WindowStats& other);
};

// What one client measured over one phase.
struct ClientStats {
  explicit ClientStats(size_t windows = 1) : windows(windows) {}

  std::vector<WindowStats> windows;
  uint64_t user_bytes_written = 0;  // Bytes of acknowledged writes.
  std::map<trio::ErrorCode, std::string> first_error;  // First error of each class.
  std::vector<std::string> wrong_results;              // Output checks that failed.

  // Traced ops only.
  uint64_t traced_ok = 0;
  uint64_t traced_calls = 0;
  int64_t op_self_ns = 0;  // Op time not covered by a call span.
  std::array<Histogram, kCallKinds> calls;
  // Op starts per mode, for trace.overhead_ratio.
  uint64_t started_untraced = 0;
  uint64_t started_traced = 0;
  std::vector<Span> spans;  // Exported as Chrome trace events (capped).
};

class Workload;

class Client {
 public:
  // The client's thread runs pinned to `cpu`.
  Client(int id, uint64_t seed, int cpu) : id_(id), cpu_(cpu), rng_(seed) {}

  int id() const { return id_; }
  int cpu() const { return cpu_; }
  trio::Rng& rng() { return rng_; }
  uint64_t op_index() const { return op_index_; }
  ClientStats& stats() { return *stats_; }

  // Runs `fn` as one call into a layer; recorded as a child span of the current op when
  // the op is traced.
  template <typename Fn>
  auto Time(Call call, Fn&& fn) {
    if (!traced_) {
      return fn();
    }
    const int64_t start = NowNs();
    auto result = fn();
    EndCall(call, start);
    return result;
  }

  void set_kind(OpKind kind) { kind_ = kind; }
  void RecordRead(int64_t ns) { window_->read.Record(static_cast<uint64_t>(ns)); }
  void RecordWrite(int64_t ns) { window_->write.Record(static_cast<uint64_t>(ns)); }
  void AddWrittenBytes(uint64_t n) { stats_->user_bytes_written += n; }
  // A returned value the workload's oracle disagrees with (a correctness failure, not
  // an op failure).
  void WrongResult(const std::string& what);

  // One closed-loop op through `workload`, counted in reporting window `window`.
  void RunOne(Workload& workload, bool traced, size_t window);
  // Starts a fresh phase of `windows` reporting windows (clears the stats).
  void BeginPhase(size_t windows) {
    stats_.reset();
    stats_ = std::make_unique<ClientStats>(windows);
    window_ = &stats_->windows[0];
  }
  // Bytes of the phase's stats that are resident from the start (the zero-filled
  // histograms); the benchmark's own memory, not the file system's.
  size_t StatsBytes() const {
    return sizeof(ClientStats) + stats_->windows.capacity() * sizeof(WindowStats);
  }

 private:
  void EndCall(Call call, int64_t start);

  int id_;
  int cpu_;
  trio::Rng rng_;
  uint64_t op_index_ = 0;
  bool traced_ = false;
  OpKind kind_ = OpKind::kMixed;
  int64_t child_ns_ = 0;
  std::unique_ptr<ClientStats> stats_ = std::make_unique<ClientStats>();
  WindowStats* window_ = &stats_->windows[0];
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  virtual int clients() const = 0;
  // One line naming the configuration (recorded with every result).
  virtual std::string Describe() const = 0;
  // Format, mount and populate; timed as setup_s.
  virtual Status Setup() = 0;
  // Destroys everything Setup built (between repeated setups).
  virtual void Teardown() = 0;
  // One closed-loop op for `client`. Thread-safe across distinct clients.
  virtual Status Op(Client& client) = 0;

  virtual trio::KernelController& kernel() = 0;
  // Synchronous lease refills summed over this workload's LibFS instances.
  virtual uint64_t SyncRefills() = 0;

  // End of run: checks the acknowledged state through the file system, tears it down
  // and runs fsck on the final pool. Appends each failed check to `problems`.
  virtual void Check(std::vector<std::string>* problems) = 0;
};

// Host-wide CPU time from /proc/stat, in jiffies: {steal, total}; {0, 0} when unreadable.
// A VM's vCPUs lose time to the host; the share lost explains a window that reads slow.
std::pair<uint64_t, uint64_t> CpuJiffies();

// Wall time of one phase: per reporting window, and per trace mode.
struct PhaseTimes {
  std::vector<double> window_s;
  std::vector<double> window_steal;  // Share of all CPU time the host took, per window.
  double traced_s = 0;
  double untraced_s = 0;
};

// Runs every client closed-loop for `seconds`, split into PhaseWindows(seconds)
// reporting windows of kWindowSeconds; each client must have begun a phase of that many
// windows. With `trace`, ops alternate between traced and untraced slices of equal
// length, so both modes see the same drift over the run.
inline constexpr double kWindowSeconds = 1.0;
size_t PhaseWindows(double seconds);
PhaseTimes RunPhase(Workload& workload, std::vector<Client>& clients, double seconds,
                    bool trace);

// Writes every client's spans as Chrome trace-event JSON.
bool WriteChromeTrace(const std::string& path, std::vector<Client>& clients);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
