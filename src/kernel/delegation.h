// Opportunistic delegation v2 (§4.5), following OdinFS: per-NUMA-node pools of background
// "kernel" threads perform NVM copies on behalf of application threads, so that (a) the
// number of threads touching each NVM node stays fixed (Optane collapses under excessive
// concurrency) and (b) accesses are always node-local.
//
// v2 rebuilds the data path end to end:
//  * Batched submission: DelegationBatch splits a whole read/write at node-stripe
//    boundaries once, enqueues per-node request vectors through the ring's batch hooks,
//    and issues ONE fence per batch per node — workers Persist each chunk, and the last
//    completer of a node's share of the batch fences (amortizing sfence as OdinFS does).
//  * Spin-then-park: workers spin briefly on an empty ring, then park on a per-node
//    condition variable and are woken by submitters; waiters adaptively spin (CpuRelax)
//    and fall back to parking on a pool-level condition variable. An idle pool consumes
//    ~0 CPU.
//  * Per-node sharded stats (submitted/completed/batches/wakeups/parks/steals) replace
//    the old global counter, and idle workers steal from sibling-node rings so a skewed
//    workload does not strand capacity.
//  * DelegationConfig carries the size thresholds (reads < 32 KiB and writes < 256 B are
//    not delegated by default — the communication overhead dominates) so benchmarks can
//    sweep them.

#ifndef SRC_KERNEL_DELEGATION_H_
#define SRC_KERNEL_DELEGATION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/mpmc_ring.h"
#include "src/nvm/nvm.h"
#include "src/obs/stats.h"

namespace trio {

// Default delegation thresholds (§4.5). The live values are DelegationConfig fields.
inline constexpr size_t kDelegateReadThreshold = 32 * 1024;
inline constexpr size_t kDelegateWriteThreshold = 256;

struct DelegationConfig {
  size_t read_threshold = kDelegateReadThreshold;
  size_t write_threshold = kDelegateWriteThreshold;
  // 0 = use NumaTopology::delegation_threads_per_node.
  int threads_per_node = 0;
  // TryPop/steal rounds an idle worker spins before parking.
  uint32_t worker_spin = 2048;
  // Completion polls a waiter spins before parking.
  uint32_t waiter_spin = 4096;
  // Idle workers steal from sibling-node rings (trades node locality for utilization).
  bool steal = true;
  // A single submission of at least this many requests to one ring wakes one parked
  // worker on every other node so they can steal into the burst.
  size_t steal_wake_threshold = 64;
  // FaultSim (kFaultDelegationWorker): a chunk that faults on a worker is re-queued up to
  // this many times, with exponential spin backoff, before being completed inline on the
  // faulting thread (which bypasses further injection, so completion is guaranteed).
  uint32_t fault_max_retries = 3;
};

// Per-batch, per-node completion group. The LAST worker to finish a node's share of a
// batch issues the node's single fence; every earlier chunk only Persists.
struct BatchNodeState {
  std::atomic<uint32_t> remaining{0};
  bool fence = false;
};

struct DelegationRequest {
  enum class Op : uint8_t { kRead, kWrite } op = Op::kRead;
  char* nvm = nullptr;   // NVM-side address; must not cross a node-stripe boundary.
  char* dram = nullptr;  // Application buffer.
  uint32_t len = 0;
  bool persist = true;  // Writes: flush after the copy (fence per group, see below).
  // Batched requests share a group; standalone requests (null) fence themselves.
  BatchNodeState* group = nullptr;
  std::atomic<uint32_t>* pending = nullptr;  // Decremented on completion (after fence).
  uint16_t attempts = 0;  // Times this chunk already faulted and was re-queued (FaultSim).
};

// Sharded per-node counters; one cacheline each so nodes never bounce a counter.
// Each node's struct registers into obs::StatRegistry under layer "delegation"; the
// registry sums across nodes, so registry reads equal the Sum() accessors below.
struct alignas(64) DelegationNodeStats {
  obs::Counter submitted;
  obs::Counter completed;
  obs::Counter batches;
  obs::Counter wakeups;  // Times a parked worker was actually woken.
  obs::Counter parks;    // Times a worker went to sleep.
  obs::Counter steals;   // Requests this node's workers stole from siblings.
  // FaultSim outcomes: injected chunk failures, retries re-queued after backoff, and
  // chunks completed inline after exhausting retries (or when the ring was full).
  obs::Counter faults;
  obs::Counter fault_retries;
  obs::Counter inline_fallbacks;

  DelegationNodeStats()
      : reg_("delegation", {{"submitted", &submitted},
                            {"completed", &completed},
                            {"batches", &batches},
                            {"wakeups", &wakeups},
                            {"parks", &parks},
                            {"steals", &steals},
                            {"faults", &faults},
                            {"fault_retries", &fault_retries},
                            {"inline_fallbacks", &inline_fallbacks}}) {}

 private:
  obs::ScopedRegistration reg_;
};

class DelegationBatch;

class DelegationPool {
 public:
  DelegationPool(NvmPool& pool, DelegationConfig config = {});

  ~DelegationPool();
  DelegationPool(const DelegationPool&) = delete;
  DelegationPool& operator=(const DelegationPool&) = delete;

  // Idempotent. Wakes and joins all workers, then drains every ring inline so a Submit
  // racing with Stop can never strand a waiter: anything enqueued before the drain is
  // executed here, and Submit itself executes inline once it observes stopped.
  void Stop();

  // Submits one standalone copy targeting NVM address `nvm` (entirely within one node's
  // stripe — callers split at node boundaries, or use DelegationBatch which does). The
  // caller pre-sets `pending` and waits with Wait(). Standalone persisting writes fence
  // themselves; use DelegationBatch to amortize fences.
  void Submit(const DelegationRequest& request);

  // Adaptive wait: spins with CpuRelax, then parks until workers drive `pending` to 0.
  void Wait(std::atomic<uint32_t>& pending);

  const DelegationConfig& config() const { return config_; }
  int num_nodes() const { return num_nodes_; }
  int threads_per_node() const { return threads_per_node_; }

  // ---- Stats ----
  const DelegationNodeStats& node_stats(int node) const { return nodes_[node]->stats; }
  uint64_t submitted() const { return Sum(&DelegationNodeStats::submitted); }
  uint64_t completed() const { return Sum(&DelegationNodeStats::completed); }
  uint64_t batches() const { return Sum(&DelegationNodeStats::batches); }
  uint64_t wakeups() const { return Sum(&DelegationNodeStats::wakeups); }
  uint64_t parks() const { return Sum(&DelegationNodeStats::parks); }
  uint64_t steals() const { return Sum(&DelegationNodeStats::steals); }
  uint64_t faults() const { return Sum(&DelegationNodeStats::faults); }
  uint64_t fault_retries() const { return Sum(&DelegationNodeStats::fault_retries); }
  uint64_t inline_fallbacks() const { return Sum(&DelegationNodeStats::inline_fallbacks); }
  // Number of workers currently parked (an idle pool reports all of them).
  uint32_t parked_workers() const;

 private:
  friend class DelegationBatch;

  struct alignas(64) NodeState {
    explicit NodeState(size_t ring_capacity) : ring(ring_capacity) {}
    MpmcRing<DelegationRequest> ring;
    std::mutex mutex;
    std::condition_variable cv;
    std::atomic<uint32_t> sleepers{0};
    DelegationNodeStats stats;
  };

  uint64_t Sum(obs::Counter DelegationNodeStats::* field) const {
    uint64_t total = 0;
    for (const auto& node : nodes_) {
      total += (node->stats.*field).load(std::memory_order_relaxed);
    }
    return total;
  }

  // Enqueues `count` requests (all targeting `node`) and wakes workers. Used by both
  // Submit (count == 1) and DelegationBatch::Submit (whole per-node vectors).
  void SubmitSpan(int node, const DelegationRequest* requests, size_t count);
  // Runs one request to completion on the calling thread, attributing stats to
  // `executing_node` (== home node for workers, submitter's target for inline drains).
  void Execute(const DelegationRequest& request, int executing_node);
  void WorkerLoop(int node);
  bool TrySteal(int home);
  // Executes everything left in `node`'s ring inline (stop path).
  void DrainInline(int node);
  void WakeNode(NodeState& node, bool wake_all);
  void WakeWaiters();

  NvmPool& pool_;
  const DelegationConfig config_;
  const int num_nodes_;
  int threads_per_node_ = 0;
  // Worker-side persistence accounting (chunk persists, batch/standalone fences).
  obs::PersistStats persist_stats_{"delegation"};
  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};

  // Parked application threads waiting on batch completions (see Wait()).
  std::mutex waiter_mutex_;
  std::condition_variable waiter_cv_;
  std::atomic<uint32_t> waiters_parked_{0};
};

// Accumulates one logical read/write as per-node request vectors and submits them in one
// shot: the ring is touched once per node (batch push), parked workers are woken once,
// and each node fences exactly once per batch instead of once per 4 KiB chunk.
//
// Usage: AddWrite/AddRead any number of times, then Submit() once, then Wait(). The batch
// must outlive Wait() (requests point into it); the destructor waits if the caller forgot.
class DelegationBatch {
 public:
  explicit DelegationBatch(DelegationPool& pool);
  ~DelegationBatch();
  DelegationBatch(const DelegationBatch&) = delete;
  DelegationBatch& operator=(const DelegationBatch&) = delete;

  // Queues a copy of [src, src+len) into NVM at `nvm` (resp. out of NVM for AddRead).
  // Ranges may span node-stripe boundaries; they are split here, once, so every enqueued
  // request is node-contained.
  void AddWrite(char* nvm, const char* dram, size_t len, bool persist);
  void AddRead(char* dram, const char* nvm, size_t len);

  // Enqueues all accumulated requests. Call at most once (until Reset).
  void Submit();
  // Blocks (adaptive spin, then park) until every submitted request completed — at which
  // point each touched node has issued its single batch fence.
  void Wait();
  // Returns the batch to its pre-Add state so one object (and its vector capacity) can be
  // reused across many Submit/Wait rounds — the op-ring drainer keeps a single batch per
  // drain pass and flushes it at op boundaries that need data durable. Only legal with
  // nothing outstanding: before Submit, or after Wait.
  void Reset();

  size_t requests() const { return total_requests_; }
  int nodes_touched() const;

 private:
  void Add(DelegationRequest::Op op, char* nvm, char* dram, size_t len, bool persist);

  DelegationPool& pool_;
  std::vector<std::vector<DelegationRequest>> per_node_;
  std::vector<std::unique_ptr<BatchNodeState>> groups_;  // Stable addresses, per node.
  std::atomic<uint32_t> pending_{0};
  size_t total_requests_ = 0;
  bool submitted_ = false;
};

}  // namespace trio

#endif  // SRC_KERNEL_DELEGATION_H_
