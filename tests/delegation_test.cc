// Delegation v2 tests (§4.5): batched submission with one fence per batch per node,
// node-routing correctness, spin-then-park workers and waiters (no lost wakeups, no
// busy-spin when idle), work stealing, and stop/drain semantics with inflight requests.

#include "src/kernel/delegation.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/nvm/nvm.h"
#include "src/sim/fault_injector.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

NumaTopology Topo(int nodes, int threads_per_node) {
  NumaTopology topo;
  topo.num_nodes = nodes;
  topo.delegation_threads_per_node = threads_per_node;
  return topo;
}

// Tiny spin budgets so tests reach the park path quickly.
DelegationConfig FastParkConfig() {
  DelegationConfig config;
  config.worker_spin = 64;
  config.waiter_spin = 64;
  return config;
}

// Polls until all workers are parked (or the deadline passes); returns success.
bool WaitForAllParked(const DelegationPool& delegation, uint32_t expected,
                      std::chrono::milliseconds deadline = std::chrono::seconds(10)) {
  const auto start = std::chrono::steady_clock::now();
  while (delegation.parked_workers() != expected) {
    if (std::chrono::steady_clock::now() - start > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

TEST(DelegationTest, StandaloneWriteLandsAndPersists) {
  NvmPool pool(32, NvmMode::kFast, Topo(2, 1));
  DelegationPool delegation(pool);

  char buf[256];
  std::memset(buf, 0x5a, sizeof(buf));
  std::atomic<uint32_t> pending{1};
  DelegationRequest req;
  req.op = DelegationRequest::Op::kWrite;
  req.nvm = pool.PageAddress(20);  // Node 1.
  req.dram = buf;
  req.len = sizeof(buf);
  req.pending = &pending;
  delegation.Submit(req);
  delegation.Wait(pending);
  EXPECT_EQ(std::memcmp(pool.PageAddress(20), buf, sizeof(buf)), 0);
  EXPECT_EQ(delegation.submitted(), 1u);
  EXPECT_EQ(delegation.completed(), 1u);
}

TEST(DelegationTest, StandaloneReadRoundTrip) {
  NvmPool pool(16, NvmMode::kFast, Topo(1, 2));
  DelegationPool delegation(pool);

  const char payload[] = "delegated read payload";
  std::memcpy(pool.PageAddress(3), payload, sizeof(payload));
  char out[sizeof(payload)] = {};
  std::atomic<uint32_t> pending{1};
  DelegationRequest req;
  req.op = DelegationRequest::Op::kRead;
  req.nvm = pool.PageAddress(3);
  req.dram = out;
  req.len = sizeof(payload);
  req.pending = &pending;
  delegation.Submit(req);
  delegation.Wait(pending);
  EXPECT_STREQ(out, payload);
}

TEST(DelegationTest, BatchSplitsAtNodeStripeBoundaries) {
  NvmPool pool(64, NvmMode::kFast, Topo(4, 1));
  DelegationPool delegation(pool);
  const size_t stripe = pool.NodeStripeBytes();
  ASSERT_EQ(stripe, 16 * kPageSize);

  // 2.5 stripes starting at the base: must split into exactly 3 node-contained requests.
  const size_t len = 2 * stripe + stripe / 2;
  std::vector<char> src(len);
  for (size_t i = 0; i < len; ++i) {
    src[i] = static_cast<char>(i * 31);
  }
  DelegationBatch batch(delegation);
  batch.AddWrite(pool.base(), src.data(), len, /*persist=*/true);
  EXPECT_EQ(batch.requests(), 3u);
  EXPECT_EQ(batch.nodes_touched(), 3);
  batch.Submit();
  batch.Wait();
  EXPECT_EQ(std::memcmp(pool.base(), src.data(), len), 0);
}

TEST(DelegationTest, OneFencePerBatchPerNode) {
  NvmPool pool(64, NvmMode::kFast, Topo(4, 1));
  DelegationPool delegation(pool);
  const size_t stripe = pool.NodeStripeBytes();

  // A batched operation of `len` bytes starting at a stripe boundary touches
  // ceil(len / stripe) nodes and must fence exactly once on each — even when every node
  // receives many chunks.
  for (size_t stripes = 1; stripes <= 4; ++stripes) {
    const size_t len = stripes * stripe;
    std::vector<char> src(len, 'f');
    pool.stats().Reset();
    DelegationBatch batch(delegation);
    // Feed page-sized chunks, the way ArckFS's write loop does.
    for (size_t off = 0; off < len; off += kPageSize) {
      batch.AddWrite(pool.base() + off, src.data() + off, kPageSize, /*persist=*/true);
    }
    EXPECT_EQ(batch.requests(), len / kPageSize);
    batch.Submit();
    batch.Wait();
    const uint64_t expected = (len + stripe - 1) / stripe;  // == stripes
    EXPECT_EQ(pool.stats().fences.load(), expected)
        << "batched delegation must fence once per node per batch (" << stripes
        << " stripes)";
  }

  // The pre-batch behavior for contrast: standalone chunks fence once per chunk.
  pool.stats().Reset();
  std::vector<char> src(stripe, 'g');
  std::atomic<uint32_t> pending{0};
  const size_t chunks = stripe / kPageSize;
  pending.store(static_cast<uint32_t>(chunks));
  for (size_t off = 0; off < stripe; off += kPageSize) {
    DelegationRequest req;
    req.op = DelegationRequest::Op::kWrite;
    req.nvm = pool.base() + off;
    req.dram = src.data() + off;
    req.len = kPageSize;
    req.pending = &pending;
    delegation.Submit(req);
  }
  delegation.Wait(pending);
  EXPECT_EQ(pool.stats().fences.load(), chunks);
}

TEST(DelegationTest, BatchedWriteIsDurableInTrackingMode) {
  // End-to-end ordering check: after Wait(), every chunk's lines reached the persisted
  // image (the per-node fence ran after all of that node's persists).
  NvmPool pool(32, NvmMode::kTracking, Topo(2, 2));
  DelegationPool delegation(pool);
  const size_t stripe = pool.NodeStripeBytes();
  std::vector<char> src(3 * kPageSize, 'd');
  DelegationBatch batch(delegation);
  for (int node = 0; node < 2; ++node) {
    batch.AddWrite(pool.base() + node * stripe, src.data(), src.size(), /*persist=*/true);
  }
  batch.Submit();
  batch.Wait();
  EXPECT_EQ(pool.UnpersistedLineCount(), 0u);
  pool.SimulateCrash();  // Strictest mode: only fenced lines survive.
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(std::memcmp(pool.base() + node * stripe, src.data(), src.size()), 0)
        << "node " << node << " lost batched data across a crash";
  }
}

TEST(DelegationTest, NodeRoutingCorrectness) {
  DelegationConfig config = FastParkConfig();
  config.steal = false;  // Deterministic routing: completions stay on the home node.
  NvmPool pool(64, NvmMode::kFast, Topo(4, 1));
  DelegationPool delegation(pool, config);
  const size_t stripe = pool.NodeStripeBytes();

  std::vector<char> src(kPageSize, 'r');
  const int per_node[] = {5, 0, 3, 7};
  for (int node = 0; node < 4; ++node) {
    for (int i = 0; i < per_node[node]; ++i) {
      DelegationBatch batch(delegation);
      batch.AddWrite(pool.base() + node * stripe + i * kPageSize, src.data(), kPageSize,
                     true);
      batch.Submit();
      batch.Wait();
    }
  }
  for (int node = 0; node < 4; ++node) {
    EXPECT_EQ(delegation.node_stats(node).submitted.load(),
              static_cast<uint64_t>(per_node[node]))
        << "node " << node;
    EXPECT_EQ(delegation.node_stats(node).completed.load(),
              static_cast<uint64_t>(per_node[node]))
        << "node " << node;
    EXPECT_EQ(delegation.node_stats(node).batches.load(),
              static_cast<uint64_t>(per_node[node]))
        << "node " << node;
  }
}

TEST(DelegationTest, ConcurrentBatchSubmitDrainFromEightThreads) {
  NvmPool pool(1 << 10, NvmMode::kFast, Topo(4, 2));
  DelegationPool delegation(pool);
  const size_t stripe = pool.NodeStripeBytes();
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  // Each thread owns 4 pages per node and repeatedly writes a recognizable pattern.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<char> buf(4 * kPageSize * 4);
      for (int round = 0; round < kRounds; ++round) {
        std::memset(buf.data(), (t * 16 + round) & 0x7f, buf.size());
        DelegationBatch batch(delegation);
        size_t src_off = 0;
        for (int node = 0; node < 4; ++node) {
          char* dst = pool.base() + node * stripe + static_cast<size_t>(t) * 4 * kPageSize;
          batch.AddWrite(dst, buf.data() + src_off, 4 * kPageSize, /*persist=*/true);
          src_off += 4 * kPageSize;
        }
        batch.Submit();
        batch.Wait();
        // The batch completed: the thread's pages hold exactly this round's byte.
        for (int node = 0; node < 4; ++node) {
          const char* dst =
              pool.base() + node * stripe + static_cast<size_t>(t) * 4 * kPageSize;
          ASSERT_EQ(dst[0], static_cast<char>((t * 16 + round) & 0x7f));
          ASSERT_EQ(dst[4 * kPageSize - 1], static_cast<char>((t * 16 + round) & 0x7f));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(delegation.submitted(), delegation.completed());
  EXPECT_EQ(delegation.completed(), static_cast<uint64_t>(kThreads) * kRounds * 4);
}

TEST(DelegationTest, IdlePoolParksAllWorkersAndWakeupsStayFlat) {
  NvmPool pool(64, NvmMode::kFast, Topo(2, 2));
  DelegationPool delegation(pool, FastParkConfig());
  const uint32_t total_workers = 2 * 2;

  ASSERT_TRUE(WaitForAllParked(delegation, total_workers))
      << "idle workers must park, not busy-spin";
  const uint64_t wakeups_before = delegation.wakeups();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(delegation.wakeups(), wakeups_before)
      << "an idle pool must not wake (or spin) at all";
  EXPECT_EQ(delegation.parked_workers(), total_workers);

  // And parked workers must wake for new work: no lost wakeup.
  std::vector<char> src(kPageSize, 'w');
  DelegationBatch batch(delegation);
  batch.AddWrite(pool.base(), src.data(), kPageSize, true);
  batch.Submit();
  batch.Wait();
  EXPECT_EQ(std::memcmp(pool.base(), src.data(), kPageSize), 0);
  EXPECT_GE(delegation.wakeups(), wakeups_before + 1);
}

TEST(DelegationTest, ParkWakeStressNoLostWakeup) {
  NvmPool pool(64, NvmMode::kFast, Topo(2, 1));
  DelegationPool delegation(pool, FastParkConfig());
  std::vector<char> src(256, 's');
  for (int i = 0; i < 100; ++i) {
    // Let every worker park, then submit: the submission must always complete.
    ASSERT_TRUE(WaitForAllParked(delegation, 2)) << "iteration " << i;
    DelegationBatch batch(delegation);
    batch.AddWrite(pool.base() + (i % 16) * kPageSize, src.data(), src.size(), true);
    batch.Submit();
    batch.Wait();
  }
  EXPECT_EQ(delegation.completed(), 100u);
  EXPECT_GE(delegation.parks(), 100u);
}

TEST(DelegationTest, WorkStealingDrainsSkewedLoad) {
  DelegationConfig config = FastParkConfig();
  config.steal = true;
  config.steal_wake_threshold = 8;
  NvmPool pool(1 << 10, NvmMode::kFast, Topo(2, 1));
  FaultInjector injector;  // Nothing armed: only its Stall() is used.
  pool.set_fault_injector(&injector);
  DelegationPool delegation(pool, config);
  const size_t stripe = pool.NodeStripeBytes();
  ASSERT_TRUE(WaitForAllParked(delegation, 2));

  // Everything targets node 0. Every worker blocks at its first fault check, so node 0's
  // worker holds at most one pop batch and the rest of the burst stays queued until the
  // woken node-1 worker steals from it — however the threads are scheduled.
  std::vector<char> src(kPageSize, 'z');
  DelegationBatch batch(delegation);
  for (int i = 0; i < 256; ++i) {
    batch.AddWrite(pool.base() + (i % static_cast<int>(stripe / kPageSize)) * kPageSize,
                   src.data(), kPageSize, true);
  }
  {
    std::unique_lock<std::mutex> stall = injector.Stall();
    batch.Submit();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (delegation.node_stats(1).steals.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  batch.Wait();
  EXPECT_GT(delegation.node_stats(1).steals.load(), 0u)
      << "the idle node-1 worker never stole from node 0's backlog";
  EXPECT_EQ(delegation.submitted(), delegation.completed());
}

TEST(DelegationTest, StopWithInflightRequestsNeverStrandsWaiter) {
  for (int round = 0; round < 10; ++round) {
    NvmPool pool(1 << 10, NvmMode::kFast, Topo(2, 1));
    DelegationPool delegation(pool, FastParkConfig());
    std::vector<char> src(kPageSize, 'q');
    DelegationBatch batch(delegation);
    for (int i = 0; i < 128; ++i) {
      batch.AddWrite(pool.base() + i * kPageSize, src.data(), kPageSize, true);
    }
    batch.Submit();
    delegation.Stop();  // Races the workers; drain semantics must complete everything.
    batch.Wait();       // Must not hang.
    EXPECT_EQ(delegation.completed(), 128u);
    for (int i = 0; i < 128; ++i) {
      ASSERT_EQ(pool.base()[i * kPageSize], 'q') << "request " << i << " dropped";
    }
  }
}

TEST(DelegationTest, SubmitAfterStopExecutesInline) {
  NvmPool pool(32, NvmMode::kFast, Topo(2, 1));
  DelegationPool delegation(pool);
  delegation.Stop();

  char buf[128];
  std::memset(buf, 0x7e, sizeof(buf));
  std::atomic<uint32_t> pending{1};
  DelegationRequest req;
  req.op = DelegationRequest::Op::kWrite;
  req.nvm = pool.PageAddress(4);
  req.dram = buf;
  req.len = sizeof(buf);
  req.pending = &pending;
  delegation.Submit(req);  // No workers left: must run on this thread.
  delegation.Wait(pending);
  EXPECT_EQ(std::memcmp(pool.PageAddress(4), buf, sizeof(buf)), 0);
  EXPECT_EQ(delegation.completed(), 1u);

  // Batches after stop complete inline too.
  DelegationBatch batch(delegation);
  batch.AddWrite(pool.PageAddress(5), buf, sizeof(buf), true);
  batch.Submit();
  batch.Wait();
  EXPECT_EQ(std::memcmp(pool.PageAddress(5), buf, sizeof(buf)), 0);
}

TEST(DelegationTest, StopIsIdempotent) {
  NvmPool pool(16);
  DelegationPool delegation(pool, FastParkConfig());
  delegation.Stop();
  delegation.Stop();
}

TEST(DelegationFaultTest, WorkerFaultRetriesAndCompletes) {
  NvmPool pool(32, NvmMode::kFast, Topo(2, 1));
  FaultInjector injector(TestSeed());
  injector.Arm(kFaultDelegationWorker, FaultPolicy::Once());
  pool.set_fault_injector(&injector);
  DelegationPool delegation(pool);

  char buf[256];
  std::memset(buf, 0x3c, sizeof(buf));
  std::atomic<uint32_t> pending{1};
  DelegationRequest req;
  req.op = DelegationRequest::Op::kWrite;
  req.nvm = pool.PageAddress(4);
  req.dram = buf;
  req.len = sizeof(buf);
  req.pending = &pending;
  delegation.Submit(req);
  delegation.Wait(pending);  // The faulted chunk must still complete (via retry).
  EXPECT_EQ(std::memcmp(pool.PageAddress(4), buf, sizeof(buf)), 0);
  EXPECT_EQ(delegation.faults(), 1u);
  EXPECT_EQ(delegation.fault_retries(), 1u);
  EXPECT_EQ(delegation.inline_fallbacks(), 0u);
  EXPECT_EQ(delegation.completed(), 1u);
}

TEST(DelegationFaultTest, PersistentWorkerFaultFallsBackInline) {
  NvmPool pool(32, NvmMode::kFast, Topo(2, 1));
  FaultInjector injector(TestSeed());
  injector.Arm(kFaultDelegationWorker, FaultPolicy::Always());
  pool.set_fault_injector(&injector);
  DelegationConfig config;
  config.fault_max_retries = 2;
  DelegationPool delegation(pool, config);

  char buf[512];
  std::memset(buf, 0x6d, sizeof(buf));
  std::atomic<uint32_t> pending{1};
  DelegationRequest req;
  req.op = DelegationRequest::Op::kWrite;
  req.nvm = pool.PageAddress(20);
  req.dram = buf;
  req.len = sizeof(buf);
  req.pending = &pending;
  delegation.Submit(req);
  delegation.Wait(pending);  // Retries exhaust, then the inline fallback completes it.
  EXPECT_EQ(std::memcmp(pool.PageAddress(20), buf, sizeof(buf)), 0);
  EXPECT_EQ(delegation.faults(), 3u);  // Initial attempt + 2 retries, all faulted.
  EXPECT_EQ(delegation.fault_retries(), 2u);
  EXPECT_EQ(delegation.inline_fallbacks(), 1u);
  EXPECT_EQ(delegation.completed(), 1u);
}

TEST(DelegationFaultTest, BatchWithWorkerFaultsStillCompletesAndPersists) {
  NvmPool pool(64, NvmMode::kTracking, Topo(2, 2));
  FaultInjector injector(TestSeed());
  injector.Arm(kFaultDelegationWorker, FaultPolicy::EveryN(3));
  pool.set_fault_injector(&injector);
  DelegationPool delegation(pool);

  const size_t stripe = pool.NodeStripeBytes();
  std::vector<char> src(4 * kPageSize, 'F');
  DelegationBatch batch(delegation);
  // One AddWrite per page: 8 node-contained requests, so EveryN(3) faults several of
  // them (a batch share below kMaxRequestBytes is otherwise a single request).
  for (int node = 0; node < 2; ++node) {
    for (size_t page = 0; page < 4; ++page) {
      batch.AddWrite(pool.base() + node * stripe + page * kPageSize,
                     src.data() + page * kPageSize, kPageSize, /*persist=*/true);
    }
  }
  batch.Submit();
  batch.Wait();
  EXPECT_GT(delegation.faults(), 0u);
  EXPECT_EQ(pool.UnpersistedLineCount(), 0u)
      << "faulted chunks must still persist before the batch reports done";
  pool.SimulateCrash();
  for (int node = 0; node < 2; ++node) {
    EXPECT_EQ(std::memcmp(pool.base() + node * stripe, src.data(), src.size()), 0)
        << "node " << node;
  }
}

TEST(DelegationTest, ConcurrentStandaloneSubmitsFromManyThreads) {
  NvmPool pool(64, NvmMode::kFast, Topo(2, 2));
  DelegationPool delegation(pool);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::array<char, 64> buf;
      buf.fill(static_cast<char>(t + 1));
      std::atomic<uint32_t> pending{0};
      for (int i = 0; i < kPerThread; ++i) {
        pending.store(1, std::memory_order_relaxed);
        DelegationRequest req;
        req.op = DelegationRequest::Op::kWrite;
        req.nvm = pool.PageAddress(1 + (t * kPerThread + i) % 60) + t * 64;
        req.dram = buf.data();
        req.len = 64;
        req.pending = &pending;
        delegation.Submit(req);
        delegation.Wait(pending);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(delegation.submitted(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(delegation.completed(), delegation.submitted());
}

}  // namespace
}  // namespace trio
