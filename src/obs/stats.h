// The unified metrics registry (the "op spine" observability layer). Every layer of the
// stack — NvmPool, the kernel controller, the delegation pool, each LibFS — owns a stats
// struct whose fields are obs::Counter / obs::LatencyHistogram members registered into
// the process-global StatRegistry under a layer name. The registry serializes to JSON so
// every bench binary can emit a per-layer breakdown (fences, kernel crossings, bytes
// persisted) next to its throughput numbers, and tests can assert on per-layer values
// without reaching into component internals.
//
// Multiple instances of a layer (two ArckFs, eight delegation nodes) each register their
// own group; reads and the JSON snapshot sum per (layer, name). Registration happens once
// at component construction; the hot path is one relaxed increment of a cache line the
// calling thread owns (Counter below).

#ifndef SRC_OBS_STATS_H_
#define SRC_OBS_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/per_cpu.h"

namespace trio {
namespace obs {

// A relaxed event counter striped across cache lines: each thread adds into the slot its
// ThisThreadShardIndex() selects, so threads on different cores never bounce one line
// (§4.5's per-CPU structures, applied to statistics). A read sums every slot: exact once
// the writers are quiescent, and like any relaxed read it may miss in-flight updates
// while they run. Updates return nothing — no caller needs the old value, and a striped
// counter has no single one. Assignment from an integer keeps `stats.field = 0` working.
class Counter {
 public:
  static constexpr size_t kStripes = 16;

  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  uint64_t load(std::memory_order mo = std::memory_order_relaxed) const {
    uint64_t total = 0;
    for (const Stripe& stripe : stripes_) {
      total += stripe.value.load(mo);
    }
    return total;
  }
  void store(uint64_t v, std::memory_order mo = std::memory_order_relaxed) {
    for (Stripe& stripe : stripes_) {
      stripe.value.store(0, mo);
    }
    stripes_[0].value.store(v, mo);
  }
  // A slot may wrap below zero when one thread subtracts what another added; the
  // modular sum in load() is still exact.
  void fetch_add(uint64_t d, std::memory_order mo = std::memory_order_relaxed) {
    Local().fetch_add(d, mo);
  }
  void fetch_sub(uint64_t d, std::memory_order mo = std::memory_order_relaxed) {
    Local().fetch_sub(d, mo);
  }
  Counter& operator=(uint64_t v) {
    store(v);
    return *this;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };

  std::atomic<uint64_t>& Local() {
    return stripes_[ThisThreadShardIndex() % kStripes].value;
  }

  std::array<Stripe, kStripes> stripes_{};
};

// Log-binned latency histogram: Record(ns) lands in bin floor(log2(ns)) (bin 0 for 0–1ns).
// 64 bins cover the full uint64 range; recording is two relaxed fetch_adds.
class LatencyHistogram {
 public:
  static constexpr size_t kBins = 64;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t ns) {
    bins_[BinOf(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  static size_t BinOf(uint64_t ns) {
    return ns == 0 ? 0 : 63 - static_cast<size_t>(__builtin_clzll(ns));
  }
  // Inclusive upper bound of a bin (2^(bin+1) - 1).
  static uint64_t BinUpperNs(size_t bin) {
    return bin >= 63 ? ~0ull : (2ull << bin) - 1;
  }

  uint64_t BinCount(size_t bin) const {
    return bins_[bin].load(std::memory_order_relaxed);
  }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (const auto& bin : bins_) {
      total += bin.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t SumNs() const { return sum_ns_.load(std::memory_order_relaxed); }

  void Reset() {
    for (auto& bin : bins_) {
      bin.store(0, std::memory_order_relaxed);
    }
    sum_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBins> bins_{};
  std::atomic<uint64_t> sum_ns_{0};
};

// One named stat inside a registered group: exactly one of counter / histogram is set.
struct StatRef {
  const char* name = "";
  const Counter* counter = nullptr;
  const LatencyHistogram* histogram = nullptr;

  StatRef(const char* n, const Counter* c) : name(n), counter(c) {}
  StatRef(const char* n, const LatencyHistogram* h) : name(n), histogram(h) {}
};

// Process-global registry. Components register a (layer, stats) group at construction and
// unregister at destruction (via ScopedRegistration); snapshots sum per (layer, name).
class StatRegistry {
 public:
  static StatRegistry& Global();

  uint64_t Register(std::string layer, std::vector<StatRef> stats);
  void Unregister(uint64_t id);

  // Sum of counter `name` across every live group of `layer` (0 if absent).
  uint64_t CounterValue(const std::string& layer, const std::string& name) const;
  std::vector<std::string> Layers() const;

  // {"layer":{"counter":N,...,"hist":{"count":N,"sum_ns":S,"bins":{"<=UPPER":N}}},...}
  // Counters and histogram bins sum across instances of the same layer.
  std::string ToJson() const;

 private:
  struct Group {
    uint64_t id = 0;
    std::string layer;
    std::vector<StatRef> stats;
  };

  mutable std::mutex mutex_;
  std::vector<Group> groups_;
  uint64_t next_id_ = 1;
};

// RAII registration handle owned by each stats struct.
class ScopedRegistration {
 public:
  ScopedRegistration() = default;
  ScopedRegistration(std::string layer, std::vector<StatRef> stats)
      : id_(StatRegistry::Global().Register(std::move(layer), std::move(stats))) {}
  ~ScopedRegistration() { Release(); }
  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;
  ScopedRegistration(ScopedRegistration&& other) noexcept : id_(other.id_) {
    other.id_ = 0;
  }
  ScopedRegistration& operator=(ScopedRegistration&& other) noexcept {
    if (this != &other) {
      Release();
      id_ = other.id_;
      other.id_ = 0;
    }
    return *this;
  }

 private:
  void Release() {
    if (id_ != 0) {
      StatRegistry::Global().Unregister(id_);
      id_ = 0;
    }
  }
  uint64_t id_ = 0;
};

// Per-layer persistence counters fed by PersistSpan (src/obs/persist_span.h): every layer
// that issues persists owns one of these, so fence accounting is attributable per layer.
struct PersistStats {
  Counter persists;          // Persist() calls.
  Counter bytes_persisted;   // Bytes covered by those calls.
  Counter fences;            // Fences actually issued to the pool.
  Counter coalesced_fences;  // Fence() calls skipped because nothing was pending.
  Counter commit_stores;     // 8-byte atomic durable commits (CommitStore64).
  Counter deferred_fences;   // Span fences absorbed into a group-commit epoch.
  Counter epoch_fences;      // Epoch Close() fences (each covering >=1 deferral).

  explicit PersistStats(std::string layer)
      : reg_(std::move(layer),
             {{"persists", &persists},
              {"bytes_persisted", &bytes_persisted},
              {"fences", &fences},
              {"coalesced_fences", &coalesced_fences},
              {"commit_stores", &commit_stores},
              {"deferred_fences", &deferred_fences},
              {"epoch_fences", &epoch_fences}}) {}

  void Reset() {
    persists = 0;
    bytes_persisted = 0;
    fences = 0;
    coalesced_fences = 0;
    commit_stores = 0;
    deferred_fences = 0;
    epoch_fences = 0;
  }

 private:
  ScopedRegistration reg_;
};

}  // namespace obs
}  // namespace trio

#endif  // SRC_OBS_STATS_H_
