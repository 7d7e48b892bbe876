// FaultSim: a unified fault-injection subsystem. Components expose named fault points
// (compile-time string constants below); tests arm a point with a firing policy and attach
// the injector to the component under test. Every hot path guards the injection check
// behind a null-pointer test, so an unattached injector costs one branch.
//
// Wired-in fault points:
//   kFaultNvmTornPersist    NvmPool::Persist — a multi-line flush loses a non-empty subset
//                           of its cachelines (the clwb never happens; the lines stay
//                           dirty and are lost if a crash comes before a later flush).
//   kFaultNvmBitFlip        NvmPool::Fence — one line being committed takes a single-bit
//                           media error, in both the live and persisted images.
//   kFaultDelegationWorker  DelegationPool::Execute — a worker's chunk copy fails; the
//                           pool retries with backoff, then completes inline.
//   kFaultKernelLeakOnRevokedTransfer
//                           KernelController::ApplyReport — a write session torn down in
//                           answer to a revoke leaks one of the file's pages back onto
//                           the free list (a planted cross-tenant double reference the
//                           schedule explorer must find).
//
// Firing decisions and the random stream are deterministic from the constructor seed, so
// any failure a fault-injection test finds is replayable from the logged seed.

#ifndef SRC_SIM_FAULT_INJECTOR_H_
#define SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "src/common/random.h"

namespace trio {

inline constexpr const char kFaultNvmTornPersist[] = "nvm.torn_persist";
inline constexpr const char kFaultNvmBitFlip[] = "nvm.bitflip";
inline constexpr const char kFaultDelegationWorker[] = "delegation.worker_fault";
inline constexpr const char kFaultKernelLeakOnRevokedTransfer[] =
    "kernel.leak_on_revoked_transfer";

// When an armed point fires. Hits are counted per point, across all threads.
struct FaultPolicy {
  enum class Kind : uint8_t {
    kOnce,         // Fire on the first hit only.
    kNthHit,       // Fire on the n-th hit (1-based) only.
    kEveryN,       // Fire on every n-th hit.
    kProbability,  // Fire on each hit with probability p (seeded, deterministic).
    kAlways,       // Fire on every hit.
  };
  Kind kind = Kind::kOnce;
  uint64_t n = 1;
  double probability = 0.0;

  static FaultPolicy Once() { return {Kind::kOnce, 1, 0.0}; }
  static FaultPolicy NthHit(uint64_t n) { return {Kind::kNthHit, n, 0.0}; }
  static FaultPolicy EveryN(uint64_t n) { return {Kind::kEveryN, n, 0.0}; }
  static FaultPolicy Probability(double p) { return {Kind::kProbability, 1, p}; }
  static FaultPolicy Always() { return {Kind::kAlways, 1, 0.0}; }
};

// A fault point armed for the workload phase of an exploration.
struct ArmedFault {
  std::string point;
  FaultPolicy policy;
};

struct FaultPointStats {
  uint64_t hits = 0;   // Times the point was reached while armed.
  uint64_t fires = 0;  // Times the policy said "inject".
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0xFA17ull);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void Arm(std::string_view point, FaultPolicy policy);
  void Disarm(std::string_view point);
  // Disarms every point and clears all stats (the random stream is not reseeded).
  void Reset();

  // The component-side check: records a hit and returns whether to inject. Unarmed points
  // never fire (and are not tracked). Thread-safe.
  bool ShouldFire(std::string_view point);

  // Records an externally performed injection (e.g. NvmPool::InjectBitFlip) against a
  // point's stats without consulting any policy.
  void RecordFire(std::string_view point);

  // Deterministic uniform draw in [0, bound) from the injector's seeded stream; fault
  // sites use this to pick which line/bit/subset to damage. Thread-safe.
  uint64_t NextRandom(uint64_t bound);

  // Blocks every ShouldFire call, on any thread, until the returned lock is released. A
  // test holds a component at its fault check this way (e.g. a delegation worker about to
  // copy a chunk) while it sets up a race; it must not call the injector meanwhile.
  [[nodiscard]] std::unique_lock<std::mutex> Stall() {
    return std::unique_lock<std::mutex>(mutex_);
  }

  FaultPointStats StatsFor(std::string_view point) const;
  uint64_t TotalFires() const;
  uint64_t TotalHits() const;

 private:
  struct Point {
    FaultPolicy policy;
    bool armed = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  mutable std::mutex mutex_;
  Rng rng_;
  // Ordered + transparent comparator: string_view lookups without allocation.
  std::map<std::string, Point, std::less<>> points_;
};

}  // namespace trio

#endif  // SRC_SIM_FAULT_INJECTOR_H_
