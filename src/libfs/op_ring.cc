#include "src/libfs/op_ring.h"

namespace trio {

namespace {

// Rings one engine can hand out (fixed at construction so the published-ring array never
// reallocates under the drainer).
constexpr size_t kMaxRings = 64;
// TryPop rounds the drainer spins over empty rings before parking.
constexpr uint32_t kDrainerSpin = 4096;

std::atomic<uint64_t> g_next_engine_id{1};

// Engine-id-keyed cache so a thread resolves its ring without the registration mutex
// after first use. Keyed by the engine's never-reused id, not its address: a new engine
// allocated where a dead one lived must not see the dead engine's rings.
struct RingCacheEntry {
  uint64_t engine_id;
  OpRing* ring;
};
thread_local std::vector<RingCacheEntry> tls_ring_cache;

}  // namespace

OpRingEngine::OpRingEngine(FsInterface& fs, NvmPool& pool, OpRingConfig config,
                           RingPassHooks* hooks, obs::PersistStats* persist_stats)
    : fs_(fs),
      pool_(pool),
      config_(config),
      hooks_(hooks),
      persist_stats_(persist_stats),
      engine_id_(g_next_engine_id.fetch_add(1, std::memory_order_relaxed)) {
  TRIO_CHECK(config_.depth > 0 && (config_.depth & (config_.depth - 1)) == 0)
      << "ring depth must be a power of two";
  // Reserved up front: the drainer indexes rings_ without the mutex, so the array must
  // never reallocate once the drainer is running.
  rings_.reserve(kMaxRings);
  drainer_ = std::thread([this] { DrainerLoop(); });
}

OpRingEngine::~OpRingEngine() { Stop(); }

void OpRingEngine::Stop() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> guard(park_mutex_);
    park_cv_.notify_all();
  }
  if (drainer_.joinable()) {
    drainer_.join();
  }
  // Anything submitted before Stop but after the drainer's final pass completes here, on
  // the stopping thread, under the same pass/epoch discipline — so no reaper strands.
  while (DrainOnce() != 0) {
  }
}

OpRing& OpRingEngine::ThreadRing() {
  for (const auto& entry : tls_ring_cache) {
    if (entry.engine_id == engine_id_) {
      return *entry.ring;
    }
  }
  std::lock_guard<std::mutex> guard(rings_mutex_);
  TRIO_CHECK(rings_.size() < kMaxRings) << "op-ring engine out of ring slots";
  rings_.push_back(std::make_unique<OpRing>(config_.depth));
  OpRing* ring = rings_.back().get();
  published_rings_.store(rings_.size(), std::memory_order_release);
  tls_ring_cache.push_back({engine_id_, ring});
  return *ring;
}

void OpRingEngine::Submit(const Sqe& sqe) {
  OpRing& ring = ThreadRing();
  // Backpressure: a full SQ means the drainer is behind; keep poking it. The yield
  // matters on few-core machines, where a spinning submitter would starve the drainer
  // out of the very CPU it needs to make room.
  while (!ring.TrySubmit(sqe)) {
    WakeDrainer();
    std::this_thread::yield();
  }
  ++ring.submitted_;
  stats_.submitted.fetch_add(1);
  WakeDrainer();
}

void OpRingEngine::SubmitBurst(Sqe* sqes, size_t count) {
  OpRing& ring = ThreadRing();
  for (size_t i = 0; i < count; ++i) {
    sqes[i].user_data = ring.next_user_data_++;
    // A burst larger than the SQ spills: wake the drainer to make room mid-burst (those
    // ops then span more than one pass, which is the best a bounded queue can do).
    while (!ring.TrySubmit(sqes[i])) {
      WakeDrainer();
      std::this_thread::yield();
    }
    ++ring.submitted_;
  }
  stats_.submitted.fetch_add(count);
  WakeDrainer();
}

uint64_t OpRingEngine::SubmitWrite(Fd fd, const void* buf, size_t len) {
  Sqe sqe;
  sqe.op = Sqe::Op::kWrite;
  sqe.fd = fd;
  sqe.buf = buf;
  sqe.len = static_cast<uint32_t>(len);
  sqe.user_data = ThreadRing().next_user_data_++;
  Submit(sqe);
  return sqe.user_data;
}

uint64_t OpRingEngine::SubmitPwrite(Fd fd, const void* buf, size_t len, uint64_t offset) {
  Sqe sqe;
  sqe.op = Sqe::Op::kPwrite;
  sqe.fd = fd;
  sqe.buf = buf;
  sqe.len = static_cast<uint32_t>(len);
  sqe.offset = offset;
  sqe.user_data = ThreadRing().next_user_data_++;
  Submit(sqe);
  return sqe.user_data;
}

uint64_t OpRingEngine::SubmitCreate(const std::string& path, uint32_t mode, uint8_t flags) {
  if (path.size() >= kSqeMaxPath) {
    return 0;  // Does not fit the fixed-size SQE: synchronous fallback.
  }
  Sqe sqe;
  sqe.op = Sqe::Op::kCreate;
  sqe.flags = flags;
  sqe.mode = mode;
  std::memcpy(sqe.path, path.c_str(), path.size() + 1);
  sqe.user_data = ThreadRing().next_user_data_++;
  Submit(sqe);
  return sqe.user_data;
}

uint64_t OpRingEngine::SubmitUnlink(const std::string& path) {
  if (path.size() >= kSqeMaxPath) {
    return 0;
  }
  Sqe sqe;
  sqe.op = Sqe::Op::kUnlink;
  std::memcpy(sqe.path, path.c_str(), path.size() + 1);
  sqe.user_data = ThreadRing().next_user_data_++;
  Submit(sqe);
  return sqe.user_data;
}

uint64_t OpRingEngine::SubmitFsync(Fd fd) {
  Sqe sqe;
  sqe.op = Sqe::Op::kFsync;
  sqe.fd = fd;
  sqe.user_data = ThreadRing().next_user_data_++;
  Submit(sqe);
  return sqe.user_data;
}

size_t OpRingEngine::TryReap(Cqe* out, size_t max) {
  OpRing& ring = ThreadRing();
  const size_t reaped = ring.TryReap(out, max);
  ring.reaped_ += reaped;
  return reaped;
}

Cqe OpRingEngine::WaitCompletion() {
  OpRing& ring = ThreadRing();
  Cqe cqe;
  // Spin briefly for the common sub-microsecond completion, then yield the CPU to the
  // drainer (essential when both share a core).
  for (uint32_t spin = 0; !ring.cq_.TryPop(cqe); ++spin) {
    if (spin < 512) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
  ++ring.reaped_;
  return cqe;
}

void OpRingEngine::WaitIdle() {
  OpRing& ring = ThreadRing();
  Cqe scratch[16];
  uint32_t spin = 0;
  while (ring.in_flight() != 0) {
    const size_t reaped = ring.TryReap(scratch, 16);
    ring.reaped_ += reaped;
    if (reaped != 0) {
      spin = 0;
    } else if (++spin < 512) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

void OpRingEngine::WakeDrainer() {
  // Same no-lost-wakeup protocol as the delegation pool: the full fence orders our SQ
  // push before the sleepers read, pairing with the drainer's fence between its sleepers
  // increment and its ring recheck — one side always sees the other.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) != 0) {
    stats_.wakeups.fetch_add(1);
    std::lock_guard<std::mutex> guard(park_mutex_);
    park_cv_.notify_one();
  }
}

void OpRingEngine::DrainerLoop() {
  auto has_work = [this] {
    const size_t published = published_rings_.load(std::memory_order_acquire);
    for (size_t i = 0; i < published; ++i) {
      if (!rings_[i]->sq_.ApproxEmpty()) {
        return true;
      }
    }
    return false;
  };
  while (true) {
    if (DrainOnce() != 0) {
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      return;
    }
    bool found = false;
    for (uint32_t spin = 0; spin < kDrainerSpin; ++spin) {
      if (has_work() || stop_.load(std::memory_order_acquire)) {
        found = true;
        break;
      }
      // Mostly pause, but cede the CPU now and then: on a machine with fewer cores than
      // threads the submitter needs this slice to produce the work we are spinning for,
      // and handing it over here avoids a full park/futex round trip per handoff.
      if ((spin & 63u) == 63u) {
        std::this_thread::yield();
      } else {
        CpuRelax();
      }
    }
    if (found) {
      continue;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (has_work() || stop_.load(std::memory_order_acquire)) {
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }
    stats_.parks.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      park_cv_.wait(lock, [&] {
        return has_work() || stop_.load(std::memory_order_acquire);
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

size_t OpRingEngine::DrainOnce() {
  const size_t published = published_rings_.load(std::memory_order_acquire);
  std::vector<std::pair<OpRing*, Sqe>> pass;
  for (size_t i = 0; i < published; ++i) {
    OpRing* ring = rings_[i].get();
    Sqe sqe;
    // Bounded burst per ring so a fast submitter cannot extend the pass forever.
    for (size_t n = 0; n < config_.depth && ring->sq_.TryPop(sqe); ++n) {
      pass.emplace_back(ring, sqe);
    }
  }
  if (pass.empty()) {
    return 0;
  }
  stats_.drain_passes.fetch_add(1);
  stats_.pass_ops.fetch_add(pass.size());

  // The group-commit window: every span fence of every op below defers into `epoch`,
  // which issues ONE pool fence per Close(). CQEs buffer until after a close, so a
  // reaped completion always implies durability.
  obs::PersistEpoch epoch(pool_, persist_stats_);
  obs::PersistEpoch::Scope scope(epoch);
  if (hooks_ != nullptr) {
    hooks_->BeginPass();
  }
  std::vector<std::pair<OpRing*, Cqe>> held;
  held.reserve(pass.size());
  auto post_held = [&] {
    for (const auto& [ring, cqe] : held) {
      PostCqe(*ring, cqe);
    }
    held.clear();
  };
  for (const auto& [ring, sqe] : pass) {
    if (sqe.op == Sqe::Op::kFsync) {
      // Barrier: pass-batch data first (workers persist + fence), then the FS's fsync
      // work, then the epoch fence — and only then do the CQEs of everything before the
      // barrier (and the barrier's own) become visible.
      if (hooks_ != nullptr) {
        hooks_->FlushPass();
      }
      const Status status = fs_.Fsync(sqe.fd);
      epoch.Close();
      Cqe cqe;
      cqe.user_data = sqe.user_data;
      cqe.result = status.ok() ? 0 : -static_cast<int64_t>(status.code());
      held.emplace_back(ring, cqe);
      post_held();
      stats_.barriers.fetch_add(1);
    } else {
      held.emplace_back(ring, Execute(sqe));
    }
  }
  if (hooks_ != nullptr) {
    hooks_->FlushPass();
  }
  epoch.Close();
  if (hooks_ != nullptr) {
    hooks_->EndPass();
  }
  post_held();
  return pass.size();
}

Cqe OpRingEngine::Execute(const Sqe& sqe) {
  Cqe cqe;
  cqe.user_data = sqe.user_data;
  switch (sqe.op) {
    case Sqe::Op::kNop:
    case Sqe::Op::kFsync:  // Barriers are handled in DrainOnce; a stray one is a no-op.
      cqe.result = 0;
      break;
    case Sqe::Op::kWrite: {
      const Result<size_t> result = fs_.Write(sqe.fd, sqe.buf, sqe.len);
      cqe.result = result.ok() ? static_cast<int64_t>(*result)
                               : -static_cast<int64_t>(result.status().code());
      break;
    }
    case Sqe::Op::kPwrite: {
      const Result<size_t> result = fs_.Pwrite(sqe.fd, sqe.buf, sqe.len, sqe.offset);
      cqe.result = result.ok() ? static_cast<int64_t>(*result)
                               : -static_cast<int64_t>(result.status().code());
      break;
    }
    case Sqe::Op::kCreate: {
      OpenFlags flags = OpenFlags::CreateRw();
      flags.append = (sqe.flags & Sqe::kFlagAppend) != 0;
      flags.truncate = (sqe.flags & Sqe::kFlagTrunc) != 0;
      flags.exclusive = (sqe.flags & Sqe::kFlagExcl) != 0;
      const Result<Fd> result = fs_.Open(sqe.path, flags, sqe.mode);
      cqe.result = result.ok() ? static_cast<int64_t>(*result)
                               : -static_cast<int64_t>(result.status().code());
      break;
    }
    case Sqe::Op::kUnlink: {
      const Status status = fs_.Unlink(sqe.path);
      cqe.result = status.ok() ? 0 : -static_cast<int64_t>(status.code());
      break;
    }
  }
  return cqe;
}

void OpRingEngine::PostCqe(OpRing& ring, const Cqe& cqe) {
  if (!ring.cq_.TryPush(cqe)) {
    // Slow reaper. The CQ is 2x the SQ, so this only happens when the owner submits
    // across multiple passes without reaping; spin until it catches up (CQEs are never
    // dropped — the completion contract is the whole point of the ring).
    stats_.cq_stalls.fetch_add(1);
    while (!ring.cq_.TryPush(cqe)) {
      CpuRelax();
    }
  }
  stats_.completed.fetch_add(1);
}

}  // namespace trio
