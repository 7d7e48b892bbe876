// KernelController lifecycle, mount/recovery, resource leasing, permission changes, the
// write-map log, ownership views, and the shard plumbing (shard index map, busy-waiters,
// the striped page-ownership table). The implementation is split across three translation
// units behind the single KernelController class:
//   controller.cc        — this file
//   controller_map.cc    — map/unmap/sharing, grant cache, and lease revocation
//   controller_verify.cc — verify/reconcile, checkpoint/rollback, quarantine, reclaim
// Every LibFS-callable entry point opens a SyscallScope (see syscall_boundary.h).
//
// Locking: see the hierarchy in controller.h. Shard mutexes are PLAIN mutexes; the
// verifier and every LibFS callback run with no shard held (in-flight verifications pin
// their record with FileRecord::busy instead), so there is no reentrancy to forgive.

#include "src/kernel/controller.h"

#include <algorithm>

#include "src/kernel/controller_internal.h"
#include "src/kernel/digestion.h"
#include "src/kernel/syscall_boundary.h"
#include "src/obs/persist_span.h"
#include "src/sim/backend.h"

namespace trio {

using controller_internal::PackStateLessee;
using controller_internal::UnpackStateLessee;
using controller_internal::VerifyDeadline;
using controller_internal::WmapLogOf;
using controller_internal::WmapSlots;

thread_local uint64_t ShardRank::held_mask_ = 0;

namespace {

// Slots per lock-free seqlock cache. Direct-mapped; collisions only cost fast-path misses.
constexpr size_t kOwnershipCacheSlots = 4096;

}  // namespace

// ---------------------------------------------------------------------------
// PageOwnershipTable
// ---------------------------------------------------------------------------

void PageOwnershipTable::Reset(size_t stripes, size_t cache_slots) {
  size_t cap = 1;
  while (cap < stripes) {
    cap <<= 1;
  }
  stripes_.clear();
  stripes_.reserve(cap);
  for (size_t i = 0; i < cap; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  stripe_mask_ = cap - 1;
  cache_.Reset(cache_slots);
}

PageState PageOwnershipTable::Get(PageNumber page) const {
  uint64_t w[2];
  if (cache_.Lookup(page, w)) {
    PageState state;
    UnpackStateLessee(w[0], &state.state, &state.lessee);
    state.owner = w[1];
    return state;
  }
  const Stripe& stripe = *stripes_[StripeIndexOf(page)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.map.find(page);
  const PageState state = it == stripe.map.end() ? PageState{} : it->second;
  // Populate under the stripe lock ("free" caches too): the write-through rule keeps the
  // cache coherent because every mutation of this stripe also stores before unlocking.
  const uint64_t words[2] = {PackStateLessee(state.state, state.lessee), state.owner};
  cache_.Store(page, words);
  return state;
}

void PageOwnershipTable::Set(PageNumber page, const PageState& state) {
  Stripe& stripe = *stripes_[StripeIndexOf(page)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  stripe.map[page] = state;
  const uint64_t words[2] = {PackStateLessee(state.state, state.lessee), state.owner};
  cache_.Store(page, words);
}

void PageOwnershipTable::Erase(PageNumber page) {
  Stripe& stripe = *stripes_[StripeIndexOf(page)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  stripe.map.erase(page);
  const uint64_t words[2] = {PackStateLessee(ResourceState::kFree, kNoLibFs), kInvalidIno};
  cache_.Store(page, words);
}

bool PageOwnershipTable::Contains(PageNumber page) const {
  const Stripe& stripe = *stripes_[StripeIndexOf(page)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  return stripe.map.count(page) != 0;
}

bool PageOwnershipTable::EraseIfLeasedBy(PageNumber page, LibFsId libfs) {
  Stripe& stripe = *stripes_[StripeIndexOf(page)];
  std::lock_guard<std::mutex> guard(stripe.mu);
  auto it = stripe.map.find(page);
  if (it == stripe.map.end() || it->second.state != ResourceState::kLeased ||
      it->second.lessee != libfs) {
    return false;
  }
  stripe.map.erase(it);
  const uint64_t words[2] = {PackStateLessee(ResourceState::kFree, kNoLibFs), kInvalidIno};
  cache_.Store(page, words);
  return true;
}

void PageOwnershipTable::Clear() {
  for (auto& stripe : stripes_) {
    std::lock_guard<std::mutex> guard(stripe->mu);
    stripe->map.clear();
  }
  cache_.Clear();
}

// ---------------------------------------------------------------------------
// Construction / shard plumbing
// ---------------------------------------------------------------------------

KernelController::KernelController(NvmPool& pool, KernelConfig config, Clock* clock)
    : pool_(pool), config_(config), clock_(clock) {
  size_t shards = std::max<size_t>(1, std::min(config_.controller_shards,
                                               ShardRank::kMaxShards));
  size_t cap = 1;
  while (cap < shards) {
    cap <<= 1;
  }
  shards_.reserve(cap);
  for (size_t i = 0; i < cap; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = cap - 1;
  const size_t cache_slots = config_.lockfree_lookup ? kOwnershipCacheSlots : 0;
  page_table_.Reset(cap, cache_slots);
  ino_cache_.Reset(cache_slots);
  grant_cache_.Reset(cache_slots);
  verifier_ = std::make_unique<IntegrityVerifier>(pool_, *this, *this, clock_);
  // Digestion starts at Mount(), not here: its occupancy/cold scans read state the
  // mount rescan builds (file_region_pages_, the record tables).
}

KernelController::~KernelController() {
  digestion_.reset();  // Stop the migration thread before any state it walks goes away.
  delegation_.reset();
}

void KernelController::StartDelegation() {
  if (delegation_ == nullptr) {
    delegation_ = std::make_unique<DelegationPool>(pool_, config_.delegation);
  }
}

KernelController::FileRecord* KernelController::WaitNotBusyLocked(
    Shard& shard, std::unique_lock<std::mutex>& lk, Ino ino) {
  for (;;) {
    FileRecord* record = FindRecordLocked(shard, ino);
    if (record == nullptr || !record->busy) {
      return record;
    }
    shard.cv.wait(lk);
  }
}

std::shared_ptr<KernelController::LibFsRecord> KernelController::FindLibFs(
    LibFsId id) const {
  std::lock_guard<std::mutex> guard(registry_mu_);
  auto it = libfses_.find(id);
  return it == libfses_.end() ? nullptr : it->second;
}

std::vector<ShardMutex*> KernelController::ShardMutexesFor(
    const std::vector<size_t>& indices) const {
  std::vector<ShardMutex*> mutexes;
  mutexes.reserve(indices.size());
  for (size_t i : indices) {
    mutexes.push_back(&shards_[i]->mu);
  }
  return mutexes;
}

std::vector<size_t> KernelController::AllShardIndices() const {
  std::vector<size_t> indices(shards_.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = i;
  }
  return indices;
}

void KernelController::SetInoStateLocked(Shard& shard, Ino ino, const InoState& state) {
  shard.ino_states[ino] = state;
  const uint64_t words[2] = {PackStateLessee(state.state, state.lessee), state.parent};
  ino_cache_.Store(ino, words);
}

void KernelController::EraseInoStateLocked(Shard& shard, Ino ino) {
  shard.ino_states.erase(ino);
  const uint64_t words[2] = {PackStateLessee(ResourceState::kFree, kNoLibFs), kInvalidIno};
  ino_cache_.Store(ino, words);
}

void KernelController::ReleasePageToFree(PageNumber page) {
  page_table_.Erase(page);
  std::lock_guard<std::mutex> guard(alloc_mu_);
  free_pages_by_node_[pool_.NodeOfPage(page)].push_back(page);
}

// ---------------------------------------------------------------------------
// Mount / unmount / recovery
// ---------------------------------------------------------------------------

Status KernelController::Mount() {
  TRIO_RETURN_IF_ERROR(CheckSuperblock(pool_));
  // Acquire-all: mount rebuilds every table, so it is the one operation that freezes the
  // whole controller (ascending order, like every multi-shard acquire).
  const std::vector<size_t> all = AllShardIndices();
  OrderedShardSpan span(ShardMutexesFor(all), all);
  Superblock* sb = SuperblockOf(pool_);
  needs_recovery_ = sb->clean_shutdown == 0;
  file_region_pages_ = sb->total_pages - sb->file_region_page;
  if (config_.tier.backend != nullptr) {
    // The backend owner table is auxiliary state too: forget it and re-adopt every slot
    // the tree rescan finds referenced by a tier entry.
    config_.tier.backend->BeginRebuild();
  }

  for (auto& shard : shards_) {
    shard->records.clear();
    shard->ino_states.clear();
  }
  page_table_.Clear();
  ino_cache_.Clear();
  grant_cache_.Clear();
  {
    std::lock_guard<std::mutex> guard(wmap_mu_);
    LoadWmapIndexLocked();
  }
  {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    free_pages_by_node_.assign(pool_.topology().num_nodes, {});
    free_inos_.clear();
    next_ino_ = kRootIno + 1;
  }

  // The ownership tables are auxiliary state (§3.2): rebuild them by walking the core
  // state from the root.
  std::unordered_set<PageNumber> seen_pages;
  std::unordered_set<Ino> seen_inos;
  Status scan = ScanTreeLocked(kRootIno, kInvalidIno, /*dirent_page=*/0, /*dirent_slot=*/0,
                               sb->root, &seen_pages, &seen_inos);
  if (!scan.ok()) {
    TRIO_LOG(kWarn) << "mount scan found damage: " << scan.ToString();
  }

  // Everything in the file region not owned by a file is free.
  {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    for (PageNumber p = sb->file_region_page; p < sb->total_pages; ++p) {
      if (seen_pages.count(p) == 0) {
        free_pages_by_node_[pool_.NodeOfPage(p)].push_back(p);
      }
    }
  }

  // We are live: a crash from here on is unclean until Unmount().
  const uint64_t live = 0;
  pool_.Write(&sb->clean_shutdown, &live, sizeof(live));
  obs::PersistSpan(pool_, &persist_stats_).PersistNow(&sb->clean_shutdown, sizeof(live));
  mounted_ = true;
  if (config_.tier.backend != nullptr && config_.tier.start_digestion) {
    StartDigestion();  // Only now: the scans above built the state digestion walks.
  }
  return OkStatus();
}

Status KernelController::ScanTreeLocked(Ino ino, Ino parent, PageNumber dirent_page,
                                        size_t dirent_slot, const DirentBlock& dirent,
                                        std::unordered_set<PageNumber>* seen_pages,
                                        std::unordered_set<Ino>* seen_inos) {
  if (!seen_inos->insert(ino).second) {
    return Corrupted("inode appears twice in tree");
  }
  FileRecord record;
  record.ino = ino;
  record.parent = parent;
  record.is_dir = dirent.IsDirectory();
  record.dirent_page = dirent_page;
  record.dirent_slot = dirent_slot;
  record.first_index_page = dirent.first_index_page;

  // Claim this file's pages; tolerate damage by stopping at the first bad page.
  Status walk = ForEachIndexPage(pool_, dirent.first_index_page, [&](PageNumber p) -> Status {
    if (!seen_pages->insert(p).second) {
      return Corrupted("index page claimed twice");
    }
    record.pages.push_back(p);
    return OkStatus();
  });
  if (walk.ok()) {
    walk = ForEachDataEntry(pool_, dirent.first_index_page,
                            [&](uint64_t, uint64_t entry) -> Status {
                              if (IsTierEntry(entry)) {
                                if (record.is_dir) {
                                  return Corrupted("tier entry inside a directory chain");
                                }
                                if (config_.tier.backend == nullptr) {
                                  return Corrupted("tier entry with no backend configured");
                                }
                                const uint64_t slot = TierSlotOfEntry(entry);
                                TRIO_RETURN_IF_ERROR(config_.tier.backend->Adopt(slot, ino));
                                record.backend_slots.push_back(slot);
                                return OkStatus();
                              }
                              if (!seen_pages->insert(entry).second) {
                                return Corrupted("data page claimed twice");
                              }
                              record.pages.push_back(entry);
                              return OkStatus();
                            });
  }
  // Unique already: seen_pages and Adopt reject a second claim.
  std::sort(record.pages.begin(), record.pages.end());
  std::sort(record.backend_slots.begin(), record.backend_slots.end());

  for (PageNumber p : record.pages) {
    page_table_.Set(p, PageState{ResourceState::kOwned, kNoLibFs, ino});
  }
  SetInoStateLocked(ShardOf(ino), ino, InoState{ResourceState::kOwned, kNoLibFs, parent});
  {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    if (ino >= next_ino_) {
      next_ino_ = ino + 1;
    }
  }

  // Adopt files that were created but never reconciled before a crash: give them a shadow
  // inode matching their dirent (the recovery verify pass re-checks structure).
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (shadow != nullptr && !shadow->Exists()) {
    ShadowInode fresh{dirent.mode, dirent.uid, dirent.gid, 1};
    pool_.Write(shadow, &fresh, sizeof(fresh));
    obs::PersistSpan(pool_, &persist_stats_).PersistNow(shadow, sizeof(fresh));
  }

  Status children_status = OkStatus();
  if (record.is_dir && walk.ok()) {
    children_status = ForEachDirent(
        pool_, dirent.first_index_page,
        [&](DirentBlock* child, PageNumber page, size_t slot) -> Status {
          if (seen_inos->count(child->ino) != 0) {
            // Torn rename can leave the same ino under two names; keep the first, let the
            // LibFS recovery program resolve the journal.
            TRIO_LOG(kWarn) << "mount: duplicate ino " << child->ino << " skipped";
            return OkStatus();
          }
          Status s = ScanTreeLocked(child->ino, ino, page, slot, *child, seen_pages,
                                    seen_inos);
          if (!s.ok()) {
            TRIO_LOG(kWarn) << "mount: subtree of ino " << child->ino
                            << " damaged: " << s.ToString();
          }
          return OkStatus();
        });
  }

  ShardOf(ino).records[ino] = std::move(record);
  if (!walk.ok()) {
    return walk;
  }
  return children_status;
}

Status KernelController::Unmount() {
  {
    std::lock_guard<std::mutex> guard(registry_mu_);
    if (!libfses_.empty()) {
      return Busy("LibFSes still registered");
    }
  }
  Superblock* sb = SuperblockOf(pool_);
  const uint64_t clean = 1;
  pool_.Write(&sb->clean_shutdown, &clean, sizeof(clean));
  obs::PersistSpan(pool_, &persist_stats_).PersistNow(&sb->clean_shutdown, sizeof(clean));
  mounted_ = false;
  return OkStatus();
}

Status KernelController::RunRecovery() {
  // Phase 1: untrusted LibFS recovery programs (journal undo). No controller locks: the
  // programs may call back into any syscall.
  std::vector<std::function<void()>> programs;
  {
    std::lock_guard<std::mutex> guard(registry_mu_);
    for (auto& [id, libfs] : libfses_) {
      if (libfs->callbacks.recovery) {
        programs.push_back(libfs->callbacks.recovery);
      }
    }
  }
  bool program_timed_out = false;
  for (auto& program : programs) {
    // Recovery programs are arbitrary user code; one that never returns must not wedge
    // recovery for everyone. On timeout the program's journal state is unknown, so
    // coverage escalates below to verifying every file, not just the logged ones.
    if (!callback_guard_.Run(config_.recovery_timeout_ms, program)) {
      stats_.callback_timeouts.fetch_add(1, std::memory_order_relaxed);
      program_timed_out = true;
      TRIO_LOG(kWarn) << "recovery: a LibFS recovery program overran "
                      << config_.recovery_timeout_ms
                      << "ms and was abandoned; escalating to full-tree verification";
    }
  }

  // Phase 2: the recovery programs may have moved dirents around; rebuild the tables.
  TRIO_RETURN_IF_ERROR(Mount());

  // Phase 3: verify every file that was write-mapped when the crash happened (§4.4).
  // If the write-map log overflowed before the crash (or a recovery program hung),
  // coverage is unknown: verify the whole tree instead (an online fsck over every record).
  //
  // Idempotence: the log slots and the overflow flag are cleared only AFTER every
  // verification (and any resulting removal) has been persisted. A crash anywhere during
  // recovery leaves the obligations on media, so a second RunRecovery redoes them and
  // converges — verification is read-only and removal of an already-removed file is a
  // no-op.
  Superblock* sb = SuperblockOf(pool_);
  std::vector<Ino> to_verify;
  uint64_t* log = WmapLogOf(pool_);
  const bool overflow = pool_.Load64(&sb->wmap_log_overflow) != 0;
  if (overflow || program_timed_out) {
    for (size_t si = 0; si < shards_.size(); ++si) {
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      for (const auto& [ino, record] : shards_[si]->records) {
        to_verify.push_back(ino);
      }
    }
  }
  for (size_t i = 0; i < WmapSlots(pool_); ++i) {
    if (log[i] != kInvalidIno) {
      to_verify.push_back(log[i]);
    }
  }
  std::sort(to_verify.begin(), to_verify.end());
  to_verify.erase(std::unique(to_verify.begin(), to_verify.end()), to_verify.end());
  for (Ino ino : to_verify) {
    const size_t si = ShardIndexOf(ino);
    VerifyRequest request;
    {
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
      if (record == nullptr) {
        continue;
      }
      record->busy = true;  // Pin across the (lock-free) verification below.
      request.ino = ino;
      request.dirent = DirentOfLocked(*record);
      request.writer = kNoLibFs;
      const ShadowInode* shadow = ShadowInodeOf(pool_, ino);
      request.writer_uid = shadow != nullptr ? shadow->uid : 0;
      request.writer_gid = shadow != nullptr ? shadow->gid : 0;
      request.deadline_ns = VerifyDeadline(config_, NowNs());
    }
    Result<VerifyReport> report = verifier_->Verify(request);
    stats_.verifications.fetch_add(1, std::memory_order_relaxed);
    if (!report.ok() && report.status().Is(ErrorCode::kTimeout)) {
      stats_.verify_timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    {
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      FileRecord* record = FindRecordLocked(*shards_[si], ino);
      if (record != nullptr) {
        record->busy = false;
        if (!report.ok() && ino != kRootIno) {
          DirentBlock* dirent = DirentOfLocked(*record);
          obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&dirent->ino, kInvalidIno);
        }
      }
      shards_[si]->cv.notify_all();
    }
    if (!report.ok()) {
      TRIO_LOG(kWarn) << "recovery: ino " << ino
                      << " failed verification: " << report.status().ToString()
                      << (ino != kRootIno ? "; removing"
                                          : "; root cannot be removed — left for fsck");
      if (ino != kRootIno) {
        ReclaimTree(ino);
      }
    }
  }

  // Phase 4: scrub orphaned shadow inodes. A crash between invalidating a dirent and
  // clearing its shadow inode (removal is two persists) leaves a live shadow no tree
  // entry references — exactly fsck's G6 orphan. Any live shadow without a record is one.
  for (Ino ino = kRootIno + 1; ino < sb->max_inodes; ++ino) {
    bool known;
    {
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      known = shards_[si]->records.count(ino) != 0;
    }
    if (known) {
      continue;
    }
    ShadowInode* shadow = ShadowInodeOf(pool_, ino);
    if (shadow != nullptr && shadow->Exists()) {
      ShadowInode cleared{};
      pool_.Write(shadow, &cleared, sizeof(cleared));
      obs::PersistSpan(pool_, &persist_stats_).PersistNow(shadow, sizeof(cleared));
      TRIO_LOG(kInfo) << "recovery: cleared orphaned shadow inode " << ino;
    }
  }

  // All obligations discharged: retire the log.
  {
    std::lock_guard<std::mutex> guard(wmap_mu_);
    obs::PersistSpan span(pool_, &persist_stats_);
    for (size_t i = 0; i < WmapSlots(pool_); ++i) {
      if (log[i] != kInvalidIno) {
        span.CommitStore64(&log[i], kInvalidIno);
      }
    }
    if (overflow) {
      span.CommitStore64(&sb->wmap_log_overflow, 0);
    }
    LoadWmapIndexLocked();
  }
  needs_recovery_ = false;
  return OkStatus();
}

// ---------------------------------------------------------------------------
// LibFS lifecycle
// ---------------------------------------------------------------------------

LibFsId KernelController::RegisterLibFs(const LibFsOptions& options) {
  SyscallScope syscall(stats_, "RegisterLibFs");
  auto record = std::make_shared<LibFsRecord>();
  record->uid = options.uid;
  record->gid = options.gid;
  record->callbacks = options.callbacks;
  LibFsId id;
  {
    std::lock_guard<std::mutex> guard(registry_mu_);
    id = next_libfs_id_++;
    record->id = id;
    libfses_[id] = std::move(record);
  }
  // Every LibFS can read the superblock.
  mmu_.Grant(id, 0, PagePerm::kRead);
  return id;
}

void KernelController::UnregisterLibFs(LibFsId libfs) {
  SyscallScope syscall(stats_, "UnregisterLibFs");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return;
  }

  // Release read mappings (page permissions fall with RevokeAll below).
  std::vector<Ino> reads;
  {
    std::lock_guard<std::mutex> guard(me->mu);
    reads.assign(me->read_mapped.begin(), me->read_mapped.end());
    me->read_mapped.clear();
  }
  for (Ino ino : reads) {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* file = FindRecordLocked(*shards_[si], ino);
    if (file != nullptr && file->readers.erase(libfs) > 0) {
      BumpGrantGenLocked(*shards_[si], file);
    }
    grant_cache_.Erase(ino);
  }

  // Release write mappings: verify and reconcile each. Directories first: their
  // verification resolves renamed-in children (so a renamed file's record points at its
  // current dirent before the file is verified) and registers freshly created children as
  // implicit write grants — which is why this drains in rounds until nothing is left.
  for (;;) {
    std::vector<Ino> snapshot;
    {
      std::lock_guard<std::mutex> guard(me->mu);
      snapshot.assign(me->write_mapped.begin(), me->write_mapped.end());
    }
    if (snapshot.empty()) {
      break;
    }
    std::stable_partition(snapshot.begin(), snapshot.end(), [&](Ino ino) {
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      const FileRecord* file = FindRecordLocked(*shards_[si], ino);
      return file != nullptr && file->is_dir;
    });
    for (Ino ino : snapshot) {
      bool is_writer = false;
      {
        const size_t si = ShardIndexOf(ino);
        ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
        FileRecord* file = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
        if (file != nullptr && file->writer == libfs) {
          file->busy = true;
          is_writer = true;
        }
      }
      if (is_writer) {
        (void)VerifyAndReconcile(ino);
        FinishWriteRelease(libfs, ino, me);
      } else {
        std::lock_guard<std::mutex> guard(me->mu);
        me->write_mapped.erase(ino);
      }
    }
  }
  ResolveOrphans(me);

  // Return leases.
  std::vector<PageNumber> leased_pages;
  std::vector<Ino> leased_inos;
  {
    std::lock_guard<std::mutex> guard(me->mu);
    leased_pages.assign(me->leased_pages.begin(), me->leased_pages.end());
    leased_inos.assign(me->leased_inos.begin(), me->leased_inos.end());
    me->leased_pages.clear();
    me->leased_inos.clear();
  }
  for (PageNumber page : leased_pages) {
    ReleasePageToFree(page);
  }
  for (Ino ino : leased_inos) {
    {
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      EraseInoStateLocked(*shards_[si], ino);
    }
    std::lock_guard<std::mutex> guard(alloc_mu_);
    free_inos_.push_back(ino);
  }
  mmu_.RevokeAll(libfs);
  {
    std::lock_guard<std::mutex> guard(registry_mu_);
    libfses_.erase(libfs);
  }
}

// ---------------------------------------------------------------------------
// Resource leasing
// ---------------------------------------------------------------------------

Status KernelController::AllocPages(LibFsId libfs, size_t count, int node_hint,
                                    std::vector<PageNumber>* out) {
  SyscallScope syscall(stats_, "AllocPages");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  std::vector<PageNumber> granted;
  granted.reserve(count);
  auto pop_page = [&]() -> PageNumber {
    std::lock_guard<std::mutex> guard(alloc_mu_);
    const int nodes = static_cast<int>(free_pages_by_node_.size());
    const int node = node_hint >= 0 && node_hint < nodes ? node_hint : 0;
    for (int attempt = 0; attempt < nodes; ++attempt) {
      auto& free_list = free_pages_by_node_[(node + attempt) % nodes];
      if (!free_list.empty()) {
        const PageNumber page = free_list.back();
        free_list.pop_back();
        return page;
      }
    }
    return kInvalidPage;
  };
  for (size_t i = 0; i < count; ++i) {
    PageNumber page = pop_page();
    if (page == kInvalidPage && config_.tier.backend != nullptr) {
      // NVM exhausted: the absorb tier digests synchronously (a watermark stall — the
      // background thread fell behind) and the allocation retries once.
      tier_stats_.watermark_stalls.fetch_add(1, std::memory_order_relaxed);
      if (DigestNow(std::max(count, config_.tier.batch_pages)) > 0) {
        page = pop_page();
      }
    }
    if (page == kInvalidPage) {
      // All-or-nothing: roll back what this call handed out.
      for (PageNumber p : granted) {
        {
          std::lock_guard<std::mutex> guard(me->mu);
          me->leased_pages.erase(p);
        }
        mmu_.Revoke(libfs, p, PagePerm::kReadWrite);
        ReleasePageToFree(p);
        stats_.pages_allocated.fetch_sub(1, std::memory_order_relaxed);
      }
      return NoSpace("out of NVM pages");
    }
    // Zero before leasing: a freed page must not leak another user's data.
    pool_.Set(pool_.PageAddress(page), 0, kPageSize);
    page_table_.Set(page, PageState{ResourceState::kLeased, libfs, kInvalidIno});
    {
      std::lock_guard<std::mutex> guard(me->mu);
      me->leased_pages.insert(page);
    }
    mmu_.Grant(libfs, page, PagePerm::kReadWrite);
    granted.push_back(page);
    stats_.pages_allocated.fetch_add(1, std::memory_order_relaxed);
  }
  out->insert(out->end(), granted.begin(), granted.end());
  return OkStatus();
}

Status KernelController::FreePages(LibFsId libfs, const std::vector<PageNumber>& pages) {
  SyscallScope syscall(stats_, "FreePages");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  for (PageNumber page : pages) {
    const PageState state = page_table_.Get(page);
    if (state.state == ResourceState::kLeased && state.lessee == libfs) {
      if (!page_table_.EraseIfLeasedBy(page, libfs)) {
        return InvalidArgument("freeing a page that is not allocated");
      }
      {
        std::lock_guard<std::mutex> guard(me->mu);
        me->leased_pages.erase(page);
      }
      mmu_.Revoke(libfs, page, PagePerm::kReadWrite);
      {
        std::lock_guard<std::mutex> guard(alloc_mu_);
        free_pages_by_node_[pool_.NodeOfPage(page)].push_back(page);
      }
      stats_.pages_freed.fetch_add(1, std::memory_order_relaxed);
    } else if (state.state == ResourceState::kOwned) {
      // The page belongs to a file: only its current writer may free it. Lock the owning
      // file's shard and re-validate (ownership may have moved while unlocked).
      const size_t si = ShardIndexOf(state.owner);
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      FileRecord* file = WaitNotBusyLocked(*shards_[si], sl.lock(), state.owner);
      const PageState now = page_table_.Get(page);
      if (file == nullptr || now.state != ResourceState::kOwned ||
          now.owner != state.owner) {
        return PermissionDenied("page not freeable by caller");
      }
      if (file->writer != libfs) {
        return PermissionDenied("freeing a page of a file not write-mapped by caller");
      }
      auto it = std::lower_bound(file->pages.begin(), file->pages.end(), page);
      if (it != file->pages.end() && *it == page) {
        file->pages.erase(it);
      }
      mmu_.Revoke(libfs, page, PagePerm::kReadWrite);
      ReleasePageToFree(page);
      stats_.pages_freed.fetch_add(1, std::memory_order_relaxed);
    } else if (state.state == ResourceState::kFree) {
      return InvalidArgument("freeing a page that is not allocated");
    } else {
      return PermissionDenied("page not freeable by caller");
    }
  }
  return OkStatus();
}

Result<Ino> KernelController::AllocIno(LibFsId libfs) {
  std::vector<Ino> out;
  TRIO_RETURN_IF_ERROR(AllocInos(libfs, 1, &out));
  return out[0];
}

Status KernelController::AllocInos(LibFsId libfs, size_t count, std::vector<Ino>* out) {
  SyscallScope syscall(stats_, "AllocInos");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  std::vector<Ino> granted;
  granted.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Ino ino = kInvalidIno;
    {
      std::lock_guard<std::mutex> guard(alloc_mu_);
      if (!free_inos_.empty()) {
        ino = free_inos_.back();
        free_inos_.pop_back();
      } else if (next_ino_ < SuperblockOf(pool_)->max_inodes) {
        ino = next_ino_++;
      }
    }
    if (ino == kInvalidIno) {
      for (Ino undo : granted) {
        {
          const size_t si = ShardIndexOf(undo);
          ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
          EraseInoStateLocked(*shards_[si], undo);
        }
        {
          std::lock_guard<std::mutex> guard(me->mu);
          me->leased_inos.erase(undo);
        }
        std::lock_guard<std::mutex> guard(alloc_mu_);
        free_inos_.push_back(undo);
      }
      return NoSpace("out of inode numbers");
    }
    {
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      SetInoStateLocked(*shards_[si], ino,
                        InoState{ResourceState::kLeased, libfs, kInvalidIno});
    }
    {
      std::lock_guard<std::mutex> guard(me->mu);
      me->leased_inos.insert(ino);
    }
    granted.push_back(ino);
  }
  out->insert(out->end(), granted.begin(), granted.end());
  return OkStatus();
}

Status KernelController::FreeIno(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, "FreeIno");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    auto it = shards_[si]->ino_states.find(ino);
    if (it == shards_[si]->ino_states.end() ||
        it->second.state != ResourceState::kLeased || it->second.lessee != libfs) {
      return InvalidArgument("ino not leased to caller");
    }
    EraseInoStateLocked(*shards_[si], ino);
  }
  {
    std::lock_guard<std::mutex> guard(me->mu);
    me->leased_inos.erase(ino);
  }
  std::lock_guard<std::mutex> guard(alloc_mu_);
  free_inos_.push_back(ino);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Permission changes
// ---------------------------------------------------------------------------

Status KernelController::Chmod(LibFsId libfs, Ino ino, uint32_t perm_bits) {
  SyscallScope syscall(stats_, "Chmod");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  FileRecord* record = FindRecordLocked(*shards_[si], ino);
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (record == nullptr || shadow == nullptr || !shadow->Exists()) {
    return NotFound("no such file");
  }
  if (me->uid != 0 && me->uid != shadow->uid) {
    return PermissionDenied("only the owner may chmod");
  }
  ShadowInode updated = *shadow;
  updated.mode = (updated.mode & kModeTypeMask) | (perm_bits & kModePermMask);
  obs::PersistSpan span(pool_, &persist_stats_);
  pool_.Write(shadow, &updated, sizeof(updated));
  span.PersistNow(shadow, sizeof(updated));
  // Refresh the cached copy in the dirent so I4 stays consistent.
  DirentBlock* dirent = DirentOfLocked(*record);
  pool_.Write(&dirent->mode, &updated.mode, sizeof(updated.mode));
  span.PersistNow(&dirent->mode, sizeof(updated.mode));
  // Cached grants were issued under the old mode; force the next lookup through the
  // slow path's AccessAllowed check.
  grant_cache_.Erase(ino);
  return OkStatus();
}

Status KernelController::Chown(LibFsId libfs, Ino ino, uint32_t uid, uint32_t gid) {
  SyscallScope syscall(stats_, "Chown");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  if (me->uid != 0) {
    return PermissionDenied("only root may chown");
  }
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  FileRecord* record = FindRecordLocked(*shards_[si], ino);
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (record == nullptr || shadow == nullptr || !shadow->Exists()) {
    return NotFound("no such file");
  }
  ShadowInode updated = *shadow;
  updated.uid = uid;
  updated.gid = gid;
  obs::PersistSpan span(pool_, &persist_stats_);
  pool_.Write(shadow, &updated, sizeof(updated));
  span.PersistNow(shadow, sizeof(updated));
  DirentBlock* dirent = DirentOfLocked(*record);
  pool_.Write(&dirent->uid, &updated.uid, sizeof(updated.uid));
  pool_.Write(&dirent->gid, &updated.gid, sizeof(updated.gid));
  span.PersistNow(&dirent->uid, sizeof(uint32_t) * 2);
  grant_cache_.Erase(ino);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// OwnershipView / VerifyEnv
// ---------------------------------------------------------------------------

PageState KernelController::StateOfPage(PageNumber page) const {
  // Lock-free when the page cache hits; one stripe mutex otherwise. The verifier calls
  // this mid-verify from a thread that holds NO shard lock (the busy protocol), so there
  // is no reentrancy here any more — just an ordinary leaf-level read.
  if (page < FileRegionStart(pool_)) {
    return PageState{ResourceState::kReserved, kNoLibFs, kInvalidIno};
  }
  return page_table_.Get(page);
}

InoState KernelController::StateOfIno(Ino ino) const {
  uint64_t w[2];
  if (ino_cache_.Lookup(ino, w)) {
    InoState state;
    UnpackStateLessee(w[0], &state.state, &state.lessee);
    state.parent = w[1];
    return state;
  }
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  auto it = shards_[si]->ino_states.find(ino);
  const InoState state = it == shards_[si]->ino_states.end() ? InoState{} : it->second;
  const uint64_t words[2] = {PackStateLessee(state.state, state.lessee), state.parent};
  ino_cache_.Store(ino, words);
  return state;
}

Status KernelController::CheckRemovedChildDir(Ino child, LibFsId writer) const {
  const size_t si = ShardIndexOf(child);
  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  const FileRecord* record = FindRecordLocked(*shards_[si], child);
  if (record == nullptr) {
    return OkStatus();  // Already reclaimed.
  }
  if ((record->writer != kNoLibFs && record->writer != writer) ||
      std::any_of(record->readers.begin(), record->readers.end(),
                  [&](LibFsId r) { return r != writer; })) {
    return Corrupted("I3: removed child directory still mapped by another LibFS");
  }
  Result<uint64_t> live = CountDirents(const_cast<NvmPool&>(pool_), record->first_index_page);
  if (!live.ok()) {
    return live.status();
  }
  if (*live != 0) {
    return Corrupted("I3: removed child directory is not empty");
  }
  return OkStatus();
}

bool KernelController::IsMovePermitted(Ino child, Ino new_parent, LibFsId writer) const {
  (void)new_parent;
  std::shared_ptr<LibFsRecord> me = FindLibFs(writer);
  if (me != nullptr) {
    std::lock_guard<std::mutex> guard(me->mu);
    if (me->pending_orphans.count(child) != 0) {
      return true;
    }
  }
  // Two-phase cross-shard read: discover the old parent under the child's shard, then
  // take {child, old parent} in ascending order and re-validate the edge (a concurrent
  // rename may have moved the child between the phases).
  for (;;) {
    Ino parent = kInvalidIno;
    {
      const size_t si = ShardIndexOf(child);
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      const FileRecord* record = FindRecordLocked(*shards_[si], child);
      if (record == nullptr) {
        return false;
      }
      parent = record->parent;
    }
    if (parent == kInvalidIno) {
      return false;  // The root does not move.
    }
    const std::vector<size_t> set =
        SortedShardSet({ShardIndexOf(child), ShardIndexOf(parent)});
    if (set.size() > 1) {
      stats_.cross_shard_acquires.fetch_add(1, std::memory_order_relaxed);
    }
    OrderedShardSpan span(ShardMutexesFor(set), set);
    const FileRecord* record = FindRecordLocked(ShardOf(child), child);
    if (record == nullptr) {
      return false;
    }
    if (record->parent != parent) {
      continue;  // Raced a rename; rediscover the parent.
    }
    const FileRecord* old_parent = FindRecordLocked(ShardOf(parent), parent);
    return old_parent != nullptr && old_parent->writer == writer;
  }
}

// ---------------------------------------------------------------------------
// Write-map log (crash recovery, §4.4)
// ---------------------------------------------------------------------------

void KernelController::LoadWmapIndexLocked() {
  const uint64_t* log = WmapLogOf(pool_);
  wmap_slot_of_.clear();
  wmap_free_.clear();
  // Descending, so the lowest empty slot is handed out first and a duplicated ino (only
  // a damaged image has one) indexes its lowest slot; recovery retires the rest.
  for (size_t i = WmapSlots(pool_); i-- > 0;) {
    const Ino ino = pool_.Load64(&log[i]);
    if (ino == kInvalidIno) {
      wmap_free_.push_back(static_cast<uint32_t>(i));
    } else {
      wmap_slot_of_[ino] = static_cast<uint32_t>(i);
    }
  }
}

void KernelController::WmapLogAdd(Ino ino) {
  std::lock_guard<std::mutex> guard(wmap_mu_);
  if (wmap_slot_of_.count(ino) != 0) {
    return;
  }
  if (!wmap_free_.empty()) {
    const uint32_t slot = wmap_free_.back();
    wmap_free_.pop_back();
    obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&WmapLogOf(pool_)[slot], ino);
    wmap_slot_of_.emplace(ino, slot);
    return;
  }
  // Log full: fall back to verify-everything-at-recovery semantics.
  Superblock* sb = SuperblockOf(pool_);
  if (pool_.Load64(&sb->wmap_log_overflow) == 0) {
    obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&sb->wmap_log_overflow, 1);
    TRIO_LOG(kInfo) << "write-map log full; recovery will verify the full tree";
  }
}

void KernelController::WmapLogRemove(Ino ino) {
  std::lock_guard<std::mutex> guard(wmap_mu_);
  auto it = wmap_slot_of_.find(ino);
  if (it == wmap_slot_of_.end()) {
    return;
  }
  obs::PersistSpan(pool_, &persist_stats_)
      .CommitStore64(&WmapLogOf(pool_)[it->second], kInvalidIno);
  wmap_free_.push_back(it->second);
  wmap_slot_of_.erase(it);
}

// ---------------------------------------------------------------------------
// Inspection helpers
// ---------------------------------------------------------------------------

size_t KernelController::FreePageCount() const {
  std::lock_guard<std::mutex> guard(alloc_mu_);
  size_t total = 0;
  for (const auto& list : free_pages_by_node_) {
    total += list.size();
  }
  return total;
}

bool KernelController::IsWriteMapped(Ino ino) const {
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  const FileRecord* record = FindRecordLocked(*shards_[si], ino);
  return record != nullptr && record->writer != kNoLibFs;
}

Result<Ino> KernelController::ParentOf(Ino ino) const {
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  const FileRecord* record = FindRecordLocked(*shards_[si], ino);
  if (record == nullptr) {
    return NotFound("no such file");
  }
  return record->parent;
}

}  // namespace trio
