// KernelController verification and safety: CommitFile, verify-and-reconcile on unmap,
// report application (page/ino reconciliation, new children, renames, deletions),
// checkpointing, quarantine, and rollback. Part of the KernelController split; see
// controller.cc for the TU map.
//
// Verification runs with NO shard lock held: the caller pins the record with
// FileRecord::busy under its shard lock, releases the lock, verifies, then applies the
// report under the two-phase cross-shard span. The busy pin keeps release/reclaim/grant
// paths off the record (they wait on the shard cv), which is what the recursive mutex
// used to paper over by letting the verifier re-enter the controller on the same thread.

#include "src/kernel/controller.h"

#include <algorithm>
#include <cstring>

#include "src/kernel/controller_internal.h"
#include "src/kernel/syscall_boundary.h"
#include "src/obs/persist_span.h"
#include "src/sim/backend.h"
#include "src/sim/fault_injector.h"

namespace trio {

using controller_internal::DiffSorted;
using controller_internal::VerifyDeadline;

Status KernelController::CommitFile(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, "CommitFile");
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  const size_t si = ShardIndexOf(ino);
  VerifyRequest request;
  std::vector<CheckpointChild> checkpoint_children;
  {
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr || record->writer != libfs) {
      return InvalidArgument("file not write-mapped by caller");
    }
    record->busy = true;
    request.ino = ino;
    request.dirent = DirentOfLocked(*record);
    request.writer = libfs;
    request.writer_uid = me->uid;
    request.writer_gid = me->gid;
    if (record->checkpoint != nullptr) {
      checkpoint_children = record->checkpoint->children;
      request.checkpoint_children = &checkpoint_children;
    }
  }

  // Verify the current state without the corruption-handling fallback: a failed commit
  // simply leaves the old checkpoint in force (§4.3).
  ShardRank::AssertNoneHeld();
  const uint64_t v0 = NowNs();
  request.deadline_ns = VerifyDeadline(config_, v0);
  Result<VerifyReport> report = verifier_->Verify(request);
  stats_.verifications.fetch_add(1, std::memory_order_relaxed);
  stats_.verify_ns.fetch_add(NowNs() - v0, std::memory_order_relaxed);

  Status result = OkStatus();
  if (!report.ok()) {
    stats_.verify_failures.fetch_add(1, std::memory_order_relaxed);
    if (report.status().Is(ErrorCode::kTimeout)) {
      stats_.verify_timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    result = report.status();
  } else {
    result = ApplyReport(ino, *report);
  }

  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  FileRecord* record = FindRecordLocked(*shards_[si], ino);
  if (record != nullptr) {
    if (result.ok()) {
      result = TakeCheckpointLocked(record);
    }
    record->busy = false;
  }
  shards_[si]->cv.notify_all();
  return result;
}

Status KernelController::VerifyAndReconcile(Ino ino) {
  const size_t si = ShardIndexOf(ino);
  VerifyRequest request;
  std::vector<CheckpointChild> checkpoint_children;
  LibFsId writer = kNoLibFs;
  {
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    if (record == nullptr) {
      return Internal("record vanished under busy pin");
    }
    writer = record->writer;
    request.ino = ino;
    request.dirent = DirentOfLocked(*record);
    request.writer = writer;
    if (record->checkpoint != nullptr) {
      checkpoint_children = record->checkpoint->children;
      request.checkpoint_children = &checkpoint_children;
    }
  }
  std::shared_ptr<LibFsRecord> me = FindLibFs(writer);
  if (me == nullptr) {
    return Internal("writer vanished");
  }
  request.writer_uid = me->uid;
  request.writer_gid = me->gid;

  ShardRank::AssertNoneHeld();
  const uint64_t v0 = NowNs();
  request.deadline_ns = VerifyDeadline(config_, v0);
  Result<VerifyReport> report = verifier_->Verify(request);
  stats_.verifications.fetch_add(1, std::memory_order_relaxed);
  stats_.verify_ns.fetch_add(NowNs() - v0, std::memory_order_relaxed);
  if (report.ok()) {
    return ApplyReport(ino, *report);
  }

  stats_.verify_failures.fetch_add(1, std::memory_order_relaxed);
  Status failure = report.status();
  TRIO_LOG(kInfo) << "verification failed for ino " << ino << ": " << failure.ToString();

  // §4.3: "ArckFS notifies LibFS A to fix the corruption with a timeout." The callback
  // runs with no locks held (ShardRank would abort otherwise); the busy pin keeps the
  // record stable underneath it.
  auto fix = me->callbacks.fix_corruption;
  if (fix) {
    const uint64_t deadline = NowNs() + config_.fix_timeout_ms * 1000000ull;
    // fix_timeout_ms is a real deadline, not an honor-system check: the callback runs on
    // a watchdog thread and a hang is abandoned, escalating to rollback below. The result
    // lives in a shared_ptr because an abandoned callback may write it late.
    auto claimed = std::make_shared<std::atomic<bool>>(false);
    const bool completed =
        callback_guard_.Run(config_.fix_timeout_ms, [fix, ino, failure, claimed] {
          claimed->store(fix(ino, failure), std::memory_order_release);
        });
    if (!completed) {
      stats_.callback_timeouts.fetch_add(1, std::memory_order_relaxed);
      TRIO_LOG(kWarn) << "fix_corruption for ino " << ino
                      << " hung past fix_timeout_ms; rolling back to checkpoint";
    }
    if (completed && claimed->load(std::memory_order_acquire) && NowNs() <= deadline) {
      {
        // Re-read the dirent location: a concurrent parent reconcile may have moved it.
        ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
        FileRecord* record = FindRecordLocked(*shards_[si], ino);
        if (record == nullptr) {
          return failure;
        }
        request.dirent = DirentOfLocked(*record);
      }
      request.deadline_ns = VerifyDeadline(config_, NowNs());
      Result<VerifyReport> retry = verifier_->Verify(request);
      stats_.verifications.fetch_add(1, std::memory_order_relaxed);
      if (retry.ok()) {
        stats_.corruptions_fixed_by_libfs.fetch_add(1, std::memory_order_relaxed);
        return ApplyReport(ino, *retry);
      }
      failure = retry.status();
    }
  }

  // Quarantine the corrupted image for the offender, then roll back to the checkpoint.
  // A verification that overran its deadline lands here too: the state is UNVERIFIED,
  // which the kernel must treat exactly like corruption rather than accept unchecked.
  if (failure.Is(ErrorCode::kTimeout)) {
    stats_.verify_timeouts.fetch_add(1, std::memory_order_relaxed);
  }
  {
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    if (record != nullptr) {
      QuarantineLocked(record, failure);
      RollbackToCheckpointLocked(record);
      grant_cache_.Erase(ino);
    }
  }
  stats_.corruptions_rolled_back.fetch_add(1, std::memory_order_relaxed);

  // Tell the offender its file was impounded so it drops cached mappings. Untrusted code:
  // bounded by the watchdog, and run outside every lock.
  auto notify = me->callbacks.quarantined;
  if (notify) {
    ShardRank::AssertNoneHeld();
    if (!callback_guard_.Run(config_.fix_timeout_ms,
                             [notify, ino, failure] { notify(ino, failure); })) {
      stats_.callback_timeouts.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return failure;
}

Status KernelController::ApplyReport(Ino ino, const VerifyReport& report) {
  // Phase one of the cross-shard protocol: collect every shard the report touches —
  // the verified file plus each named child (new, renamed in, or removed).
  std::vector<size_t> indices{ShardIndexOf(ino)};
  for (const NewChildInfo& child : report.new_children) {
    indices.push_back(ShardIndexOf(child.ino));
  }
  for (const MovedInChild& moved : report.moved_in) {
    indices.push_back(ShardIndexOf(moved.ino));
  }
  for (Ino removed : report.removed_children) {
    indices.push_back(ShardIndexOf(removed));
  }
  const std::vector<size_t> set = SortedShardSet(std::move(indices));
  if (set.size() > 1) {
    stats_.cross_shard_acquires.fetch_add(1, std::memory_order_relaxed);
  }
  // Reclaims are deferred past the span: ReclaimTree takes shard locks itself.
  std::vector<Ino> reclaim;
  {
    OrderedShardSpan span(ShardMutexesFor(set), set, &stats_.shard_lock_contended);
    FileRecord* record = FindRecordLocked(ShardOf(ino), ino);
    if (record == nullptr) {
      return Internal("record vanished under busy pin");
    }
    const LibFsId writer_id = record->writer;
    std::shared_ptr<LibFsRecord> writer =
        writer_id != kNoLibFs ? FindLibFs(writer_id) : nullptr;

    // Pages: one merge walk of the file's sorted set against the report's. A page only
    // in the old set was dropped (truncate / shrink) and goes back to the free pool; a
    // page only in the report is new to the file and adopted from the writer's leases.
    DiffSorted(
        record->pages, report.pages,
        [&](PageNumber page) {
          if (writer_id != kNoLibFs) {
            mmu_.Revoke(writer_id, page, PagePerm::kReadWrite);
          }
          ReleasePageToFree(page);
          stats_.pages_freed.fetch_add(1, std::memory_order_relaxed);
        },
        [&](PageNumber page) {
          if (page_table_.Get(page).state != ResourceState::kLeased) {
            return;
          }
          if (writer != nullptr) {
            std::lock_guard<std::mutex> guard(writer->mu);
            writer->leased_pages.erase(page);
          }
          page_table_.Set(page, PageState{ResourceState::kOwned, kNoLibFs, ino});
        });
    record->pages = report.pages;  // Copy-assign reuses the record's buffer.
    record->first_index_page = DirentOfLocked(*record)->first_index_page;

    // Backend slots reconcile exactly like pages: slots no longer referenced by a tier
    // entry (the writer truncated or overwrote a digested page) are freed on the backend.
    // A writer cannot *mint* slots — CheckTierSlots already rejected any slot the
    // backend does not record as owned by this file — so the report's set is always a
    // subset of union(record set, adopted-at-mount set).
    if (SlowBackend* backend = config_.tier.backend; backend != nullptr) {
      DiffSorted(
          record->backend_slots, report.backend_slots,
          [&](uint64_t slot) {
            (void)backend->Free(slot, ino);
            tier_stats_.backend_slots_freed.fetch_add(1, std::memory_order_relaxed);
          },
          [](uint64_t) {});
    }
    record->backend_slots = report.backend_slots;

    // FaultSim (kFaultKernelLeakOnRevokedTransfer): on a transfer that answers a
    // revoke, leak one still-referenced page back onto the free list. A later allocation
    // hands it to another tenant => durable cross-file double reference, which only fsck
    // after a crash sees (the online verifier checks one file at a time). The schedule
    // explorer exists to find exactly this class of bug.
    FaultInjector* injector = pool_.fault_injector();
    if (injector != nullptr && record->writer != kNoLibFs &&
        record->revoked_gen == record->grant_gen && !record->pages.empty() &&
        injector->ShouldFire(kFaultKernelLeakOnRevokedTransfer)) {
      const PageNumber leaked = record->pages.back();
      std::lock_guard<std::mutex> guard(alloc_mu_);
      free_pages_by_node_[pool_.NodeOfPage(leaked)].push_back(leaked);
    }

    // Fresh children become live files with shadow inodes and an implicit write grant to
    // their creator (their own pages reconcile at their own first verification).
    for (const NewChildInfo& child : report.new_children) {
      if (writer != nullptr) {
        std::lock_guard<std::mutex> guard(writer->mu);
        writer->leased_inos.erase(child.ino);
      }
      Shard& child_shard = ShardOf(child.ino);
      SetInoStateLocked(child_shard, child.ino,
                        InoState{ResourceState::kOwned, kNoLibFs, ino});

      FileRecord fresh;
      fresh.ino = child.ino;
      fresh.parent = ino;
      fresh.is_dir = child.is_dir;
      fresh.dirent_page = child.dirent_page;
      fresh.dirent_slot = child.dirent_slot;
      fresh.first_index_page = child.first_index_page;

      ShadowInode shadow{child.mode, child.uid, child.gid, 1};
      ShadowInode* slot = ShadowInodeOf(pool_, child.ino);
      pool_.Write(slot, &shadow, sizeof(shadow));
      obs::PersistSpan(pool_, &persist_stats_).PersistNow(slot, sizeof(shadow));

      if (writer_id != kNoLibFs) {
        fresh.writer = writer_id;
        BumpGrantGenLocked(child_shard, &fresh);
        fresh.lease_deadline_ns = NowNs() + config_.lease_ms * 1000000ull;
        if (writer != nullptr) {
          std::lock_guard<std::mutex> guard(writer->mu);
          writer->write_mapped.insert(child.ino);
        }
        WmapLogAdd(child.ino);
        // The implicit write grant's dirent-page reference: the child's co-located inode
        // lives in a page the writer already maps through the parent, and the child's
        // own teardown will release one RW dirent reference — without this matching
        // grant it would consume the parent mapping's reference (refcounted MMU).
        if (child.dirent_page != 0) {
          mmu_.Grant(writer_id, child.dirent_page, PagePerm::kReadWrite);
        }
      }
      auto [it, inserted] = child_shard.records.emplace(child.ino, std::move(fresh));
      if (inserted && it->second.writer != kNoLibFs) {
        (void)TakeCheckpointLocked(&it->second);
        PublishGrantLocked(it->second, writer_id, /*writable=*/true);
      }
    }

    // Renames into this directory.
    for (const MovedInChild& moved : report.moved_in) {
      Shard& child_shard = ShardOf(moved.ino);
      FileRecord* child = FindRecordLocked(child_shard, moved.ino);
      if (child == nullptr) {
        continue;
      }
      // The co-located inode moved to a new parent data page: every holder's MMU
      // reference on the old dirent page must move with it, or the old page keeps a
      // stale justification and the new one underflows at unmap.
      if (child->dirent_page != moved.dirent_page) {
        if (child->writer != kNoLibFs) {
          if (child->dirent_page != 0) {
            mmu_.Revoke(child->writer, child->dirent_page, PagePerm::kReadWrite);
          }
          if (moved.dirent_page != 0) {
            mmu_.Grant(child->writer, moved.dirent_page, PagePerm::kReadWrite);
          }
        }
        for (LibFsId reader : child->readers) {
          if (child->dirent_page != 0) {
            mmu_.Revoke(reader, child->dirent_page, PagePerm::kRead);
          }
          if (moved.dirent_page != 0) {
            mmu_.Grant(reader, moved.dirent_page, PagePerm::kRead);
          }
        }
      }
      child->parent = ino;
      child->dirent_page = moved.dirent_page;
      child->dirent_slot = moved.dirent_slot;
      auto state_it = child_shard.ino_states.find(moved.ino);
      InoState state = state_it != child_shard.ino_states.end() ? state_it->second
                                                                : InoState{};
      state.parent = ino;
      SetInoStateLocked(child_shard, moved.ino, state);
      grant_cache_.Erase(moved.ino);  // Cached dirent location went stale.
      if (writer != nullptr) {
        std::lock_guard<std::mutex> guard(writer->mu);
        writer->pending_orphans.erase(moved.ino);
      }
    }

    // Children that vanished: deleted, or renamed to a directory we have not verified
    // yet.
    for (Ino removed : report.removed_children) {
      Shard& child_shard = ShardOf(removed);
      auto state_it = child_shard.ino_states.find(removed);
      if (state_it == child_shard.ino_states.end() || state_it->second.parent != ino) {
        continue;  // Already moved elsewhere or reclaimed.
      }
      if (writer != nullptr) {
        std::lock_guard<std::mutex> guard(writer->mu);
        writer->pending_orphans.insert(removed);
      } else if (FindRecordLocked(child_shard, removed) != nullptr) {
        reclaim.push_back(removed);
      }
    }
  }  // span released

  for (Ino r : reclaim) {
    ReclaimTree(r);
  }
  return OkStatus();
}

void KernelController::ResolveOrphans(const std::shared_ptr<LibFsRecord>& libfs) {
  // Anything still orphaned when the writer's session quiesces was deleted, not renamed.
  std::vector<Ino> orphans;
  {
    std::lock_guard<std::mutex> guard(libfs->mu);
    orphans.assign(libfs->pending_orphans.begin(), libfs->pending_orphans.end());
    libfs->pending_orphans.clear();
  }
  for (Ino ino : orphans) {
    bool reclaim = false;
    {
      const size_t si = ShardIndexOf(ino);
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      auto state_it = shards_[si]->ino_states.find(ino);
      // Still owned with the stale parent: a deletion. Directories were checked empty by
      // I3 at parent-verify time.
      reclaim = FindRecordLocked(*shards_[si], ino) != nullptr &&
                state_it != shards_[si]->ino_states.end() &&
                state_it->second.state == ResourceState::kOwned;
    }
    if (reclaim) {
      ReclaimTree(ino);
    }
  }
}

void KernelController::ReclaimTree(Ino root) {
  // Collect the subtree breadth-first (mass deletion by page rewrite is legal
  // tombstoning), scanning one shard at a time, then reclaim leaf-first.
  std::vector<Ino> order{root};
  for (size_t i = 0; i < order.size(); ++i) {
    const Ino cur = order[i];
    for (size_t si = 0; si < shards_.size(); ++si) {
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      for (const auto& [child_ino, child] : shards_[si]->records) {
        if (child.parent == cur && child_ino != cur) {
          order.push_back(child_ino);
        }
      }
    }
  }
  for (size_t i = order.size(); i-- > 0;) {
    ReclaimOne(order[i]);
  }
}

void KernelController::ReclaimOne(Ino ino) {
  std::vector<PageNumber> pages;
  std::vector<uint64_t> backend_slots;
  {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr) {
      return;
    }
    pages = std::move(record->pages);
    backend_slots = std::move(record->backend_slots);
    shards_[si]->records.erase(ino);
    EraseInoStateLocked(*shards_[si], ino);
    grant_cache_.Erase(ino);
  }
  for (PageNumber page : pages) {
    ReleasePageToFree(page);
    stats_.pages_freed.fetch_add(1, std::memory_order_relaxed);
  }
  if (config_.tier.backend != nullptr) {
    for (uint64_t slot : backend_slots) {
      (void)config_.tier.backend->Free(slot, ino);
      tier_stats_.backend_slots_freed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (shadow != nullptr) {
    ShadowInode cleared{};
    pool_.Write(shadow, &cleared, sizeof(cleared));
    obs::PersistSpan(pool_, &persist_stats_).PersistNow(shadow, sizeof(cleared));
  }
  WmapLogRemove(ino);
  // The ino returns to the free pool LAST: nothing above may observe it re-leased while
  // its old record is still being torn down.
  std::lock_guard<std::mutex> guard(alloc_mu_);
  free_inos_.push_back(ino);
}

Status KernelController::TakeCheckpointLocked(FileRecord* record) {
  auto checkpoint = std::make_unique<FileCheckpointData>();
  checkpoint->meta = *DirentOfLocked(*record);

  auto copy_page = [&](PageNumber page) {
    checkpoint->pages.push_back(page);
    auto content = std::make_unique<char[]>(kPageSize);
    std::memcpy(content.get(), pool_.PageAddress(page), kPageSize);
    checkpoint->contents.push_back(std::move(content));
  };

  // §4.3: checkpoint the file's metadata — index pages for a regular file; both index and
  // data pages for a directory (directory data pages *are* metadata).
  const PageNumber first = checkpoint->meta.first_index_page;
  TRIO_RETURN_IF_ERROR(ForEachIndexPage(pool_, first, [&](PageNumber page) -> Status {
    copy_page(page);
    return OkStatus();
  }));
  if (record->is_dir) {
    TRIO_RETURN_IF_ERROR(
        ForEachDataPage(pool_, first, [&](uint64_t, PageNumber page) -> Status {
          copy_page(page);
          return OkStatus();
        }));
    TRIO_RETURN_IF_ERROR(ForEachDirent(
        pool_, first, [&](DirentBlock* child, PageNumber page, size_t slot) -> Status {
          checkpoint->children.push_back(
              CheckpointChild{child->ino, child->IsDirectory(), page, slot});
          return OkStatus();
        }));
  }
  record->checkpoint = std::move(checkpoint);
  return OkStatus();
}

void KernelController::QuarantineLocked(FileRecord* record, const Status& reason) {
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  QuarantineEntry entry;
  entry.offender = record->writer;
  entry.error = reason;
  entry.sequence = ++quarantine_sequence_;
  for (PageNumber page : record->pages) {
    std::vector<char> image(kPageSize);
    std::memcpy(image.data(), pool_.PageAddress(page), kPageSize);
    entry.images.push_back(std::move(image));
  }
  quarantine_fifo_.emplace_back(entry.sequence, record->ino);
  quarantine_[record->ino] = std::move(entry);
  stats_.files_quarantined.fetch_add(1, std::memory_order_relaxed);

  // Bound kernel memory: an adversary corrupting file after file must not grow the
  // quarantine without limit. Evict oldest-first off the sequence-ordered FIFO —
  // O(1) amortized, where the old whole-map min-scan was O(n) per insert (O(n²) for a
  // corruption storm, a kernel-side DoS amplifier). Entries whose sequence no longer
  // matches the map (retrieved, or re-quarantined with a newer image) are stale; skip
  // them lazily.
  while (config_.max_quarantined_files != 0 &&
         quarantine_.size() > config_.max_quarantined_files &&
         !quarantine_fifo_.empty()) {
    const auto [sequence, ino] = quarantine_fifo_.front();
    quarantine_fifo_.pop_front();
    auto it = quarantine_.find(ino);
    if (it == quarantine_.end() || it->second.sequence != sequence) {
      continue;  // Stale FIFO entry.
    }
    quarantine_.erase(it);
    stats_.quarantine_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::vector<char>> KernelController::RetrieveQuarantine(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, "RetrieveQuarantine");
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  auto it = quarantine_.find(ino);
  if (it == quarantine_.end() || it->second.offender != libfs) {
    return {};
  }
  std::vector<std::vector<char>> images = std::move(it->second.images);
  quarantine_.erase(it);  // The FIFO entry goes stale and is skipped at eviction time.
  return images;
}

Status KernelController::QuarantineErrorOf(Ino ino) const {
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  auto it = quarantine_.find(ino);
  if (it == quarantine_.end()) {
    return NotFound("ino not quarantined");
  }
  return it->second.error;
}

size_t KernelController::QuarantineCount() const {
  std::lock_guard<std::mutex> guard(quarantine_mu_);
  return quarantine_.size();
}

void KernelController::RollbackToCheckpointLocked(FileRecord* record) {
  FileCheckpointData* checkpoint = record->checkpoint.get();
  DirentBlock* dirent = DirentOfLocked(*record);
  // One span for the whole rollback protocol: page restores batch under a single fence,
  // metadata and scrub writes each fence at their original points.
  obs::PersistSpan span(pool_, &persist_stats_);
  if (checkpoint == nullptr) {
    // A brand-new file with no checkpoint: the safe state is "empty". (Residual MMU
    // references on the freed pages intentionally persist until the holder unregisters —
    // matching the pre-shard behavior the attack tests pin down.)
    DirentBlock cleared = *dirent;
    cleared.first_index_page = 0;
    cleared.size = 0;
    pool_.Write(dirent, &cleared, sizeof(cleared));
    span.PersistNow(dirent, sizeof(cleared));
    record->first_index_page = 0;
    for (PageNumber page : record->pages) {
      ReleasePageToFree(page);
    }
    record->pages.clear();
    return;
  }

  // Restore checkpointed page images where the page still belongs to this file.
  for (size_t i = 0; i < checkpoint->pages.size(); ++i) {
    const PageNumber page = checkpoint->pages[i];
    const PageState state = page_table_.Get(page);
    if (state.state == ResourceState::kOwned && state.owner == record->ino) {
      pool_.Write(pool_.PageAddress(page), checkpoint->contents[i].get(), kPageSize);
      span.Persist(pool_.PageAddress(page), kPageSize);
    }
  }
  span.ForceFence();

  // Restore the metadata (the dirent+inode block). Size mismatches against surviving data
  // resolve as holes, which read back as zeros ("trimming or padding zero bits", §4.3).
  pool_.Write(dirent, &checkpoint->meta, sizeof(checkpoint->meta));
  span.PersistNow(dirent, sizeof(checkpoint->meta));
  record->first_index_page = checkpoint->meta.first_index_page;

  // Scrub: drop index entries that reference pages this file no longer owns, and rebuild
  // the owned-page set from the restored chain.
  std::vector<PageNumber> restored;
  Status scrub = ForEachIndexPage(pool_, record->first_index_page, [&](PageNumber p) -> Status {
    const PageState state = page_table_.Get(p);
    if (state.state != ResourceState::kOwned || state.owner != record->ino) {
      return Corrupted("restored chain broken");
    }
    restored.push_back(p);
    auto* index = reinterpret_cast<IndexPage*>(pool_.PageAddress(p));
    for (size_t i = 0; i < kIndexEntriesPerPage; ++i) {
      const PageNumber entry = index->entries[i];
      if (entry == 0) {
        continue;
      }
      if (IsTierEntry(entry)) {
        // A restored tier entry is legitimate iff its slot is still recorded for this
        // file (digestion never touches write-mapped files, so the recorded set is
        // stable across the whole write session). Anything else — a forged or stale
        // digested-page mapping the writer smuggled in — scrubs to a hole.
        if (!std::binary_search(record->backend_slots.begin(), record->backend_slots.end(),
                                TierSlotOfEntry(entry))) {
          span.CommitStore64(&index->entries[i], 0);
        }
        continue;
      }
      const PageState entry_state = page_table_.Get(entry);
      const bool owned = entry_state.state == ResourceState::kOwned &&
                         entry_state.owner == record->ino;
      if (!owned) {
        span.CommitStore64(&index->entries[i], 0);
      } else {
        restored.push_back(entry);
      }
    }
    return OkStatus();
  });
  if (!scrub.ok()) {
    // The chain head itself was lost; fall back to an empty file.
    DirentBlock cleared = checkpoint->meta;
    cleared.first_index_page = 0;
    cleared.size = 0;
    pool_.Write(dirent, &cleared, sizeof(cleared));
    span.PersistNow(dirent, sizeof(cleared));
    record->first_index_page = 0;
    restored.clear();
  }

  // Same shape as every FileRecord page set: sorted and unique.
  std::sort(restored.begin(), restored.end());
  restored.erase(std::unique(restored.begin(), restored.end()), restored.end());
  // Pages that were owned but are no longer reachable go back to the free pool.
  for (PageNumber page : record->pages) {
    if (std::binary_search(restored.begin(), restored.end(), page)) {
      continue;
    }
    if (record->writer != kNoLibFs) {
      mmu_.Revoke(record->writer, page, PagePerm::kReadWrite);
    }
    ReleasePageToFree(page);
  }
  record->pages = std::move(restored);
}

}  // namespace trio
