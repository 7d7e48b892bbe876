// KernelController mapping and sharing: file record lookup, page-permission grants and
// revocation (reference counted in MmuSim), MapFile/UnmapFile with lease-based revocation
// of conflicting holders, the lock-free LookupGrant fast path, and forced release of
// unresponsive LibFSes. Part of the KernelController split; see controller.cc for the TU
// map.
//
// Grant/revoke pairing (the refcount contract with MmuSim):
//   AllocPages          +RW per leased page      FreePages(leased)      -RW
//   MapFile(write)      +RW per owned page       FinishWriteRelease     -RW per owned page
//                       +RW dirent page                                 -RW dirent page
//   MapFile(read)       +RO per owned page       UnmapFile(read)        -RO per owned page
//                       +RO dirent page                                 -RO dirent page
//   reconcile: leased page becomes owned — its lease ref is CONSUMED by the write
//   teardown's per-page release (the page is in record.pages by then); new children's
//   implicit write grants add +RW on their dirent page (their pages carry lease refs).
// A read mapping upgraded to write releases its RO refs before the RW grant.

#include "src/kernel/controller.h"

#include "src/kernel/controller_internal.h"
#include "src/kernel/syscall_boundary.h"

namespace trio {

using controller_internal::AccessAllowed;
using controller_internal::PackGrantWord;
using controller_internal::UnpackGrantWord;

KernelController::FileRecord* KernelController::FindRecordLocked(Shard& shard, Ino ino) {
  auto it = shard.records.find(ino);
  return it == shard.records.end() ? nullptr : &it->second;
}

DirentBlock* KernelController::DirentOfLocked(const FileRecord& record) const {
  if (record.dirent_page == 0) {
    return &SuperblockOf(pool_)->root;
  }
  auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(record.dirent_page));
  return &page->slots[record.dirent_slot];
}

namespace {

// A mapping's pages plus its dirent page, gathered for one batched MmuSim call. Reused
// per thread: a handoff grants and revokes a whole file, so this runs twice per transfer.
std::vector<PageNumber>& MappingBatch() {
  thread_local std::vector<PageNumber> batch;
  batch.clear();
  return batch;
}

}  // namespace

void KernelController::GrantFilePagesLocked(LibFsId libfs, const FileRecord& record,
                                            bool write) {
  std::vector<PageNumber>& batch = MappingBatch();
  batch.assign(record.pages.begin(), record.pages.end());
  if (record.dirent_page != 0) {
    // The co-located inode lives in the parent's data page (§4.1): stat needs read, size /
    // metadata updates need write. Page-granularity is the documented caveat here.
    batch.push_back(record.dirent_page);
  }
  mmu_.Grant(libfs, batch, write ? PagePerm::kReadWrite : PagePerm::kRead);
}

void KernelController::RevokeFilePagesLocked(LibFsId libfs, const FileRecord& record,
                                             bool write) {
  std::vector<PageNumber>& batch = MappingBatch();
  for (PageNumber page : record.pages) {
    // Leave leased pages mapped; only release the file's own pages.
    const PageState state = page_table_.Get(page);
    if (state.state == ResourceState::kLeased && state.lessee == libfs) {
      continue;
    }
    batch.push_back(page);
  }
  if (record.dirent_page != 0) {
    // Refcounted: dropping THIS mapping's dirent reference cannot strip a sibling
    // mapping's justification, so the old cross-file "strongest surviving permission"
    // rescan (which read every other record this LibFS had mapped — a cross-shard walk
    // the one-big-mutex silently permitted) is gone.
    batch.push_back(record.dirent_page);
  }
  mmu_.Revoke(libfs, batch, write ? PagePerm::kReadWrite : PagePerm::kRead);
}

void KernelController::PublishGrantLocked(const FileRecord& record, LibFsId holder,
                                          bool writable) {
  const uint64_t words[3] = {record.dirent_page,
                             PackGrantWord(holder, record.dirent_slot, writable),
                             record.lease_deadline_ns};
  grant_cache_.Store(record.ino, words);
}

std::optional<MapInfo> KernelController::TryFastGrant(LibFsId libfs, Ino ino, bool write) {
  uint64_t w[3];
  if (!grant_cache_.Lookup(ino, w)) {
    return std::nullopt;
  }
  LibFsId holder;
  size_t dirent_slot;
  bool writable;
  UnpackGrantWord(w[1], &holder, &dirent_slot, &writable);
  if (holder != libfs) {
    return std::nullopt;
  }
  if (write && !writable) {
    return std::nullopt;
  }
  // Write grants are leases: past the deadline the holder may have been revoked, so only
  // the locked path (which renews) may answer. Read grants don't expire.
  if (writable && NowNs() >= w[2]) {
    return std::nullopt;
  }
  MapInfo info;
  info.dirent_page = static_cast<PageNumber>(w[0]);
  info.dirent_slot = dirent_slot;
  info.writable = writable;
  info.lease_deadline_ns = writable ? w[2] : 0;
  // first_index_page is read fresh from the NVM dirent (it moves on reconcile; the cache
  // word would go stale). Lock-free NVM reads are the LibFS's normal operating condition.
  const DirentBlock* dirent =
      info.dirent_page == 0
          ? &SuperblockOf(pool_)->root
          : &reinterpret_cast<DirDataPage*>(pool_.PageAddress(info.dirent_page))
                 ->slots[dirent_slot];
  info.first_index_page = dirent->first_index_page;
  return info;
}

Result<MapInfo> KernelController::LookupGrant(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, "LookupGrant");
  const uint64_t t0 = NowNs();
  // Fast path: lock-free revalidation against the seqlock grant cache. Asking for the
  // strength we already hold: try write first (a write grant also satisfies reads).
  if (std::optional<MapInfo> fast = TryFastGrant(libfs, ino, /*write=*/false)) {
    stats_.grant_fast_hits.fetch_add(1, std::memory_order_relaxed);
    stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    return *fast;
  }
  stats_.grant_fast_misses.fetch_add(1, std::memory_order_relaxed);

  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  const size_t si = ShardIndexOf(ino);
  ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
  FileRecord* record = FindRecordLocked(*shards_[si], ino);
  if (record == nullptr) {
    return NotFound("no such file");
  }
  // Shadow-inode re-check: permissions may have changed since the grant (Chmod/Chown
  // invalidate the cache precisely so stale grants funnel through this check).
  const ShadowInode* shadow = ShadowInodeOf(pool_, ino);
  if (shadow == nullptr || !shadow->Exists()) {
    return NotFound("file has no shadow inode");
  }
  if (record->writer == libfs) {
    if (!AccessAllowed(*shadow, me->uid, me->gid, /*write=*/true)) {
      return PermissionDenied("access denied by shadow inode");
    }
    record->lease_deadline_ns = NowNs() + config_.lease_ms * 1000000ull;
    record->last_use_ns = NowNs();  // Digestion cold-scan signal.
    PublishGrantLocked(*record, libfs, /*writable=*/true);
    MapInfo info{record->dirent_page, record->dirent_slot, true,
                 record->lease_deadline_ns, DirentOfLocked(*record)->first_index_page};
    stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    return info;
  }
  if (record->readers.count(libfs) != 0 && record->writer == kNoLibFs) {
    if (!AccessAllowed(*shadow, me->uid, me->gid, /*write=*/false)) {
      return PermissionDenied("access denied by shadow inode");
    }
    record->last_use_ns = NowNs();
    PublishGrantLocked(*record, libfs, /*writable=*/false);
    MapInfo info{record->dirent_page, record->dirent_slot, false, 0,
                 DirentOfLocked(*record)->first_index_page};
    stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
    return info;
  }
  return NotFound("no grant held");
}

Result<MapInfo> KernelController::MapRoot(LibFsId libfs, bool write) {
  return MapFile(libfs, kInvalidIno, kRootIno, write);
}

Result<MapInfo> KernelController::MapFile(LibFsId libfs, Ino parent, Ino ino, bool write) {
  SyscallScope syscall(stats_, "MapFile");
  (void)parent;
  const uint64_t t0 = NowNs();
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }

  const size_t si = ShardIndexOf(ino);
  while (true) {
    // Conflict handling that must run unlocked (revoke callbacks, dead-writer
    // verification) is staged out of the locked section and re-evaluated from scratch.
    LibFsId conflict = kNoLibFs;
    std::shared_ptr<LibFsRecord> holder;
    std::function<void(Ino)> revoke;
    uint64_t lease_end = 0;
    uint64_t revoked_gen = 0;
    bool dead_writer = false;

    {
      ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
      FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
      if (record == nullptr) {
        return NotFound("no such file");
      }

      // Permission check against the shadow inode (ground truth).
      const ShadowInode* shadow = ShadowInodeOf(pool_, ino);
      if (shadow == nullptr || !shadow->Exists()) {
        return NotFound("file has no shadow inode");
      }
      if (!AccessAllowed(*shadow, me->uid, me->gid, write)) {
        return PermissionDenied("access denied by shadow inode");
      }

      // Already mapped suitably?
      if (record->writer == libfs) {
        record->lease_deadline_ns = NowNs() + config_.lease_ms * 1000000ull;
        record->last_use_ns = NowNs();
        PublishGrantLocked(*record, libfs, /*writable=*/true);
        MapInfo info{record->dirent_page, record->dirent_slot, true,
                     record->lease_deadline_ns, DirentOfLocked(*record)->first_index_page};
        stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        return info;
      }
      if (!write && record->readers.count(libfs) != 0 && record->writer == kNoLibFs) {
        MapInfo info{record->dirent_page, record->dirent_slot, false, 0,
                     DirentOfLocked(*record)->first_index_page};
        stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        return info;
      }

      // Conflicts: a writer blocks everyone; readers block a writer (§3.2: concurrent
      // read XOR exclusive write). Leases bound how long a holder can stall us; the
      // holder is asked to release via its revoke callback.
      if (record->writer != kNoLibFs && record->writer != libfs) {
        conflict = record->writer;
      } else if (write) {
        for (LibFsId reader : record->readers) {
          if (reader != libfs) {
            conflict = reader;
            break;
          }
        }
      }

      if (conflict == kNoLibFs) {
        // Grant, entirely under this one shard lock.
        if (write) {
          if (record->readers.erase(libfs) > 0) {
            // Upgrading our own read mapping: release the RO references before granting
            // RW ones (refcounted MMU — the old absolute-overwrite Grant hid this).
            {
              std::lock_guard<std::mutex> guard(me->mu);
              me->read_mapped.erase(ino);
            }
            RevokeFilePagesLocked(libfs, *record, /*write=*/false);
          }
          const uint64_t c0 = NowNs();
          Status checkpoint_status = TakeCheckpointLocked(record);
          stats_.checkpoint_ns.fetch_add(NowNs() - c0, std::memory_order_relaxed);
          if (!checkpoint_status.ok()) {
            return checkpoint_status;
          }
          record->writer = libfs;
          record->lease_deadline_ns = NowNs() + config_.lease_ms * 1000000ull;
          {
            std::lock_guard<std::mutex> guard(me->mu);
            me->write_mapped.insert(ino);
          }
          WmapLogAdd(ino);
        } else {
          record->readers.insert(libfs);
          std::lock_guard<std::mutex> guard(me->mu);
          me->read_mapped.insert(ino);
        }
        BumpGrantGenLocked(*shards_[si], record);
        GrantFilePagesLocked(libfs, *record, write);
        record->last_use_ns = NowNs();  // Digestion's cold scan orders by last grant.
        PublishGrantLocked(*record, libfs, write);
        stats_.maps.fetch_add(1, std::memory_order_relaxed);
        MapInfo info{record->dirent_page, record->dirent_slot, write,
                     write ? record->lease_deadline_ns : 0,
                     DirentOfLocked(*record)->first_index_page};
        stats_.map_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        return info;
      }

      holder = FindLibFs(conflict);
      if (holder == nullptr || !holder->callbacks.revoke) {
        // Dead or unresponsive holder: force the release ourselves.
        if (record->writer == conflict) {
          record->busy = true;  // Pin for the verification staged below.
          dead_writer = true;
        } else {
          record->readers.erase(conflict);
          BumpGrantGenLocked(*shards_[si], record);
          if (holder != nullptr) {
            std::lock_guard<std::mutex> guard(holder->mu);
            holder->read_mapped.erase(ino);
          }
          grant_cache_.Erase(ino);
          continue;  // Re-evaluate (more readers may remain).
        }
      } else {
        // The revoke targets the grant generation read here. NOTE: busy is NOT set: the
        // holder's revoke callback calls UnmapFile, which must claim the record itself.
        revoke = holder->callbacks.revoke;
        lease_end = record->lease_deadline_ns;
        revoked_gen = record->grant_gen;
        record->revoked_gen = revoked_gen;
      }
    }  // shard lock released

    if (dead_writer) {
      (void)VerifyAndReconcile(ino);
      FinishWriteRelease(conflict, ino, holder);
      continue;
    }

    // Ask the holder to release. The holder is trusted to cooperate only until its lease
    // expires: the callback is abandoned once it overruns the lease deadline plus grace,
    // so an unresponsive holder cannot stall a mapper.
    ShardRank::AssertNoneHeld();
    stats_.revocations.fetch_add(1, std::memory_order_relaxed);
    const uint64_t now = NowNs();
    const uint64_t remaining_ms =
        lease_end > now ? (lease_end - now + 999999ull) / 1000000ull : 0;
    const Ino revoke_ino = ino;
    if (!callback_guard_.Run(remaining_ms + config_.revoke_grace_ms,
                             [revoke, revoke_ino] { revoke(revoke_ino); })) {
      stats_.callback_timeouts.fetch_add(1, std::memory_order_relaxed);
      TRIO_LOG(kWarn) << "revoke of ino " << ino << " from LibFS " << conflict
                      << " overran the lease deadline; forcing release";
    }
    // The one revocation rule: a holder that still holds the very grant generation we
    // revoked ignored the revoke (or overran it) and is released by force. A moved
    // generation means it answered — possibly re-mapping right after — so it is live
    // and the loop simply revokes again if the conflict remains.
    ForceRelease(ino, conflict, revoked_gen);
  }
}

void KernelController::FinishWriteRelease(LibFsId libfs, Ino ino,
                                          const std::shared_ptr<LibFsRecord>& me) {
  const size_t si = ShardIndexOf(ino);
  {
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    if (record != nullptr) {
      record->writer = kNoLibFs;
      BumpGrantGenLocked(*shards_[si], record);
      record->checkpoint.reset();
      if (me != nullptr) {
        // An unregistered holder's references already fell with RevokeAll.
        RevokeFilePagesLocked(libfs, *record, /*write=*/true);
      }
      grant_cache_.Erase(ino);
      record->busy = false;
    }
    shards_[si]->cv.notify_all();
  }
  WmapLogRemove(ino);
  if (me != nullptr) {
    bool quiesced;
    {
      std::lock_guard<std::mutex> guard(me->mu);
      me->write_mapped.erase(ino);
      quiesced = me->write_mapped.empty();
    }
    if (quiesced) {
      ResolveOrphans(me);
    }
  }
}

void KernelController::ForceRelease(Ino ino, LibFsId holder, uint64_t gen) {
  std::shared_ptr<LibFsRecord> holder_record = FindLibFs(holder);
  const size_t si = ShardIndexOf(ino);
  bool writer_path = false;
  {
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr || record->grant_gen != gen) {
      return;  // The revoked grant is gone: its holder released it.
    }
    if (record->writer == holder) {
      // Same teardown as a cooperative unmap: the holder's work is verified (and rolled
      // back if corrupt) before the lease is handed on. The holder itself gets no say.
      record->busy = true;
      writer_path = true;
    } else if (record->readers.erase(holder) > 0) {
      BumpGrantGenLocked(*shards_[si], record);
      if (holder_record != nullptr) {
        {
          std::lock_guard<std::mutex> guard(holder_record->mu);
          holder_record->read_mapped.erase(ino);
        }
        RevokeFilePagesLocked(holder, *record, /*write=*/false);
      }
      grant_cache_.Erase(ino);
    } else {
      return;
    }
  }
  if (writer_path) {
    (void)VerifyAndReconcile(ino);
    FinishWriteRelease(holder, ino, holder_record);
  }
  stats_.forced_releases.fetch_add(1, std::memory_order_relaxed);
}

Status KernelController::UnmapFile(LibFsId libfs, Ino ino) {
  SyscallScope syscall(stats_, "UnmapFile");
  const uint64_t t0 = NowNs();
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  const size_t si = ShardIndexOf(ino);
  bool writer_path = false;
  {
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr) {
      std::lock_guard<std::mutex> guard(me->mu);
      me->write_mapped.erase(ino);
      me->read_mapped.erase(ino);
      return NotFound("no such file");
    }
    if (record->writer == libfs) {
      record->busy = true;  // Verification runs below, outside the lock.
      writer_path = true;
    } else if (record->readers.erase(libfs) > 0) {
      BumpGrantGenLocked(*shards_[si], record);
      {
        std::lock_guard<std::mutex> guard(me->mu);
        me->read_mapped.erase(ino);
      }
      RevokeFilePagesLocked(libfs, *record, /*write=*/false);
      grant_cache_.Erase(ino);
    } else {
      return InvalidArgument("file not mapped by caller");
    }
  }
  Status result = OkStatus();
  if (writer_path) {
    result = VerifyAndReconcile(ino);
    FinishWriteRelease(libfs, ino, me);
  }
  stats_.unmaps.fetch_add(1, std::memory_order_relaxed);
  stats_.unmap_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
  return result;
}

}  // namespace trio
