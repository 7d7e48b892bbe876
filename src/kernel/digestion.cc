// Tiering: background digestion NVM -> slow backend and the promote-back read path
// (DESIGN.md §4.11). Fourth translation unit of KernelController (see controller.cc).
//
// Migration/grant coherence reuses the verification protocol: DigestFile pins the
// record's `busy` flag under the shard lock, then copies and rewrites index entries with
// NO shard held. MapFile/LookupGrant wait on the shard cv while a record is busy, so a
// grant can never observe a half-migrated file, and digestion skips any file that has a
// writer, readers, or an in-flight verification.
//
// Crash ordering per batch (one fence total, PersistSpan-amortized):
//   1. copy each cold page to the backend (write-once slot, data never erased);
//   2. Store64 + Persist the tagged tier entry over the old page number;
//   3. ONE fence;
//   4. only then free the NVM pages.
// Freeing before the fence would let a recycled page be rewritten while the OLD index
// entry could still materialize after a crash — the classic lost-in-flight page. With
// this order every crash point yields either the old entry (page intact, slot leaked
// and unowned — harmless) or the new entry (backend slot adopted at remount).

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/kernel/controller.h"
#include "src/kernel/digestion.h"
#include "src/kernel/syscall_boundary.h"
#include "src/obs/persist_span.h"
#include "src/sim/backend.h"

namespace trio {

// ---------------------------------------------------------------------------
// DigestionService: the pacing thread
// ---------------------------------------------------------------------------

DigestionService::DigestionService(KernelController& kernel) : kernel_(kernel) {
  thread_ = std::thread([this] { Run(); });
}

DigestionService::~DigestionService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void DigestionService::Nudge() { cv_.notify_all(); }

void DigestionService::Run() {
  const TierConfig& tier = kernel_.config().tier;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(tier.scan_interval_ms),
                   [this] { return stop_; });
      if (stop_) {
        return;
      }
    }
    if (kernel_.NvmOccupancy() < tier.high_watermark) {
      continue;
    }
    // Above the high watermark: digest batch by batch down to the low watermark,
    // re-checking the stop flag between batches so teardown never waits on a sweep.
    while (kernel_.NvmOccupancy() > tier.low_watermark) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) {
          return;
        }
      }
      if (kernel_.DigestNow(tier.batch_pages) == 0) {
        break;  // Nothing cold enough left; wait for the next scan.
      }
    }
  }
}

// ---------------------------------------------------------------------------
// KernelController tiering methods
// ---------------------------------------------------------------------------

void KernelController::StartDigestion() {
  if (digestion_ == nullptr && config_.tier.backend != nullptr) {
    digestion_ = std::make_unique<DigestionService>(*this);
  }
}

double KernelController::NvmOccupancy() const {
  if (file_region_pages_ == 0) {
    return 0.0;
  }
  const size_t free_pages = FreePageCount();
  return 1.0 - static_cast<double>(free_pages) / static_cast<double>(file_region_pages_);
}

std::vector<Ino> KernelController::CollectDigestCandidates(size_t max_files) {
  std::vector<std::pair<uint64_t, Ino>> cold;  // (last_use_ns, ino)
  for (size_t si = 0; si < shards_.size(); ++si) {
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    for (const auto& [ino, record] : shards_[si]->records) {
      if (record.is_dir || record.busy || record.writer != kNoLibFs ||
          !record.readers.empty()) {
        continue;
      }
      // pages holds the index chain too; a file with <= 1 page has no data to migrate.
      if (record.pages.size() < 2) {
        continue;
      }
      cold.emplace_back(record.last_use_ns, ino);
    }
  }
  std::sort(cold.begin(), cold.end());  // Coldest (least recently granted) first.
  if (cold.size() > max_files) {
    cold.resize(max_files);
  }
  std::vector<Ino> out;
  out.reserve(cold.size());
  for (const auto& [ns, ino] : cold) {
    out.push_back(ino);
  }
  return out;
}

size_t KernelController::DigestFile(Ino ino, size_t max_pages) {
  SlowBackend* backend = config_.tier.backend;
  if (backend == nullptr || max_pages == 0) {
    return 0;
  }
  // Phase 1: pin. Re-validate digestibility under the shard lock — the cold scan ran
  // unlocked, and a grant may have landed since.
  PageNumber first_index_page = 0;
  {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    if (record == nullptr || record->is_dir || record->busy ||
        record->writer != kNoLibFs || !record->readers.empty()) {
      return 0;
    }
    record->busy = true;  // Pin: no grant/release/reclaim until the batch commits.
    first_index_page = record->first_index_page;
  }

  // Phase 2: migrate with no shard held. The busy pin means nobody can map, write, or
  // reclaim the file, so the chain is stable; the backend write precedes the entry
  // persist, and one fence covers the whole batch.
  std::vector<std::pair<PageNumber, uint64_t>> moved;  // (old NVM page, backend slot)
  {
    obs::PersistSpan span(pool_, &persist_stats_);
    PageNumber index_page = first_index_page;
    uint64_t visited = 0;
    char buf[kPageSize];
    while (index_page != 0 && moved.size() < max_pages) {
      if (!ValidFilePage(pool_, index_page) || ++visited > pool_.num_pages()) {
        break;  // Reconciled state should never be damaged; leave it for the verifier.
      }
      auto* index = reinterpret_cast<IndexPage*>(pool_.PageAddress(index_page));
      for (size_t i = 0; i < kIndexEntriesPerPage && moved.size() < max_pages; ++i) {
        const uint64_t entry = index->entries[i];
        if (entry == 0 || IsTierEntry(entry) || !ValidFilePage(pool_, entry)) {
          continue;
        }
        pool_.Read(buf, pool_.PageAddress(entry), kPageSize);
        const uint64_t slot = backend->WritePage(buf, ino);
        pool_.Store64(&index->entries[i], MakeTierEntry(slot));
        span.Persist(&index->entries[i], sizeof(uint64_t));
        moved.emplace_back(entry, slot);
      }
      index_page = index->next;
    }
    if (!moved.empty()) {
      span.Fence();  // Tier entries durable BEFORE any of their old pages can recycle.
    }
  }

  // Phase 3: unpin and account. The record cannot have vanished — reclaim waits out busy.
  {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = FindRecordLocked(*shards_[si], ino);
    TRIO_CHECK(record != nullptr && record->busy);
    // Both sets stay sorted: drop the moved pages in one pass, then merge in the new
    // slots, which the backend minted in ascending order.
    std::vector<PageNumber> gone;
    gone.reserve(moved.size());
    const size_t old_slots = record->backend_slots.size();
    for (const auto& [page, slot] : moved) {
      gone.push_back(page);
      record->backend_slots.push_back(slot);
    }
    std::sort(gone.begin(), gone.end());
    std::vector<PageNumber>& pages = record->pages;
    pages.erase(std::remove_if(pages.begin(), pages.end(),
                               [&](PageNumber page) {
                                 return std::binary_search(gone.begin(), gone.end(), page);
                               }),
                pages.end());
    std::inplace_merge(record->backend_slots.begin(),
                       record->backend_slots.begin() + old_slots,
                       record->backend_slots.end());
    if (!moved.empty()) {
      // Bump the dirent generation so a LibFS with auxiliary state cached over the old
      // entries rebuilds it on the next map (same contract as a write grant).
      DirentBlock* dirent = DirentOfLocked(*record);
      obs::PersistSpan(pool_, &persist_stats_)
          .CommitStore64(&dirent->generation, dirent->generation + 1);
    }
    record->busy = false;
    shards_[si]->cv.notify_all();
  }
  grant_cache_.Erase(ino);
  for (const auto& [page, slot] : moved) {
    ReleasePageToFree(page);
  }
  if (!moved.empty()) {
    tier_stats_.digest_batches.fetch_add(1, std::memory_order_relaxed);
    tier_stats_.digest_pages.fetch_add(moved.size(), std::memory_order_relaxed);
    tier_stats_.digest_bytes.fetch_add(moved.size() * kPageSize,
                                       std::memory_order_relaxed);
  }
  return moved.size();
}

size_t KernelController::DigestNow(size_t target_pages) {
  if (config_.tier.backend == nullptr || target_pages == 0) {
    return 0;
  }
  size_t total = 0;
  // One candidate sweep per call; the background loop calls again if still above the
  // watermark. Oversample the candidate list: some picks race a fresh grant and yield 0.
  const std::vector<Ino> candidates = CollectDigestCandidates(target_pages);
  for (Ino ino : candidates) {
    if (total >= target_pages) {
      break;
    }
    total += DigestFile(ino, target_pages - total);
  }
  return total;
}

Status KernelController::PromoteRead(LibFsId libfs, Ino ino, uint64_t slot,
                                     PageNumber dest) {
  SyscallScope syscall(stats_, "PromoteRead");
  SlowBackend* backend = config_.tier.backend;
  if (backend == nullptr) {
    return InvalidArgument("no backend tier configured");
  }
  std::shared_ptr<LibFsRecord> me = FindLibFs(libfs);
  if (me == nullptr) {
    return InvalidArgument("unknown LibFS");
  }
  // The destination must be an NVM page leased to the caller (it already holds a
  // read-write MMU grant on it from AllocPages).
  const PageState dest_state = page_table_.Get(dest);
  if (dest_state.state != ResourceState::kLeased || dest_state.lessee != libfs) {
    return PermissionDenied("promote destination not leased to caller");
  }
  {
    const size_t si = ShardIndexOf(ino);
    ShardLock sl(shards_[si]->mu, si, &stats_.shard_lock_contended);
    FileRecord* record = WaitNotBusyLocked(*shards_[si], sl.lock(), ino);
    if (record == nullptr) {
      return NotFound("no such file");
    }
    if (record->writer != libfs && record->readers.count(libfs) == 0) {
      return PermissionDenied("caller holds no grant on file");
    }
    if (!std::binary_search(record->backend_slots.begin(), record->backend_slots.end(),
                            slot)) {
      return InvalidArgument("slot is not a tier entry of this file");
    }
  }
  // Copy with no shard held: backend slots are write-once, so the bytes cannot change
  // under us even if the grant state does. Persist + fence the destination so a later
  // index-entry commit referencing it can never become durable ahead of its contents.
  char buf[kPageSize];
  TRIO_RETURN_IF_ERROR(backend->ReadPage(slot, buf));
  obs::PersistSpan span(pool_, &persist_stats_);
  pool_.Write(pool_.PageAddress(dest), buf, kPageSize);
  span.PersistNow(pool_.PageAddress(dest), kPageSize);
  tier_stats_.promote_reads.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status KernelController::CheckTierSlots(Ino ino, const std::vector<uint64_t>& slots) const {
  SlowBackend* backend = config_.tier.backend;
  if (backend == nullptr) {
    return VerifyEnv::CheckTierSlots(ino, slots);  // No backend: every tier entry is forged.
  }
  if (!backend->OwnsAll(ino, slots)) {
    return VerifyFail(VerifyErrorClass::kForeignPage, "I2",
                      "tier entry references a backend slot not owned by this file");
  }
  return OkStatus();
}

}  // namespace trio
