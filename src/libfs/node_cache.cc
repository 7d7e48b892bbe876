// ArckFs node + mapping machinery: the in-DRAM FileNode table, kernel map/unmap
// handshakes, the op-lock acquisition protocol, revocation, and auxiliary-state rebuild.

#include <thread>

#include "src/libfs/arckfs.h"
#include "src/libfs/arckfs_internal.h"
#include "src/obs/op_context.h"

namespace trio {

ArckFs::NodePtr ArckFs::GetOrCreateNode(Ino ino, Ino parent, bool is_dir,
                                        DirentBlock* dirent) {
  NodeShard& shard = NodeShardOf(ino);
  std::lock_guard<std::mutex> guard(shard.mutex);
  auto it = shard.nodes.find(ino);
  if (it != shard.nodes.end()) {
    if (dirent != nullptr && it->second->dirent == nullptr) {
      it->second->dirent = dirent;
    }
    return it->second;
  }
  auto node = std::make_shared<FileNode>();
  node->ino = ino;
  node->parent = parent;
  node->is_dir = is_dir;
  node->dirent = dirent;
  shard.nodes[ino] = node;
  return node;
}

ArckFs::NodePtr ArckFs::FindNode(Ino ino) {
  NodeShard& shard = NodeShardOf(ino);
  std::lock_guard<std::mutex> guard(shard.mutex);
  auto it = shard.nodes.find(ino);
  return it == shard.nodes.end() ? nullptr : it->second;
}

void ArckFs::DropNode(Ino ino) {
  NodePtr dropped;  // Destroyed after the unlock: a FileNode's teardown is not cheap.
  NodeShard& shard = NodeShardOf(ino);
  std::lock_guard<std::mutex> guard(shard.mutex);
  auto it = shard.nodes.find(ino);
  if (it != shard.nodes.end()) {
    dropped = std::move(it->second);
    shard.nodes.erase(it);
  }
}

Status ArckFs::EnsureMapped(FileNode* node, bool write) {
  obs::TraceSpan span("EnsureMapped");
  std::unique_lock<std::mutex> guard(node->map_mutex);
  const int need = write ? 2 : 1;
  for (;;) {
    if (!node->stale.load(std::memory_order_acquire) &&
        node->map_state.load(std::memory_order_acquire) >= need) {
      return OkStatus();
    }
    const bool was_unmapped =
        node->map_state.load(std::memory_order_relaxed) == 0 || node->stale.load();
    const uint64_t revision = node->map_revision;
    // The kernel crossing runs WITHOUT our node lock: MapFile may synchronously revoke
    // the conflicting holder, and that holder's RevokeNode takes its own node's
    // map_mutex — holding ours across the call is an ABBA inversion when two tenants
    // revoke each other. If a revoke of THIS node lands in the unlocked window the
    // revision moves and the (now possibly stale) grant is simply requested again.
    guard.unlock();
    // Grant revalidation first: if the kernel still holds our grant (seqlock cache hit —
    // no shard mutex on the kernel side), skip the full MapFile. Safe against concurrent
    // revocation because RevokeNode holds this node's map_mutex for its whole duration:
    // any revoke serializes either before this window (revision moves, we retry) or
    // after we re-lock (stale flips and the next op remaps).
    Result<MapInfo> mapped = kernel_.LookupGrant(libfs_, node->ino);
    if (!mapped.ok() || (write && !mapped->writable)) {
      mapped = kernel_.MapFile(libfs_, node->parent, node->ino, write);
    }
    guard.lock();
    TRIO_RETURN_IF_ERROR(mapped.status());
    if (node->map_revision != revision) {
      continue;
    }
    const MapInfo& info = *mapped;
    if (info.dirent_page == 0) {
      node->dirent = &SuperblockOf(pool_)->root;
    } else {
      auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(info.dirent_page));
      node->dirent = &page->slots[info.dirent_slot];
    }
    if (was_unmapped) {
      TRIO_RETURN_IF_ERROR(RebuildAux(node));
    }
    node->stale.store(false, std::memory_order_release);
    node->map_state.store(info.writable ? 2 : 1, std::memory_order_release);
    return OkStatus();
  }
}

Status ArckFs::AcquireOpLock(FileNode* node, int level) {
  for (int attempt = 0;; ++attempt) {
    if (node->stale.load(std::memory_order_acquire) ||
        node->map_state.load(std::memory_order_acquire) < level) {
      TRIO_RETURN_IF_ERROR(EnsureMapped(node, level == 2));
    }
    node->op_lock.lock_shared();
    if (!node->stale.load(std::memory_order_acquire) &&
        node->map_state.load(std::memory_order_acquire) >= level) {
      return OkStatus();
    }
    node->op_lock.unlock_shared();
    if (attempt > 1000) {
      std::this_thread::yield();
    }
  }
}

Status ArckFs::LockForOp(FileNode* node, int level) {
  auto* op = obs::OpContext::Current();
  if (TRIO_OBS_UNLIKELY(op != nullptr)) {
    obs::TraceSpan span("LockForOp");
    const uint64_t t0 = obs::MonotonicNowNs();
    Status status = AcquireOpLock(node, level);
    const uint64_t waited = obs::MonotonicNowNs() - t0;
    op->counters.lock_wait_ns.fetch_add(waited, std::memory_order_relaxed);
    stats_.lock_wait_ns.fetch_add(waited);
    return status;
  }
  return AcquireOpLock(node, level);
}

void ArckFs::RevokeNode(Ino ino) {
  NodePtr node = FindNode(ino);
  if (node == nullptr) {
    (void)kernel_.UnmapFile(libfs_, ino);
    return;
  }
  std::lock_guard<std::mutex> guard(node->map_mutex);
  ++node->map_revision;  // Invalidate any MapFile grant in flight in EnsureMapped.
  node->stale.store(true, std::memory_order_release);
  node->op_lock.lock();  // Drain in-flight operations.
  if (!config_.sync_data && !node->is_dir) {
    FlushDirtyData(node.get());  // Shared data must be durable before the handoff.
  }
  if (node->locally_created) {
    // The kernel only learns about files we created when the parent directory is
    // verified; reconcile it now so the unmap below targets a known record. Harmless if
    // the parent was already released (the kernel reconciled it then).
    (void)kernel_.CommitFile(libfs_, node->parent);
  }
  // Always answer the kernel, even when we believe we hold nothing: the kernel may
  // carry an implicit write grant for this ino (created when a parent-directory commit
  // reconciled our locally-created children AFTER we had already torn down the node).
  // Skipping the unmap here left that grant in place and the revoking mapper looping on
  // completed-but-ineffective revoke callbacks. UnmapFile is idempotent — it returns
  // kNotFound/kInvalidArgument when there is truly nothing to release.
  (void)kernel_.UnmapFile(libfs_, ino);
  // Drop auxiliary state; it is rebuilt from the (possibly verified-and-rolled-back) core
  // state on the next access.
  node->radix.Clear();
  node->index_pages.clear();
  node->reuse_pages.clear();
  {
    // Promoted tier copies go too — after the handoff the kernel may digest a newer
    // version of these pages, and a stale cached copy would serve old bytes.
    std::vector<PageNumber> recycled;
    promote_cache_.EraseFile(ino, &recycled);
    for (PageNumber p : recycled) {
      leases_.RecyclePage(p);
    }
  }
  node->dir_index.reset();
  node->dir_tails.clear();
  node->dir_index_pages.clear();
  node->dir_next_entry = 0;
  node->locally_created = false;
  node->map_state.store(0, std::memory_order_release);
  node->op_lock.unlock();
  node->stale.store(false, std::memory_order_release);
  stats_.revocations.fetch_add(1, std::memory_order_relaxed);
}

void ArckFs::OnQuarantine(Ino ino, const Status& reason) {
  {
    std::lock_guard<std::mutex> guard(quarantine_mutex_);
    quarantine_notices_.emplace_back(ino, reason);
  }
  NodePtr node = FindNode(ino);
  if (node != nullptr) {
    // The kernel already stripped the mapping and rolled the file back; staleness makes
    // the next op re-map and rebuild auxiliary state from the restored core state. No
    // drain here: this may run on a watchdog thread while our own unmap holds the node.
    node->stale.store(true, std::memory_order_release);
  }
}

std::vector<std::pair<Ino, Status>> ArckFs::QuarantineNotices() {
  std::lock_guard<std::mutex> guard(quarantine_mutex_);
  return quarantine_notices_;
}

Status ArckFs::RebuildAux(FileNode* node) {
  obs::TraceSpan span("RebuildAux");
  const uint64_t t0 = kernel_.clock()->NowNs();
  TRIO_CHECK(node->dirent != nullptr);
  const PageNumber first = node->dirent->first_index_page;

  if (!node->is_dir) {
    node->radix.Clear();
    node->index_pages.clear();
    node->reuse_pages.clear();
    TRIO_RETURN_IF_ERROR(ForEachIndexPage(pool_, first, [&](PageNumber p) -> Status {
      node->index_pages.push_back(p);
      return OkStatus();
    }));
    // Raw entries, tier tags included: the radix mirrors the index chain verbatim so
    // the data path can distinguish NVM pages from digested (tagged) mappings.
    TRIO_RETURN_IF_ERROR(
        ForEachDataEntry(pool_, first, [&](uint64_t index, uint64_t entry) -> Status {
          node->radix.Insert(index, entry);
          return OkStatus();
        }));
    // Promoted copies from a previous mapping epoch are untrustworthy: the pages may
    // have been rewritten and re-digested to new slots while we held no grant.
    std::vector<PageNumber> recycled;
    promote_cache_.EraseFile(node->ino, &recycled);
    for (PageNumber p : recycled) {
      leases_.RecyclePage(p);
    }
  } else {
    node->dir_index = std::make_unique<DirIndex>();
    node->dir_tails.clear();
    node->dir_tail_index.clear();
    node->dir_first_nonfull.store(0, std::memory_order_relaxed);
    node->dir_index_pages.clear();
    node->dir_next_entry = 0;
    TRIO_RETURN_IF_ERROR(ForEachIndexPage(pool_, first, [&](PageNumber p) -> Status {
      node->dir_index_pages.push_back(p);
      return OkStatus();
    }));
    TRIO_RETURN_IF_ERROR(
        ForEachDataPage(pool_, first, [&](uint64_t, PageNumber p) -> Status {
          auto tail = std::make_unique<FileNode::DirTail>();
          tail->page = p;
          auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(p));
          uint32_t live = 0;
          for (uint32_t s = 0; s < kDirentsPerPage; ++s) {
            const DirentBlock& d = page->slots[s];
            if (d.IsFree()) {
              continue;
            }
            ++live;
            node->dir_index->Insert(d.Name(),
                                    DirSlot{p, s, d.ino, d.IsDirectory()});
          }
          tail->full.store(live == kDirentsPerPage, std::memory_order_relaxed);
          node->dir_tail_index[p] = node->dir_tails.size();
          node->dir_tails.push_back(std::move(tail));
          return OkStatus();
        }));
    if (!node->dir_index_pages.empty()) {
      const auto* last =
          reinterpret_cast<const IndexPage*>(pool_.PageAddress(node->dir_index_pages.back()));
      size_t used = 0;
      for (size_t i = 0; i < kIndexEntriesPerPage; ++i) {
        if (last->entries[i] != 0) {
          used = i + 1;
        }
      }
      node->dir_next_entry = used;
    }
  }
  stats_.rebuilds.fetch_add(1, std::memory_order_relaxed);
  stats_.rebuild_ns.fetch_add(kernel_.clock()->NowNs() - t0, std::memory_order_relaxed);
  return OkStatus();
}

}  // namespace trio
