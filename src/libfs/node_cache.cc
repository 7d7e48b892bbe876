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

namespace {

// The map word (FileNode::map_word): generation << 2 | level.
constexpr uint64_t kLevelMask = 3;

int LevelOf(uint64_t word) { return static_cast<int>(word & kLevelMask); }

// Level 0 in the next generation. Lock-free: OnQuarantine must not block on the node.
void DropLevel(std::atomic<uint64_t>& word) {
  uint64_t w = word.load(std::memory_order_relaxed);
  while (!word.compare_exchange_weak(w, (w | kLevelMask) + 1)) {
  }
}

}  // namespace

bool ArckFs::MappedAt(const FileNode* node, int level) {
  return LevelOf(node->map_word.load(std::memory_order_acquire)) >= level;
}

Status ArckFs::EnsureMapped(FileNode* node, bool write) {
  obs::TraceSpan span("EnsureMapped");
  std::unique_lock<std::mutex> guard(node->map_mutex);
  const int need = write ? 2 : 1;
  for (;;) {
    uint64_t snapshot = node->map_word.load(std::memory_order_acquire);
    if (LevelOf(snapshot) >= need) {
      return OkStatus();
    }
    // Unlocked across the kernel crossing (FileNode::map_word says why). Whatever moves
    // the word meanwhile (another of our threads mapping the node, a revoke, a
    // quarantine) voids the kernel's answer.
    guard.unlock();
    // Grant revalidation first: if the kernel still holds our grant (seqlock cache hit —
    // no shard mutex on the kernel side), skip the full MapFile.
    Result<MapInfo> mapped = kernel_.LookupGrant(libfs_, node->ino);
    if (!mapped.ok() || (write && !mapped->writable)) {
      mapped = kernel_.MapFile(libfs_, node->parent, node->ino, write);
    }
    guard.lock();
    if (node->map_word.load(std::memory_order_acquire) != snapshot) {
      continue;
    }
    TRIO_RETURN_IF_ERROR(mapped.status());
    const MapInfo& info = *mapped;
    DirentBlock* dirent =
        info.dirent_page == 0
            ? &SuperblockOf(pool_)->root
            : &reinterpret_cast<DirDataPage*>(pool_.PageAddress(info.dirent_page))
                   ->slots[info.dirent_slot];
    // The dirent moves and auxiliary state is rebuilt with ops excluded: an op admitted
    // before a lock-free OnQuarantine may still be running on the old state.
    std::unique_lock<BravoRwLock> ops(node->op_lock, std::defer_lock);
    if (LevelOf(snapshot) == 0 || dirent != node->dirent) {
      ops.lock();
      node->dirent = dirent;
    }
    if (LevelOf(snapshot) == 0) {
      TRIO_RETURN_IF_ERROR(RebuildAux(node));
    }
    if (node->map_word.compare_exchange_strong(
            snapshot, (snapshot & ~kLevelMask) | (info.writable ? 2 : 1))) {
      return OkStatus();
    }
  }
}

void ArckFs::AdoptCreated(FileNode* node) {
  // Its resources are our leases; the kernel learns of it when the parent is verified.
  std::lock_guard<std::mutex> guard(node->map_mutex);
  uint64_t word = node->map_word.load(std::memory_order_acquire);
  if (LevelOf(word) == 0) {
    node->locally_created = true;
    if (node->is_dir) {
      node->dir_index = std::make_unique<DirIndex>();  // Built before level 2 is seen.
    }
    node->map_word.compare_exchange_strong(word, word | 2);
  }
}

Status ArckFs::AcquireOpLock(FileNode* node, int level) {
  for (int attempt = 0;; ++attempt) {
    if (!MappedAt(node, level)) {
      TRIO_RETURN_IF_ERROR(EnsureMapped(node, level == 2));
    }
    node->op_lock.lock_shared();
    if (MappedAt(node, level)) {
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
  DropLevel(node->map_word);  // Also voids any grant in flight in EnsureMapped.
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
  DropAux(node.get());  // Rebuilt from the (possibly rolled-back) core state on next use.
  node->locally_created = false;
  node->op_lock.unlock();
  stats_.revocations.fetch_add(1, std::memory_order_relaxed);
}

void ArckFs::OnQuarantine(Ino ino, const Status& reason) {
  {
    std::lock_guard<std::mutex> guard(quarantine_mutex_);
    quarantine_notices_.emplace_back(ino, reason);
  }
  NodePtr node = FindNode(ino);
  if (node != nullptr) {
    // The kernel already stripped the mapping and rolled the file back; the next op
    // re-maps and rebuilds auxiliary state from the restored core state. No drain here:
    // this may run on a watchdog thread while our own unmap holds the node.
    DropLevel(node->map_word);
  }
}

std::vector<std::pair<Ino, Status>> ArckFs::QuarantineNotices() {
  std::lock_guard<std::mutex> guard(quarantine_mutex_);
  return quarantine_notices_;
}

void ArckFs::DropAux(FileNode* node) {
  node->index_pages.clear();
  node->reuse_pages.clear();
  if (!node->is_dir && node->may_hold_promoted.exchange(false, std::memory_order_relaxed)) {
    // Promoted tier copies go too: after a handoff the kernel may digest a newer version
    // of these pages to new slots, and a stale cached copy would serve old bytes.
    std::vector<PageNumber> recycled;
    promote_cache_.EraseFile(node->ino, &recycled);
    for (PageNumber p : recycled) {
      leases_.RecyclePage(p);
    }
  }
  node->dir_index.reset();
  node->dir_tails.clear();
  node->dir_tail_index.clear();
  node->dir_first_nonfull.store(0, std::memory_order_relaxed);
  node->dir_next_entry = 0;
}

Status ArckFs::RebuildAux(FileNode* node) {
  obs::TraceSpan span("RebuildAux");
  const uint64_t t0 = kernel_.clock()->NowNs();
  TRIO_CHECK(node->dirent != nullptr);
  const PageNumber first = node->dirent->first_index_page;
  DropAux(node);
  // A regular file's page map is its chain's entries, read in place (EntryOf), so its
  // rebuild is this walk of the index pages alone.
  TRIO_RETURN_IF_ERROR(ForEachIndexPage(pool_, first, [&](PageNumber p) -> Status {
    node->index_pages.push_back(p);
    return OkStatus();
  }));
  if (node->is_dir) {
    node->dir_index = std::make_unique<DirIndex>();
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
    if (!node->index_pages.empty()) {
      const auto* last =
          reinterpret_cast<const IndexPage*>(pool_.PageAddress(node->index_pages.back()));
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
