// ArckFS (§4): the generic POSIX-like LibFS built on the Trio architecture. One ArckFs
// instance is one LibFS belonging to one application (or to one trust group whose
// processes share it, §3.2). It realizes the full file system design in userspace:
//
//  * Direct access: after the kernel controller maps a file, every data and metadata
//    operation runs on loads/stores to the core state — no kernel crossing.
//  * Auxiliary state (§4.2): per-file index-page chain (the page map, read in place),
//    readers-writer inode lock + range lock; per-directory resizable chained hash table
//    with per-bucket locks, multiple logging tails and an index tail; fd table; per-CPU
//    leases of pages/inos; per-CPU undo journal.
//  * Crash consistency (§4.4): metadata ops are synchronous and atomic (ordered persists
//    committing on an 8-byte store); data ops are synchronous, not atomic; rename uses the
//    undo journal; fsync is a no-op.
//  * Optane adaptation (§4.5): large accesses are shipped to the kernel's delegation
//    threads (reads >= 32 KiB, writes >= 256 B) and file pages are striped across NUMA
//    nodes by page index.
//
// KVFS and FPFS (§5) subclass this and replace auxiliary state / interfaces — which is
// precisely the customization Trio permits without touching the trusted entities.

#ifndef SRC_LIBFS_ARCKFS_H_
#define SRC_LIBFS_ARCKFS_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/hash.h"
#include "src/common/range_lock.h"
#include "src/common/rwlock.h"
#include "src/kernel/controller.h"
#include "src/libfs/dir_index.h"
#include "src/libfs/fd_table.h"
#include "src/libfs/fs_interface.h"
#include "src/libfs/journal.h"
#include "src/libfs/lease_cache.h"
#include "src/libfs/op_ring.h"
#include "src/libfs/promote_cache.h"
#include "src/obs/stats.h"

namespace trio {

struct ArckFsConfig {
  uint32_t uid = 0;
  uint32_t gid = 0;
  // Ship large copies to the kernel's delegation threads (requires
  // kernel.StartDelegation()). Off = the "ArckFS-no-dele" configuration of §6.
  bool use_delegation = false;
  size_t page_batch = 64;
  size_t ino_batch = 64;
  // §4.4: "Extending the LibFS to support other consistency modes is simple by following
  // the prior approaches." sync_data=false is the relaxed-data mode: data writes skip the
  // per-write flush and become durable at fsync/release; metadata stays synchronous and
  // atomic.
  bool sync_data = true;
  // Journal pages from a previous incarnation to undo during crash recovery (§4.4). The
  // application persists these page numbers across restarts (in a real deployment the
  // LibFS would stash them in a well-known private file).
  std::vector<PageNumber> recover_journal_pages;
  // Optional corruption-fix hook the kernel calls on a failed verification of our file.
  std::function<bool(Ino, const Status&)> fix_corruption;
  // Async submission rings (src/libfs/op_ring.h). enabled=true starts a per-LibFS
  // drainer; application threads then reach ring_engine() for the async path. The
  // synchronous FsInterface API keeps working either way.
  OpRingConfig ring;
  // Promote cache for digested (backend-tier) pages (src/libfs/promote_cache.h).
  // 0 slots = disabled: tier reads still work but pay a kernel promote every time.
  size_t promote_cache_slots = 0;
};

// Registered into obs::StatRegistry under layer "libfs" (summed across instances).
struct LibFsStats {
  obs::Counter rebuilds;
  obs::Counter rebuild_ns;
  obs::Counter reads;
  obs::Counter writes;
  obs::Counter creates;
  obs::Counter unlinks;
  obs::Counter lookups;
  obs::Counter revocations;
  // Cumulative ns ops spent waiting in LockForOp, attributed per-op when tracing is on.
  obs::Counter lock_wait_ns;

  LibFsStats()
      : reg_("libfs", {{"rebuilds", &rebuilds},
                       {"rebuild_ns", &rebuild_ns},
                       {"reads", &reads},
                       {"writes", &writes},
                       {"creates", &creates},
                       {"unlinks", &unlinks},
                       {"lookups", &lookups},
                       {"revocations", &revocations},
                       {"lock_wait_ns", &lock_wait_ns}}) {}

 private:
  obs::ScopedRegistration reg_;
};

class ArckFs : public FsInterface, private RingPassHooks {
 public:
  explicit ArckFs(KernelController& kernel, ArckFsConfig config = {});
  ~ArckFs() override;
  ArckFs(const ArckFs&) = delete;
  ArckFs& operator=(const ArckFs&) = delete;

  // ---- FsInterface ----
  Result<Fd> Open(const std::string& path, OpenFlags flags, uint32_t mode = 0644) override;
  Status Close(Fd fd) override;
  Result<size_t> Read(Fd fd, void* buf, size_t count) override;
  Result<size_t> Write(Fd fd, const void* buf, size_t count) override;
  Result<size_t> Pread(Fd fd, void* buf, size_t count, uint64_t offset) override;
  Result<size_t> Pwrite(Fd fd, const void* buf, size_t count, uint64_t offset) override;
  Result<uint64_t> Seek(Fd fd, uint64_t offset) override;
  Status Fsync(Fd fd) override;
  Status Ftruncate(Fd fd, uint64_t size) override;
  Status Mkdir(const std::string& path, uint32_t mode = 0755) override;
  Status Rmdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Result<StatInfo> Stat(const std::string& path) override;
  Result<std::vector<DirEntryInfo>> ReadDir(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status Chmod(const std::string& path, uint32_t perm) override;
  std::string Name() const override { return "ArckFS"; }

  // ---- Trio extensions ----
  // Voluntarily release this LibFS's mapping of `path` (write release triggers
  // verification; §6.5's sharing benchmarks call this between operations).
  Status ReleaseFile(const std::string& path);
  // Verify + re-checkpoint without releasing (§4.3 commit call).
  Status Commit(const std::string& path);

  LibFsId id() const { return libfs_; }
  KernelController& kernel() { return kernel_; }
  LibFsStats& libfs_stats() { return stats_; }
  // Quarantine notices the kernel delivered: (ino, structured VerifyError status). The
  // lease is already gone when one arrives; the node's cached state was invalidated.
  std::vector<std::pair<Ino, Status>> QuarantineNotices();
  // Non-null iff config.ring.enabled: the async submission path into this LibFS.
  OpRingEngine* ring_engine() { return ring_engine_.get(); }
  // The digested-page promote cache (tier hit-rate counters live in its stats()).
  PromoteCache& promote_cache() { return promote_cache_; }
  // The lease cache (async/sync refill counters).
  LeaseCache& leases() { return leases_; }
  // Current journal page numbers (persist these to recover after a crash).
  std::vector<PageNumber> JournalPages();

 protected:
  // Per-ino auxiliary state. Directories and regular files share the node type; the
  // directory members stay null for files and vice versa.
  struct FileNode {
    Ino ino = kInvalidIno;
    Ino parent = kInvalidIno;
    bool is_dir = false;
    bool locally_created = false;  // Created by us, not yet reconciled by the kernel.

    // generation << 2 | level (0 = unmapped, 1 = read, 2 = write); only node_cache.cc
    // touches it (DESIGN.md §4.13). EnsureMapped drops map_mutex across MapFile (which
    // may revoke another tenant whose RevokeNode takes ITS node's map_mutex: an ABBA
    // between two LibFSes) and publishes only if the word did not move meanwhile.
    std::mutex map_mutex;
    BravoRwLock op_lock;
    std::atomic<uint64_t> map_word{0};
    DirentBlock* dirent = nullptr;

    // Regular-file auxiliary state (§4.2).
    BravoRwLock inode_lock;
    RangeLock range_lock;
    // The index chain in chain order: a file's page map is the core-state entries of
    // these pages, read in place (EntryOf). Extended under inode_lock exclusive for
    // files and under tails_lock for directories; dropped and rebuilt only under
    // map_mutex + op_lock exclusive, like the rest of the auxiliary state.
    std::vector<PageNumber> index_pages;
    std::vector<PageNumber> reuse_pages;  // Owned, unlinked by truncate; reusable in-file.
    std::unordered_set<PageNumber> dirty_pages;  // Relaxed-data mode: awaiting fsync.
    SpinLock dirty_lock;
    // May the promote cache hold copies of this file's pages? Set by ReadTierPage (under
    // op_lock shared), tested and cleared by DropAux (op_lock exclusive), which skips the
    // cache scan when clear. Starts set: copies from an earlier node of a reused ino may
    // still be cached.
    std::atomic<bool> may_hold_promoted{true};

    // Directory auxiliary state (§4.2).
    std::unique_ptr<DirIndex> dir_index;
    struct DirTail {
      PageNumber page = 0;
      SpinLock lock;
      // Logging tails are only useful for non-full pages (§4.2); full ones are skipped
      // until an unlink frees a slot in them.
      std::atomic<bool> full{false};
    };
    SpinLock tails_lock;  // Guards dir_tails + dir_tail_index + index_pages (of a
                          // directory) + dir_next_entry.
    std::vector<std::unique_ptr<DirTail>> dir_tails;
    std::unordered_map<PageNumber, size_t> dir_tail_index;  // page -> dir_tails slot.
    // First possibly-non-full tail: creates start scanning here, keeping the common
    // create O(1) in directory size.
    std::atomic<size_t> dir_first_nonfull{0};
    size_t dir_next_entry = 0;  // Free entries used in the last index page (index tail).
  };
  using NodePtr = std::shared_ptr<FileNode>;

  // ---- Node / mapping machinery (shared with KVFS and FPFS) ----
  NodePtr GetOrCreateNode(Ino ino, Ino parent, bool is_dir, DirentBlock* dirent);
  NodePtr FindNode(Ino ino);
  void DropNode(Ino ino);
  // Maps the node (read or write) through the kernel and rebuilds auxiliary state if the
  // mapping was (re)established. Never call while holding this node's op_lock.
  Status EnsureMapped(FileNode* node, bool write);
  // Is the node mapped at `level` (1=read, 2=write) or above?
  static bool MappedAt(const FileNode* node, int level);
  // Publishes a node we just created as write-mapped (an empty index first for a
  // directory), unless another thread already mapped it from core state.
  void AdoptCreated(FileNode* node);
  // Acquire op_lock shared and confirm the mapping is still live at `level` (1=read,
  // 2=write); retries via EnsureMapped on staleness. Returns with op_lock held shared.
  // When an OpContext is active, the wait is charged to its lock_wait_ns counter.
  Status LockForOp(FileNode* node, int level);
  void UnlockOp(FileNode* node) { node->op_lock.unlock_shared(); }
  // Revoker-side: quiesce, unmap, drop auxiliary state.
  void RevokeNode(Ino ino);
  // Kernel-side quarantine notification (may arrive on a watchdog thread, possibly while
  // this LibFS is itself mid-unmap on the same node): record the notice and drop the
  // node's map level. Deliberately lock-free on the node — the next op re-maps and
  // rebuilds from the rolled-back core state. Must not call back into the kernel.
  void OnQuarantine(Ino ino, const Status& reason);
  // The LockForOp acquisition loop (no instrumentation; LockForOp wraps it).
  Status AcquireOpLock(FileNode* node, int level);

  // ---- Path resolution ----
  // Virtual so customized LibFSes can replace the strategy: FPFS swaps the per-component
  // walk for a global full-path hash table (§5) — pure auxiliary-state customization.
  virtual Result<NodePtr> ResolveDir(const std::vector<std::string>& components);
  Result<DirSlot> FindEntry(FileNode* dir, std::string_view name);

  // ---- Directory core-state operations (callers hold dir op_lock shared + write map) ----
  Result<DirSlot> CreateEntry(FileNode* dir, std::string_view name, uint32_t mode,
                              bool exclusive);
  Status RemoveEntry(FileNode* dir, std::string_view name, bool must_be_dir,
                     bool must_be_file);
  DirentBlock* SlotPointer(const DirSlot& slot);

  // ---- Regular-file data path (callers hold file op_lock shared + suitable map) ----
  // `append` computes the write offset from the file size UNDER the exclusive inode lock
  // (the only race-free place; O_APPEND correctness depends on it) and reports the offset
  // actually used through `offset_used`.
  Result<size_t> WriteLocked(FileNode* node, const void* buf, size_t count, uint64_t offset,
                             bool append = false, uint64_t* offset_used = nullptr);
  Result<size_t> ReadLocked(FileNode* node, void* buf, size_t count, uint64_t offset);
  Status TruncateLocked(FileNode* node, uint64_t new_size);

  // Auxiliary state (§4.2), rebuilt or dropped under map_mutex + op_lock exclusive.
  Status RebuildAux(FileNode* node);
  void DropAux(FileNode* node);

  // Data-page plumbing.
  // Raw index entry of file page `index` (tier tag included; 0 = hole or past the
  // chain). Callers hold the inode lock, which guards index_pages.
  uint64_t EntryOf(const FileNode* node, uint64_t index) const;
  Status EnsureIndexCapacity(FileNode* node, uint64_t max_page_index);
  Result<PageNumber> AllocDataPage(FileNode* node, uint64_t page_index, bool zero);
  void LinkDataPage(FileNode* node, uint64_t page_index, PageNumber page);
  Status AppendDirDataPage(FileNode* dir);

  // ---- Tier promote path (DESIGN.md §4.11) ----
  // Read `len` bytes at `in_page` within digested file page `page_index` (backend slot
  // `slot`): promote-cache hit, or fault the page into a leased NVM page via the kernel
  // and cache the copy.
  Status ReadTierPage(FileNode* node, uint64_t page_index, uint64_t slot,
                      uint64_t in_page, char* dst, size_t len);
  // Bring a digested page back to NVM authority for writing: allocate a leased page,
  // fill it from the backend when `fill` (skip on a full-page overwrite), and drop any
  // cached promoted copy. The caller links the page and the old slot is released at
  // verify-time reconcile.
  Result<PageNumber> PromoteForWrite(FileNode* node, uint64_t page_index, uint64_t slot,
                                     bool fill);
  // Any tier entry among the file pages covering [offset, offset+count)? Tier entries
  // are converted to NVM pages under the exclusive inode lock (a shared-lock writer
  // could otherwise race another on the same index slot); while write-mapped no NEW
  // tier entry can appear (digestion skips mapped files), so a check made under the
  // shared lock stays true. Callers hold the inode lock.
  bool RangeHasTierEntries(FileNode* node, uint64_t offset, size_t count);

  // Copies with optional delegation: a non-null `batch` queues the chunk into the
  // current operation's DelegationBatch (submitted + fenced once per node at the end of
  // the op); null copies inline. `persist` = flush the written lines now (the
  // synchronous-data mode) through `span`, whose fence the caller issues after the loop;
  // relaxed mode records dirty pages instead.
  void CopyToNvm(char* dst, const char* src, size_t len, DelegationBatch* batch,
                 bool persist, obs::PersistSpan* span);
  // Relaxed-data mode: persist everything this node dirtied since the last flush.
  void FlushDirtyData(FileNode* node);

  // ---- Op-ring drain-pass plumbing (drainer thread only) ----
  // RingPassHooks: one DelegationBatch is shared by every delegated write of a drain
  // pass; FlushPass submits/waits/resets it so its data is durable before any dependent
  // metadata commit, and before every epoch close.
  void BeginPass() override;
  void FlushPass() override;
  void EndPass() override;
  // The calling thread's pass batch (null off the drainer / without delegation).
  DelegationBatch* PassBatch();
  void CopyFromNvm(char* dst, const char* src, size_t len, DelegationBatch* batch);
  // Effective delegation thresholds: the pool's DelegationConfig, else the §4.5 defaults.
  size_t ReadDelegateThreshold() const;
  size_t WriteDelegateThreshold() const;

  UndoJournal& JournalShard();
  void ReplayJournals();

  Result<NodePtr> OpenNodeByPath(const std::string& path, bool write);
  LibFsId RegisterWithKernel(KernelController& kernel, const ArckFsConfig& config);
  // The kernel learns about files we created only when the parent is verified; force that
  // reconciliation before kernel calls that need a record of `ino` (chmod, commit, ...).
  Status EnsureReconciled(Ino ino);

  KernelController& kernel_;
  NvmPool& pool_;
  ArckFsConfig config_;
  LibFsId libfs_ = kNoLibFs;
  LeaseCache leases_;
  PromoteCache promote_cache_;
  FdTable<FileNode> fds_;
  LibFsStats stats_;
  // Persistence accounting for every PersistSpan this LibFS opens (layer "libfs").
  obs::PersistStats persist_stats_{"libfs"};

  // The in-DRAM node table, sharded by ino so path walks in different directories take
  // different locks (DESIGN.md §4.12).
  struct alignas(64) NodeShard {
    std::mutex mutex;
    std::unordered_map<Ino, NodePtr> nodes;
  };
  static constexpr size_t kNodeShards = 16;
  NodeShard& NodeShardOf(Ino ino) {
    return node_shards_[FibonacciShard(ino, kNodeShards - 1)];
  }
  std::array<NodeShard, kNodeShards> node_shards_;

  std::mutex quarantine_mutex_;
  std::vector<std::pair<Ino, Status>> quarantine_notices_;

  // Destroyed first in ~ArckFs (declaration order notwithstanding): the drainer calls
  // back into this object, so it must stop before any other member is torn down.
  std::unique_ptr<OpRingEngine> ring_engine_;

  std::mutex journal_init_mutex_;
  std::vector<std::unique_ptr<UndoJournal>> journals_;
  std::mutex rename_mutex_;  // Simplification: renames serialize (VFS has a global
                             // equivalent; per-shard journals could relax this).
};

}  // namespace trio

#endif  // SRC_LIBFS_ARCKFS_H_
