// The in-kernel access controller (§3.2, §4.3, §4.5). It decides which shared file-system
// resources (NVM pages, inode numbers) each LibFS can access, enforces the
// concurrent-read/exclusive-write file sharing policy with leases, maintains the global
// ownership information the integrity verifier reads (I2), checkpoints file metadata
// before write grants, drives verification when write access transfers, and handles
// corruption (fix-with-timeout, quarantine-to-offender, checkpoint rollback).
//
// In the paper this is a Linux kernel module; here it is an in-process object. Every public
// entry point models one user->kernel crossing and is counted in stats().syscalls, which
// the cost models in src/sim consume.
//
// Scale-out (DESIGN.md §4.10): the controller is SHARDED. File records and ino states are
// partitioned by hash(ino) into `controller_shards` shards, each guarded by a plain
// (non-recursive) mutex; page ownership lives in a separately striped table with 64-page
// range affinity; read-mostly ownership and grant lookups take a lock-free seqlock-cache
// fast path. Cross-shard operations (renames across shards, reconciliation that touches
// children in other shards) use a two-phase protocol: collect the shard set, then acquire
// in ascending index order (enforced at runtime by ShardRank).
//
// Lock hierarchy (acquire strictly downward; each level optional):
//   shard mutexes (ascending index only)
//     -> per-LibFS record mutex (at most one at a time)
//       -> alloc_mu_ (free pages / free inos / next_ino_)
//       -> page-table stripe mutexes
//       -> quarantine_mu_ / wmap_mu_
//       -> MmuSim internal mutex (leaf)
// registry_mu_ protects the LibFS registry only and is never held across any other
// acquisition (lookups copy out a shared_ptr). LibFS callbacks and the integrity verifier
// ALWAYS run with no shard held (ShardRank::AssertNoneHeld); in-flight verifications pin
// their file with a per-record `busy` flag instead of holding a lock, and waiters sleep on
// the shard's condition variable.

#ifndef SRC_KERNEL_CONTROLLER_H_
#define SRC_KERNEL_CONTROLLER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/hash.h"
#include "src/common/result.h"
#include "src/core/core_state.h"
#include "src/core/format.h"
#include "src/core/ownership.h"
#include "src/kernel/delegation.h"
#include "src/kernel/mmu_sim.h"
#include "src/kernel/shard.h"
#include "src/kernel/watchdog.h"
#include "src/obs/stats.h"
#include "src/verifier/verifier.h"

namespace trio {

class SlowBackend;      // src/sim/backend.h
class DigestionService;  // src/kernel/digestion.h

// Tiering (DESIGN.md §4.11): the NVM pool absorbs every write at NVM latency; a
// background digestion service migrates cold, unmapped files' data pages to the slow
// backend when NVM occupancy crosses high_watermark and stops once it falls back under
// low_watermark. Reads of digested pages fault back in through PromoteRead.
struct TierConfig {
  SlowBackend* backend = nullptr;  // Not owned; null disables tiering entirely.
  double high_watermark = 0.75;    // Background digestion starts above this occupancy...
  double low_watermark = 0.50;     // ...and stops below this.
  size_t batch_pages = 32;         // Pages migrated per digest batch (one fence each).
  bool start_digestion = false;    // Spin up the background digestion thread.
  uint64_t scan_interval_ms = 2;   // Background thread poll period.
};

struct KernelConfig {
  uint64_t lease_ms = 100;        // §6.5: "ArckFS's 100ms lease time".
  uint64_t fix_timeout_ms = 10;   // Deadline for a LibFS to fix its own corruption.
  // Every untrusted LibFS callback (fix_corruption, quarantined, recovery, revoke) runs
  // under the deadline watchdog (CallbackGuard). A callback that overruns is abandoned
  // and the kernel escalates: failed fix -> quarantine + checkpoint rollback; hung
  // recovery program -> verify every file (its journal state is unknown); hung revoke
  // past the lease deadline plus revoke_grace_ms -> forced release.
  uint64_t recovery_timeout_ms = 1000;  // Deadline for one LibFS recovery program.
  // Budget for one integrity verification (0 = unbounded). Enforced cooperatively inside
  // the verifier's walks (see VerifyRequest::deadline_ns); an overrun is treated exactly
  // like corruption — the state is unverifiable, so rollback + quarantine.
  uint64_t verify_timeout_ms = 50;
  // Quarantined files retained at once; the oldest entry is evicted beyond this (a
  // malicious tenant must not grow kernel memory without bound by corrupting files).
  size_t max_quarantined_files = 16;
  // Extra wall-clock grace past the lease deadline before an unresponsive holder's
  // mapping is reclaimed by force.
  uint64_t revoke_grace_ms = 50;
  // Thresholds, threads, spin/park and stealing knobs for the delegation pool (§4.5),
  // started by StartDelegation(); benchmarks sweep these through here.
  DelegationConfig delegation;
  // Controller shards (rounded up to a power of two, clamped to [1, 64]). 1 reproduces
  // the legacy one-big-mutex controller; the fleet bench gates 8 > 1.
  size_t controller_shards = 8;
  // Lock-free seqlock-cache fast path for StateOfPage/StateOfIno/LookupGrant on the
  // syscall boundary. Off = every lookup goes through the shard/stripe mutexes (the
  // legacy read path; the fleet bench's 1-shard baseline).
  bool lockfree_lookup = true;
  // NVM absorb tier / slow-backend digestion (DESIGN.md §4.11).
  TierConfig tier;
};

// Callbacks a LibFS registers with the kernel controller.
struct LibFsCallbacks {
  // The kernel asks the LibFS to release a file (lease revocation). Must synchronously
  // flush and call UnmapFile before returning. May be invoked from another app's thread.
  std::function<void(Ino)> revoke;
  // Corruption detected in a file this LibFS wrote; it may repair the core state in place.
  // Return true to request re-verification. Called with the failure diagnostic.
  std::function<bool(Ino, const Status&)> fix_corruption;
  // Crash-recovery program (§4.4): replay/undo this LibFS's journal. Untrusted: the kernel
  // re-verifies all write-mapped files afterwards.
  std::function<void()> recovery;
  // This LibFS's file failed verification and was impounded (rolled back + quarantined);
  // the mapping is already gone. The LibFS should drop cached state for `ino` and may
  // RetrieveQuarantine the condemned images. Must not call back into the kernel.
  std::function<void(Ino, const Status&)> quarantined;
};

struct LibFsOptions {
  uint32_t uid = 0;
  uint32_t gid = 0;
  LibFsCallbacks callbacks;
};

struct MapInfo {
  PageNumber dirent_page = 0;  // 0 => the root dirent inside the superblock.
  size_t dirent_slot = 0;
  bool writable = false;
  uint64_t lease_deadline_ns = 0;
  PageNumber first_index_page = 0;  // As of grant time (convenience for rebuild).
};

// Registered into obs::StatRegistry under layer "kernel" (summed across controllers).
struct KernelStats {
  obs::Counter syscalls;
  obs::Counter maps;
  obs::Counter unmaps;
  obs::Counter verifications;
  obs::Counter verify_failures;
  obs::Counter corruptions_fixed_by_libfs;
  obs::Counter corruptions_rolled_back;
  obs::Counter revocations;
  // LibFS callbacks abandoned by the deadline watchdog (hung fix/recovery/revoke).
  obs::Counter callback_timeouts;
  obs::Counter forced_releases;  // Leases reclaimed from unresponsive holders.
  obs::Counter verify_timeouts;  // Verifications that overran verify_timeout_ms.
  obs::Counter files_quarantined;
  obs::Counter quarantine_evictions;  // Oldest entries dropped past max_quarantined_files.
  obs::Counter pages_allocated;
  obs::Counter pages_freed;
  // Sharding telemetry: lock-free grant-lookup hits/misses on the syscall boundary,
  // shard-mutex acquisitions that found the lock held, and multi-shard (two-phase)
  // acquisitions.
  obs::Counter grant_fast_hits;
  obs::Counter grant_fast_misses;
  obs::Counter shard_lock_contended;
  obs::Counter cross_shard_acquires;
  // Sharing-cost breakdown (Fig 8): cumulative nanoseconds per phase.
  obs::Counter map_ns;
  obs::Counter unmap_ns;
  obs::Counter verify_ns;
  obs::Counter checkpoint_ns;
  // Per-syscall latency distribution (boundary entry to exit), recorded by SyscallScope.
  obs::LatencyHistogram syscall_latency;

  KernelStats()
      : reg_("kernel", {{"syscalls", &syscalls},
                        {"maps", &maps},
                        {"unmaps", &unmaps},
                        {"verifications", &verifications},
                        {"verify_failures", &verify_failures},
                        {"corruptions_fixed_by_libfs", &corruptions_fixed_by_libfs},
                        {"corruptions_rolled_back", &corruptions_rolled_back},
                        {"revocations", &revocations},
                        {"callback_timeouts", &callback_timeouts},
                        {"forced_releases", &forced_releases},
                        {"verify_timeouts", &verify_timeouts},
                        {"files_quarantined", &files_quarantined},
                        {"quarantine_evictions", &quarantine_evictions},
                        {"pages_allocated", &pages_allocated},
                        {"pages_freed", &pages_freed},
                        {"grant_fast_hits", &grant_fast_hits},
                        {"grant_fast_misses", &grant_fast_misses},
                        {"shard_lock_contended", &shard_lock_contended},
                        {"cross_shard_acquires", &cross_shard_acquires},
                        {"map_ns", &map_ns},
                        {"unmap_ns", &unmap_ns},
                        {"verify_ns", &verify_ns},
                        {"checkpoint_ns", &checkpoint_ns},
                        {"syscall_latency", &syscall_latency}}) {}

  void Reset() {
    syscalls = 0;
    maps = 0;
    unmaps = 0;
    verifications = 0;
    verify_failures = 0;
    corruptions_fixed_by_libfs = 0;
    corruptions_rolled_back = 0;
    revocations = 0;
    callback_timeouts = 0;
    forced_releases = 0;
    verify_timeouts = 0;
    files_quarantined = 0;
    quarantine_evictions = 0;
    pages_allocated = 0;
    pages_freed = 0;
    grant_fast_hits = 0;
    grant_fast_misses = 0;
    shard_lock_contended = 0;
    cross_shard_acquires = 0;
    map_ns = 0;
    unmap_ns = 0;
    verify_ns = 0;
    checkpoint_ns = 0;
    syscall_latency.Reset();
  }

 private:
  obs::ScopedRegistration reg_;
};

// Kernel-side tier counters, registered under layer "tier" (summed with the backend's
// own media counters and the LibFS promote-cache counters).
struct KernelTierStats {
  obs::Counter digest_batches;     // Digest batches committed (one fence each).
  obs::Counter digest_pages;       // NVM pages migrated to the backend.
  obs::Counter digest_bytes;       // Bytes those pages carried.
  obs::Counter watermark_stalls;   // AllocPages calls that had to digest synchronously.
  obs::Counter promote_reads;      // PromoteRead calls served from the backend.
  obs::Counter backend_slots_freed;  // Slots released at reconcile/reclaim.

  KernelTierStats()
      : reg_("tier", {{"digest_batches", &digest_batches},
                      {"digest_pages", &digest_pages},
                      {"digest_bytes", &digest_bytes},
                      {"watermark_stalls", &watermark_stalls},
                      {"promote_reads", &promote_reads},
                      {"backend_slots_freed", &backend_slots_freed}}) {}

  void Reset() {
    digest_batches = 0;
    digest_pages = 0;
    digest_bytes = 0;
    watermark_stalls = 0;
    promote_reads = 0;
    backend_slots_freed = 0;
  }

 private:
  obs::ScopedRegistration reg_;
};

// Page-number -> PageState, striped by 64-page runs (an allocation's pages land on one
// stripe; independent files contend on different stripes) with a lock-free seqlock-cache
// read path. A cache entry is an authoritative snapshot INCLUDING "free": Set/Erase write
// through under the stripe lock, so the cache may forget but never lies.
class PageOwnershipTable {
 public:
  void Reset(size_t stripes, size_t cache_slots);
  PageState Get(PageNumber page) const;  // Lock-free fast path; populates on miss.
  void Set(PageNumber page, const PageState& state);
  void Erase(PageNumber page);
  bool Contains(PageNumber page) const;
  // Atomically erase iff currently leased by `libfs`. Returns whether it fired.
  bool EraseIfLeasedBy(PageNumber page, LibFsId libfs);
  void Clear();

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<PageNumber, PageState> map;
  };
  size_t StripeIndexOf(PageNumber page) const { return (page >> 6) & stripe_mask_; }

  std::vector<std::unique_ptr<Stripe>> stripes_;
  size_t stripe_mask_ = 0;
  mutable SeqlockCache<2> cache_;
};

class KernelController : public OwnershipView, public VerifyEnv {
 public:
  KernelController(NvmPool& pool, KernelConfig config = {},
                   Clock* clock = SystemClock::Instance());
  ~KernelController();
  KernelController(const KernelController&) = delete;
  KernelController& operator=(const KernelController&) = delete;

  // Rebuilds ownership tables by scanning the directory tree from the root (the tables are
  // auxiliary state, §3.2). Detects an unclean shutdown; call RunRecovery() after LibFSes
  // have re-registered in that case.
  Status Mount();
  // Marks a clean shutdown. All LibFSes must have unregistered.
  Status Unmount();
  bool NeedsRecovery() const { return needs_recovery_; }
  // §4.4: invoke each registered LibFS's recovery program, then verify every file that was
  // write-mapped at crash time.
  Status RunRecovery();

  // ---- LibFS lifecycle ----
  LibFsId RegisterLibFs(const LibFsOptions& options);
  void UnregisterLibFs(LibFsId libfs);

  // ---- Resource leasing ----
  Status AllocPages(LibFsId libfs, size_t count, int node_hint,
                    std::vector<PageNumber>* out);
  Status FreePages(LibFsId libfs, const std::vector<PageNumber>& pages);
  Result<Ino> AllocIno(LibFsId libfs);
  // Batched form: LibFSes amortize the kernel crossing over many creates (§4.5 per-CPU
  // inode allocators live LibFS-side as caches over this).
  Status AllocInos(LibFsId libfs, size_t count, std::vector<Ino>* out);
  Status FreeIno(LibFsId libfs, Ino ino);

  // ---- Mapping / sharing ----
  Result<MapInfo> MapRoot(LibFsId libfs, bool write);
  // `parent` is the directory through which the LibFS resolved `ino` (it must hold at
  // least a read mapping of the parent).
  Result<MapInfo> MapFile(LibFsId libfs, Ino parent, Ino ino, bool write);
  Status UnmapFile(LibFsId libfs, Ino ino);
  // Revalidate an existing grant without a full MapFile. Lock-free when the seqlock grant
  // cache hits (the scalable syscall-boundary read path); falls back to one shard lock.
  // NotFound if the caller holds no suitable grant — callers then MapFile as usual.
  Result<MapInfo> LookupGrant(LibFsId libfs, Ino ino);
  // Verify now and replace the checkpoint with the current (valid) state, keeping the
  // write grant (§4.3 "commit call").
  Status CommitFile(LibFsId libfs, Ino ino);

  // ---- Permission changes (I4 path: shadow inode is ground truth) ----
  Status Chmod(LibFsId libfs, Ino ino, uint32_t perm_bits);
  Status Chown(LibFsId libfs, Ino ino, uint32_t uid, uint32_t gid);

  // Corrupted files quarantined to their offending writer (§4.3: "makes the corrupted file
  // a private file to LibFS A"): raw page images the LibFS can salvage.
  std::vector<std::vector<char>> RetrieveQuarantine(LibFsId libfs, Ino ino);
  // Inspection: the structured VerifyError status that condemned `ino`, or NotFound if the
  // ino is not quarantined. (Harnesses assert the taxonomy class without draining images.)
  Status QuarantineErrorOf(Ino ino) const;
  size_t QuarantineCount() const;

  // ---- OwnershipView (read access for the integrity verifier) ----
  PageState StateOfPage(PageNumber page) const override;
  InoState StateOfIno(Ino ino) const override;

  // ---- VerifyEnv ----
  Status CheckRemovedChildDir(Ino child, LibFsId writer) const override;
  bool IsMovePermitted(Ino child, Ino new_parent, LibFsId writer) const override;
  Status CheckTierSlots(Ino ino, const std::vector<uint64_t>& slots) const override;

  // ---- Tiering (src/kernel/digestion.cc) ----
  // Promote-back half of digestion: copies backend slot `slot` (a tier entry of `ino`,
  // which the caller must hold a grant on) into `dest`, an NVM page leased to the
  // caller, then persists + fences the destination — so a subsequent index-entry commit
  // referencing `dest` can never become durable ahead of the data it points at.
  Status PromoteRead(LibFsId libfs, Ino ino, uint64_t slot, PageNumber dest);
  // Synchronously digests up to `target_pages` cold data pages NVM -> backend.
  // Returns the number of pages migrated (0 when tiering is disabled or nothing is cold).
  size_t DigestNow(size_t target_pages);
  // Fraction of the file region currently in use (1.0 = no free NVM pages).
  double NvmOccupancy() const;
  void StartDigestion();
  SlowBackend* backend() const { return config_.tier.backend; }
  KernelTierStats& tier_stats() { return tier_stats_; }

  NvmPool& pool() { return pool_; }
  MmuSim& mmu() { return mmu_; }
  KernelStats& stats() { return stats_; }
  IntegrityVerifier& verifier() { return *verifier_; }
  DelegationPool* delegation() { return delegation_.get(); }
  void StartDelegation();
  Clock* clock() { return clock_; }
  const KernelConfig& config() const { return config_; }
  size_t shard_count() const { return shards_.size(); }

  // Test/inspection helpers.
  size_t FreePageCount() const;
  bool IsWriteMapped(Ino ino) const;
  Result<Ino> ParentOf(Ino ino) const;

 private:
  struct FileCheckpointData {
    DirentBlock meta;
    std::vector<PageNumber> pages;                    // Checkpointed page numbers.
    std::vector<std::unique_ptr<char[]>> contents;    // kPageSize each, parallel to pages.
    std::vector<CheckpointChild> children;            // Directories only.
  };

  struct FileRecord {
    Ino ino = kInvalidIno;
    Ino parent = kInvalidIno;
    bool is_dir = false;
    PageNumber dirent_page = 0;  // 0 => superblock root.
    size_t dirent_slot = 0;
    PageNumber first_index_page = 0;  // As of last reconcile.
    // Index and data pages, sorted and unique (binary search; reconcile diffs it against
    // the verifier's sorted report in one merge walk).
    std::vector<PageNumber> pages;
    // Backend slots this file's tier entries reference, sorted and unique (the
    // backend-tier analogue of `pages`; maintained by digestion, reconcile, and the
    // mount rescan).
    std::vector<uint64_t> backend_slots;
    LibFsId writer = kNoLibFs;
    std::unordered_set<LibFsId> readers;
    // Grant generation: renewed on every change to `writer` or `readers`. A revoke
    // targets the generation it saw; if that generation is still current after the
    // holder's callback, the holder ignored the revoke (DESIGN.md §4.10).
    uint64_t grant_gen = 0;
    uint64_t revoked_gen = 0;  // Generation the latest revoke targeted.
    uint64_t lease_deadline_ns = 0;
    // Last grant activity (MapFile/LookupGrant), for coldest-first digestion ordering.
    uint64_t last_use_ns = 0;
    std::unique_ptr<FileCheckpointData> checkpoint;
    // Verification in flight: the record is pinned (no release/reclaim/grant may touch
    // it) while its writer's work is verified OUTSIDE the shard lock. Waiters sleep on
    // the shard cv. This replaces the recursive-mutex reentry the verifier used to need.
    bool busy = false;
  };

  struct LibFsRecord {
    LibFsId id = kNoLibFs;
    uint32_t uid = 0;             // Immutable after registration.
    uint32_t gid = 0;             // Immutable after registration.
    LibFsCallbacks callbacks;     // Immutable after registration.
    // `mu` guards the five sets below. Rank: after shard mutexes; at most one LibFS
    // record mutex held at a time; nothing else is acquired under it.
    std::mutex mu;
    std::unordered_set<PageNumber> leased_pages;
    std::unordered_set<Ino> leased_inos;
    std::unordered_set<Ino> write_mapped;
    std::unordered_set<Ino> read_mapped;
    // Children that disappeared from a verified directory and are not yet known to be
    // renamed elsewhere. Resolved (reclaimed or adopted) when the session quiesces.
    std::unordered_set<Ino> pending_orphans;
  };

  struct Shard {
    ShardMutex mu;
    std::condition_variable cv;  // Signalled when a record's busy flag clears.
    std::unordered_map<Ino, FileRecord> records;
    std::unordered_map<Ino, InoState> ino_states;
    // Source of grant generations for this shard's records. Per-shard monotonic, so an
    // ino's next record never reuses a generation an in-flight revoke still targets.
    uint64_t grant_clock = 0;
  };

  // Naming discipline (enforceable now that shard mutexes are non-recursive):
  //   *Locked        — caller holds the shard lock(s) covering every ino the method
  //                    touches (single shard, an OrderedShardSpan, or all shards).
  //   everything else — must be entered with NO shard lock held; acquires what it needs.
  // ShardRank aborts on any violation of the ascending-acquire order at runtime.

  // ---- shard plumbing (controller.cc) ----
  size_t ShardIndexOf(Ino ino) const {
    return FibonacciShard(ino, shard_mask_);
  }
  Shard& ShardOf(Ino ino) const { return *shards_[ShardIndexOf(ino)]; }
  static FileRecord* FindRecordLocked(Shard& shard, Ino ino);
  // Stamps `record` (in `shard`) with a fresh grant generation after its writer or
  // readers changed.
  static void BumpGrantGenLocked(Shard& shard, FileRecord* record) {
    record->grant_gen = ++shard.grant_clock;
  }
  // Blocks on the shard cv until `ino`'s record is not busy; returns the re-found record
  // (nullptr if it vanished while waiting). `lk` is the shard lock, held on entry/exit.
  FileRecord* WaitNotBusyLocked(Shard& shard, std::unique_lock<std::mutex>& lk, Ino ino);
  std::shared_ptr<LibFsRecord> FindLibFs(LibFsId id) const;
  std::vector<ShardMutex*> ShardMutexesFor(const std::vector<size_t>& indices) const;
  std::vector<size_t> AllShardIndices() const;
  void SetInoStateLocked(Shard& shard, Ino ino, const InoState& state);
  void EraseInoStateLocked(Shard& shard, Ino ino);
  void ReleasePageToFree(PageNumber page);  // Table erase + free-list push (alloc_mu_).

  // ---- mapping / grants (controller_map.cc) ----
  DirentBlock* DirentOfLocked(const FileRecord& record) const;
  Status TakeCheckpointLocked(FileRecord* record);
  void GrantFilePagesLocked(LibFsId libfs, const FileRecord& record, bool write);
  // Releases the MMU references this LibFS's mapping of `record` holds. `write` names the
  // mapping strength being torn down (the MMU refcounts per strength; see MmuSim).
  void RevokeFilePagesLocked(LibFsId libfs, const FileRecord& record, bool write);
  void PublishGrantLocked(const FileRecord& record, LibFsId holder, bool writable);
  // Lock-free grant revalidation against the seqlock cache. nullopt = miss.
  std::optional<MapInfo> TryFastGrant(LibFsId libfs, Ino ino, bool write);
  // Tear down `libfs`'s write session on `ino`: clear writer/checkpoint, release MMU
  // refs, drop the grant cache entry and wmap log slot, clear busy, resolve orphans if
  // the session quiesced. PRE: this thread set `busy` on the record; no locks held.
  void FinishWriteRelease(LibFsId libfs, Ino ino,
                          const std::shared_ptr<LibFsRecord>& me);
  // Reclaims `holder`'s mapping of `ino` if the record is still at grant generation
  // `gen` (the holder ignored or overran the revoke of that generation):
  // verify-and-reconcile (writers), revoke MMU grants, drop the lease. A no-op once the
  // generation has moved.
  void ForceRelease(Ino ino, LibFsId holder, uint64_t gen);

  // ---- verification / safety (controller_verify.cc) ----
  // Verify `ino`'s write session and reconcile (or fix/quarantine/rollback on failure).
  // PRE: this thread set `busy` on the record; no locks held. The caller still owns the
  // writer teardown (FinishWriteRelease) afterwards.
  Status VerifyAndReconcile(Ino ino);
  // Apply a verification report. Phase-two of the cross-shard protocol: acquires the
  // shard of `ino` plus the shards of every child the report names, ascending.
  Status ApplyReport(Ino ino, const VerifyReport& report);
  void RollbackToCheckpointLocked(FileRecord* record);
  void QuarantineLocked(FileRecord* record, const Status& reason);
  // Self-locking subtree reclaim (leaf-first; waits out busy records). PRE: no locks
  // held and this thread does not itself hold `busy` on anything in the subtree.
  void ReclaimTree(Ino ino);
  void ReclaimOne(Ino ino);
  void ResolveOrphans(const std::shared_ptr<LibFsRecord>& libfs);

  // ---- tiering internals (digestion.cc) ----
  // Cold-file scan: files with no writer, no readers, not busy, with NVM data pages left
  // to migrate; coldest (smallest last_use_ns) first. Each shard is scanned under its own
  // lock, one at a time.
  std::vector<Ino> CollectDigestCandidates(size_t max_files);
  // Migrates up to `max_pages` data pages of `ino` to the backend (one fence for the
  // whole batch). Pins the record busy while copying OUTSIDE the shard lock, exactly
  // like verification — so a migration can never race a grant. Returns pages moved.
  size_t DigestFile(Ino ino, size_t max_pages);

  // ---- lifecycle internals (controller.cc) ----
  Status ScanTreeLocked(Ino ino, Ino parent, PageNumber dirent_page, size_t dirent_slot,
                        const DirentBlock& dirent, std::unordered_set<PageNumber>* seen_pages,
                        std::unordered_set<Ino>* seen_inos);
  void WmapLogAdd(Ino ino);
  void WmapLogRemove(Ino ino);
  // Rebuilds the write-map log's DRAM index from the media. Caller holds wmap_mu_.
  void LoadWmapIndexLocked();
  uint64_t NowNs() { return clock_->NowNs(); }

  NvmPool& pool_;
  KernelConfig config_;
  Clock* clock_;
  MmuSim mmu_;
  // mutable: const read paths (StateOf*, VerifyEnv, inspection) count contention/hits.
  mutable KernelStats stats_;
  // Persistence accounting for every PersistSpan the controller opens (layer "kernel").
  obs::PersistStats persist_stats_{"kernel"};
  std::unique_ptr<IntegrityVerifier> verifier_;
  std::unique_ptr<DelegationPool> delegation_;
  std::unique_ptr<DigestionService> digestion_;  // Background tier migration thread.
  mutable KernelTierStats tier_stats_;
  uint64_t file_region_pages_ = 0;  // Denominator for NvmOccupancy (set at Mount).
  CallbackGuard callback_guard_;  // Deadline watchdog for untrusted LibFS callbacks.

  // Sharded ownership state. unique_ptr: Shard holds a condition_variable (immovable).
  // mutable: const read paths (StateOf*, VerifyEnv) still take shard locks.
  mutable std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  PageOwnershipTable page_table_;
  mutable SeqlockCache<2> ino_cache_;    // ino -> packed InoState.
  mutable SeqlockCache<3> grant_cache_;  // ino -> packed grant (one holder).

  // LibFS registry. registry_mu_ is never held across any other lock acquisition;
  // lookups copy the shared_ptr out.
  mutable std::mutex registry_mu_;
  std::unordered_map<LibFsId, std::shared_ptr<LibFsRecord>> libfses_;
  LibFsId next_libfs_id_ = 1;

  // One impounded file (§4.3): who corrupted it, the structured verdict, and the raw page
  // images at condemnation time. `sequence` orders entries for oldest-first eviction;
  // fifo_ is the eviction queue (stale entries — retrieved or re-quarantined — are
  // skipped lazily, keeping eviction O(1) amortized instead of an O(n) rescan per
  // insert).
  struct QuarantineEntry {
    LibFsId offender = kNoLibFs;
    Status error;
    std::vector<std::vector<char>> images;
    uint64_t sequence = 0;
  };
  mutable std::mutex quarantine_mu_;
  std::unordered_map<Ino, QuarantineEntry> quarantine_;
  std::deque<std::pair<uint64_t, Ino>> quarantine_fifo_;  // (sequence, ino), oldest first.
  uint64_t quarantine_sequence_ = 0;

  // Free resources. Per-NUMA-node free page lists (per-CPU sharding happens in the
  // LibFS-side allocator cache; the kernel hands out batches).
  mutable std::mutex alloc_mu_;
  std::vector<std::vector<PageNumber>> free_pages_by_node_;
  Ino next_ino_ = 2;
  std::vector<Ino> free_inos_;

  // Write-map log (§4.4). The media format is a flat array of ino slots; this DRAM index
  // over it makes add and remove O(1). Loaded from the media at Mount, reloaded when
  // RunRecovery retires the log.
  std::mutex wmap_mu_;  // Guards the index and serializes log updates.
  std::unordered_map<Ino, uint32_t> wmap_slot_of_;  // Logged ino -> its slot.
  std::vector<uint32_t> wmap_free_;  // Empty slots; back() is handed out next.

  bool mounted_ = false;
  bool needs_recovery_ = false;  // Mount/RunRecovery/Unmount are single-threaded.
};

}  // namespace trio

#endif  // SRC_KERNEL_CONTROLLER_H_
