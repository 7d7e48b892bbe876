// The trusted userspace integrity verifier (§4.3). When a LibFS releases write access to a
// file, the kernel controller hands the file's core state to the verifier, which checks
// invariants I1-I4 against the shared core-state format and the kernel's ownership tables
// (read-only, via OwnershipView). The verifier is a standalone trusted component in the
// paper; here it is a class that only ever *reads* the pool and the kernel's tables —
// corruption handling is the kernel controller's job.
//
// Invariants (§4.3):
//  I1  Fields in each inode and directory entry are valid (types, names, duplicates,
//      reserved bytes, size vs capacity).
//  I2  A file's inode number, index pages and data pages are valid: each was either part of
//      the file before the write grant or leased to the writing LibFS, and nothing is
//      doubly referenced.
//  I3  The directory hierarchy remains a connected tree: a child directory deleted since
//      the checkpoint must be unmapped everywhere and empty.
//  I4  Access permission is correctly enforced: the (cached) mode/uid/gid in a DirentBlock
//      must match the kernel's shadow inode table; new files must be owned by the creator.

#ifndef SRC_VERIFIER_VERIFIER_H_
#define SRC_VERIFIER_VERIFIER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/core/core_state.h"
#include "src/core/format.h"
#include "src/core/ownership.h"
#include "src/nvm/nvm.h"
#include "src/verifier/verify_error.h"

namespace trio {

// Fault point: a page read taken during verification hits a transient media error. The
// verifier retries the whole verification (bounded) before reporting kMediaFailure.
inline constexpr const char kFaultVerifierMediaRead[] = "verifier.media_read";

// What the kernel remembers about a directory's children at checkpoint time (I3 input,
// and where each child's dirent was, to tell an untouched child from a renamed one).
struct CheckpointChild {
  Ino ino = kInvalidIno;
  bool is_dir = false;
  PageNumber dirent_page = 0;
  size_t dirent_slot = 0;
};

// A freshly created file discovered during directory verification.
struct NewChildInfo {
  Ino ino = kInvalidIno;
  PageNumber dirent_page = 0;
  size_t dirent_slot = 0;
  bool is_dir = false;
  uint32_t mode = 0;
  uint32_t uid = 0;
  uint32_t gid = 0;
  PageNumber first_index_page = 0;
  std::string name;
};

// A file that existed at checkpoint time but whose dirent is owned by a different parent:
// the writer renamed it into this directory.
struct MovedInChild {
  Ino ino = kInvalidIno;
  Ino old_parent = kInvalidIno;
  PageNumber dirent_page = 0;
  size_t dirent_slot = 0;
};

struct VerifyReport {
  // Every index and data page referenced by the file, post-write, sorted and unique (the
  // kernel reconciles ownership from this with one merge walk).
  std::vector<PageNumber> pages;
  // Backend slots referenced by tier entries (digested pages), post-write, sorted and
  // unique; the kernel reconciles backend-slot ownership from this the same way.
  std::vector<uint64_t> backend_slots;
  // Directories only:
  std::vector<NewChildInfo> new_children;
  std::vector<Ino> removed_children;       // At checkpoint, now gone (deleted or moved out).
  std::vector<MovedInChild> moved_in;      // Renamed into this directory.
  uint64_t live_dirents = 0;
};

// Kernel-side answers the verifier needs for I3 and rename classification. Implemented by
// the kernel controller; the verifier treats it as an oracle over trusted state.
class VerifyEnv {
 public:
  virtual ~VerifyEnv() = default;
  // I3: a child directory that disappeared since the checkpoint must be unmapped
  // everywhere and contain no live dirents. The kernel knows the child's last reconciled
  // index chain and current grants, so it performs both checks and returns kCorrupted on
  // violation. (A cross-directory rename of a non-empty directory therefore fails — a
  // documented ArckFS restriction; files rename fine, see moved_in.)
  virtual Status CheckRemovedChildDir(Ino child, LibFsId writer) const = 0;
  // May `writer` have moved `child` (currently owned with a different parent) into
  // `new_parent`? True iff the old parent directory is write-held by the same writer or the
  // child is pending reconciliation from an earlier unmap in this writer's session.
  virtual bool IsMovePermitted(Ino child, Ino new_parent, LibFsId writer) const = 0;
  // Is every slot in `slots` (sorted, unique, non-empty) a backend-tier slot legitimately
  // owned by `ino`? Only the kernel's own digestion service mints tier entries, so the
  // default — no backend configured — rejects every tier entry outright: a forged
  // digested-page mapping is corruption by construction, not something a LibFS can
  // smuggle past an unconfigured verifier.
  virtual Status CheckTierSlots(Ino ino, const std::vector<uint64_t>& slots) const {
    (void)ino;
    return VerifyFail(VerifyErrorClass::kForeignPage, "I2",
                      "tier entry references backend slot " + std::to_string(slots.front()) +
                          " but no backend tier is configured");
  }
};

struct VerifyRequest {
  Ino ino = kInvalidIno;
  const DirentBlock* dirent = nullptr;     // The file's dirent+inode (may be in superblock).
  LibFsId writer = kNoLibFs;
  uint32_t writer_uid = 0;
  uint32_t writer_gid = 0;
  // Children of the directory at checkpoint time; empty for regular files or fresh files.
  const std::vector<CheckpointChild>* checkpoint_children = nullptr;
  // Absolute deadline (clock nanoseconds) for this verification; 0 = unbounded. The
  // verifier checks it cooperatively inside its walks (once per index page, every 64
  // index entries and once per dirent) — it runs on the caller's thread under the
  // kernel lock, so a watchdog thread cannot bound it without deadlocking against the
  // OwnershipView callbacks. An overrun returns kDeadline
  // (ErrorCode::kTimeout): the state is UNVERIFIED and the kernel treats it exactly like
  // corruption (rollback + quarantine) rather than accepting it unchecked.
  uint64_t deadline_ns = 0;
};

struct VerifierStats {
  std::atomic<uint64_t> files_verified{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> pages_scanned{0};
  std::atomic<uint64_t> deadline_exceeded{0};  // Verifications that overran deadline_ns.
  std::atomic<uint64_t> media_retries{0};      // Re-runs after a transient media fault.
};

class IntegrityVerifier {
 public:
  IntegrityVerifier(NvmPool& pool, const OwnershipView& ownership, const VerifyEnv& env,
                    Clock* clock = SystemClock::Instance())
      : pool_(pool), ownership_(ownership), env_(env), clock_(clock) {}

  // Returns the report on success, or a structured VerifyError status (kCorrupted on any
  // I1-I4 violation, kTimeout past the deadline, kIo after media-retry exhaustion).
  Result<VerifyReport> Verify(const VerifyRequest& request);

  VerifierStats& stats() { return stats_; }

  // A fired kFaultVerifierMediaRead (armed on the pool's FaultSim injector) aborts the
  // current pass; Verify retries the whole pass up to this many times before surfacing
  // kMediaFailure.
  void set_media_read_retries(int retries) { media_read_retries_ = retries; }

 private:
  Status CheckDirentFields(const DirentBlock& dirent, bool allow_root) const;
  // I2 over the chain rooted at first_index_page, in one walk: fills report->pages and
  // report->backend_slots (sorted) and counts the chain's index pages.
  Status CheckChain(const VerifyRequest& request, PageNumber first_index_page,
                    VerifyReport* report, uint64_t* index_pages) const;
  // One walk of the chain. `in_order` checks uniqueness and tier slots at each entry
  // (quadratic; only to name the first violation of a chain that already failed).
  Status WalkChain(const VerifyRequest& request, PageNumber first_index_page, bool in_order,
                   VerifyReport* report, uint64_t* index_pages) const;
  Status CheckDeadline(const VerifyRequest& request) const;
  Result<VerifyReport> VerifyOnce(const VerifyRequest& request);
  Result<VerifyReport> VerifyRegular(const VerifyRequest& request);
  Result<VerifyReport> VerifyDirectory(const VerifyRequest& request);

  NvmPool& pool_;
  const OwnershipView& ownership_;
  const VerifyEnv& env_;
  Clock* clock_;
  int media_read_retries_ = 3;
  mutable VerifierStats stats_;  // Counters bump inside const check helpers.
};

}  // namespace trio

#endif  // SRC_VERIFIER_VERIFIER_H_
