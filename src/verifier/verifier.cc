#include "src/verifier/verifier.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/common/hash.h"
#include "src/sim/fault_injector.h"

namespace trio {

namespace {

bool AllZero(const uint8_t* bytes, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (bytes[i] != 0) {
      return false;
    }
  }
  return true;
}

// Index entries walked per deadline check: a clock read per entry cost more than the
// entry's own checks.
constexpr uint64_t kEntriesPerDeadlineCheck = 64;

bool Contains(const std::vector<uint64_t>& values, uint64_t value) {
  return std::find(values.begin(), values.end(), value) != values.end();
}

// Sorts `values` in place; false if any value occurs twice.
bool SortUnique(std::vector<uint64_t>* values) {
  std::sort(values->begin(), values->end());
  return std::adjacent_find(values->begin(), values->end()) == values->end();
}

// The core-state walkers predate the taxonomy and return bare kCorrupted messages;
// reclassify them so chain failures are structured like every other verify error.
Status ClassifyWalkerError(const Status& status) {
  if (status.ok() || VerifyError::IsStructured(status)) {
    return status;
  }
  const VerifyErrorClass cls = status.message().find("cycle") != std::string::npos
                                   ? VerifyErrorClass::kChainCycle
                                   : VerifyErrorClass::kBadPagePointer;
  return VerifyFail(cls, "I2", status.message());
}

}  // namespace

Status IntegrityVerifier::CheckDeadline(const VerifyRequest& request) const {
  if (request.deadline_ns != 0 && clock_->NowNs() > request.deadline_ns) {
    stats_.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
    return VerifyFail(VerifyErrorClass::kDeadline, "I2",
                      "verification exceeded its time budget; state unverified");
  }
  return OkStatus();
}

Status IntegrityVerifier::CheckDirentFields(const DirentBlock& dirent,
                                            bool allow_root) const {
  // I1: file type must be a regular file or a directory.
  const uint32_t type = dirent.mode & kModeTypeMask;
  if (type != kModeRegular && type != kModeDirectory) {
    return VerifyFail(VerifyErrorClass::kBadType, "I1", "invalid file type");
  }
  // I1: name length must be validated BEFORE Name() constructs a view over the name
  // bytes — a fuzzed name_len would otherwise read far past the 48-byte array.
  if (dirent.name_len >= kMaxNameLen) {
    return VerifyFail(VerifyErrorClass::kBadName, "I1", "name length out of range");
  }
  // I1: valid name. The root's pseudo-name "/" is only legal in the superblock.
  const std::string_view name = dirent.Name();
  if (allow_root && name == "/") {
    // OK.
  } else if (!ValidFileName(name)) {
    return VerifyFail(VerifyErrorClass::kBadName, "I1", "invalid file name");
  }
  // I1: trailing name bytes beyond name_len must be zero (no hidden payload).
  if (!AllZero(reinterpret_cast<const uint8_t*>(dirent.name) + dirent.name_len,
               kMaxNameLen - dirent.name_len)) {
    return VerifyFail(VerifyErrorClass::kHiddenPayload, "I1", "nonzero bytes after name");
  }
  if (!AllZero(dirent.reserved, sizeof(dirent.reserved)) || dirent.reserved2 != 0) {
    return VerifyFail(VerifyErrorClass::kHiddenPayload, "I1", "reserved fields not zero");
  }
  if (dirent.nlink != 1) {
    return VerifyFail(VerifyErrorClass::kBadLinkCount, "I1",
                      "nlink must be 1 (no hard links)");
  }
  // I1: directories carry no size in core state.
  if (type == kModeDirectory && dirent.size != 0) {
    return VerifyFail(VerifyErrorClass::kBadSize, "I1", "directory size must be 0");
  }
  // I1: ino within table bounds.
  if (dirent.ino >= SuperblockOf(pool_)->max_inodes) {
    return VerifyFail(VerifyErrorClass::kBadInodeNumber, "I1",
                      "inode number out of range");
  }
  if (dirent.first_index_page != 0 && !ValidFilePage(pool_, dirent.first_index_page)) {
    return VerifyFail(VerifyErrorClass::kBadPagePointer, "I1",
                      "first index page out of range");
  }
  return OkStatus();
}

Status IntegrityVerifier::CheckChain(const VerifyRequest& request,
                                     PageNumber first_index_page, VerifyReport* report,
                                     uint64_t* index_pages) const {
  const Status fast =
      WalkChain(request, first_index_page, /*in_order=*/false, report, index_pages);
  stats_.pages_scanned.fetch_add(report->pages.size() + report->backend_slots.size(),
                                 std::memory_order_relaxed);
  if (fast.ok()) {
    return fast;
  }
  const VerifyErrorClass cls = VerifyError::FromStatus(fast).cls;
  if (cls == VerifyErrorClass::kDeadline || cls == VerifyErrorClass::kMediaFailure) {
    return fast;
  }
  // The fast walk checks uniqueness and tier slots after it has seen every entry, so a
  // chain with several violations may be blamed on a later one. Walk it again checking
  // each entry in place: the verdict is then the first violation in walk order. Only a
  // chain that already failed pays for this.
  report->pages.clear();
  report->backend_slots.clear();
  const Status in_order =
      WalkChain(request, first_index_page, /*in_order=*/true, report, index_pages);
  return in_order.ok() ? fast : in_order;
}

Status IntegrityVerifier::WalkChain(const VerifyRequest& request,
                                    PageNumber first_index_page, bool in_order,
                                    VerifyReport* report, uint64_t* index_pages) const {
  const Ino ino = request.ino;
  FaultInjector* injector = pool_.fault_injector();
  auto check_page = [&](PageNumber page) -> Status {
    if (injector != nullptr && injector->ShouldFire(kFaultVerifierMediaRead)) {
      return VerifyFail(VerifyErrorClass::kMediaFailure, "I2",
                        "transient media error reading page " + std::to_string(page));
    }
    if (in_order && Contains(report->pages, page)) {
      return VerifyFail(VerifyErrorClass::kDoubleReference, "I2",
                        "page referenced twice within file");
    }
    // I2: page must have been part of this file already, or leased to the writer.
    const PageState state = ownership_.StateOfPage(page);
    const bool owned_by_file = state.state == ResourceState::kOwned && state.owner == ino;
    const bool leased_to_writer =
        state.state == ResourceState::kLeased && state.lessee == request.writer;
    if (!owned_by_file && !leased_to_writer) {
      return VerifyFail(VerifyErrorClass::kForeignPage, "I2",
                        "page neither owned by file nor leased to writer");
    }
    report->pages.push_back(page);
    return OkStatus();
  };

  // Index pages first: ForEachIndexPage bound-checks each one. A chain that loops back
  // on itself references a page twice; Brent's cycle check (`mark` jumps ahead at
  // doubling intervals) catches the loop within two laps, without a set of seen pages.
  PageNumber mark = 0;
  uint64_t lap = 1;
  uint64_t steps = 0;
  TRIO_RETURN_IF_ERROR(ClassifyWalkerError(
      ForEachIndexPage(pool_, first_index_page, [&](PageNumber page) -> Status {
        if (page == mark) {
          return VerifyFail(VerifyErrorClass::kDoubleReference, "I2",
                            "page referenced twice within file");
        }
        if (++steps == lap) {
          mark = page;
          lap *= 2;
          steps = 0;
        }
        TRIO_RETURN_IF_ERROR(CheckDeadline(request));
        return check_page(page);
      })));
  *index_pages = report->pages.size();

  // Then every entry of each index page. Tier entries are collected for one backend
  // owner check below instead of the NVM ownership table. The clock is read once every
  // kEntriesPerDeadlineCheck entries, not per entry.
  const bool is_dir = request.dirent != nullptr && request.dirent->IsDirectory();
  uint64_t entries = 0;
  for (size_t k = 0; k < *index_pages; ++k) {
    const auto* index =
        reinterpret_cast<const IndexPage*>(pool_.PageAddress(report->pages[k]));
    for (size_t i = 0; i < kIndexEntriesPerPage; ++i) {
      const uint64_t entry = index->entries[i];
      if (entry == 0) {
        continue;  // Hole.
      }
      if (++entries % kEntriesPerDeadlineCheck == 0) {
        TRIO_RETURN_IF_ERROR(CheckDeadline(request));
      }
      if (!IsTierEntry(entry)) {
        if (!ValidFilePage(pool_, entry)) {
          return VerifyFail(VerifyErrorClass::kBadPagePointer, "I2",
                            "data page number out of range");
        }
        TRIO_RETURN_IF_ERROR(check_page(entry));
        continue;
      }
      // Directory chains never digest: a tagged entry there is forged outright.
      if (is_dir) {
        return VerifyFail(VerifyErrorClass::kBadPagePointer, "I2",
                          "tier entry inside a directory chain");
      }
      const uint64_t slot = TierSlotOfEntry(entry);
      if (in_order) {
        if (Contains(report->backend_slots, slot)) {
          return VerifyFail(VerifyErrorClass::kDoubleReference, "I2",
                            "backend slot referenced twice within file");
        }
        TRIO_RETURN_IF_ERROR(env_.CheckTierSlots(ino, {slot}));
      }
      report->backend_slots.push_back(slot);
    }
  }

  // I2: no double references within the file — index and data pages alike, and the
  // backend tier too. Sorted, a repeat sits next to its twin.
  if (!SortUnique(&report->pages)) {
    return VerifyFail(VerifyErrorClass::kDoubleReference, "I2",
                      "page referenced twice within file");
  }
  if (!SortUnique(&report->backend_slots)) {
    return VerifyFail(VerifyErrorClass::kDoubleReference, "I2",
                      "backend slot referenced twice within file");
  }
  if (!report->backend_slots.empty()) {
    TRIO_RETURN_IF_ERROR(env_.CheckTierSlots(ino, report->backend_slots));
  }
  return OkStatus();
}

Result<VerifyReport> IntegrityVerifier::Verify(const VerifyRequest& request) {
  stats_.files_verified.fetch_add(1, std::memory_order_relaxed);
  if (request.dirent == nullptr) {
    stats_.failures.fetch_add(1, std::memory_order_relaxed);
    return InvalidArgument("verify request without dirent");
  }
  // Transient media faults abort a pass; re-run the whole verification (every pass
  // re-reads the chain, so a fault that clears on retry costs only the retries).
  Result<VerifyReport> result = VerifyOnce(request);
  for (int attempt = 0; attempt < media_read_retries_ && !result.ok(); ++attempt) {
    if (VerifyError::FromStatus(result.status()).cls != VerifyErrorClass::kMediaFailure) {
      break;
    }
    stats_.media_retries.fetch_add(1, std::memory_order_relaxed);
    result = VerifyOnce(request);
  }
  if (!result.ok()) {
    stats_.failures.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

Result<VerifyReport> IntegrityVerifier::VerifyOnce(const VerifyRequest& request) {
  return request.dirent->IsDirectory() ? VerifyDirectory(request)
                                       : VerifyRegular(request);
}

Result<VerifyReport> IntegrityVerifier::VerifyRegular(const VerifyRequest& request) {
  const DirentBlock& dirent = *request.dirent;
  TRIO_RETURN_IF_ERROR(CheckDirentFields(dirent, /*allow_root=*/false));
  if (!dirent.IsRegular()) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1",
                      "expected a regular file");
  }
  if (dirent.ino != request.ino) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1",
                      "dirent ino does not match file identity");
  }

  VerifyReport report;
  uint64_t index_pages = 0;
  TRIO_RETURN_IF_ERROR(CheckChain(request, dirent.first_index_page, &report, &index_pages));

  // I1: size must fit within the capacity of the index chain. Holes read as zeros, so a
  // size larger than the *allocated* pages is fine, but not larger than the chain covers.
  const uint64_t capacity = index_pages * kIndexEntriesPerPage * kPageSize;
  if (dirent.size > capacity) {
    return VerifyFail(VerifyErrorClass::kBadSize, "I1",
                      "file size exceeds index chain capacity");
  }

  // I2: the inode number itself.
  const InoState ino_state = ownership_.StateOfIno(request.ino);
  const bool existing = ino_state.state == ResourceState::kOwned;
  const bool fresh = ino_state.state == ResourceState::kLeased &&
                     ino_state.lessee == request.writer;
  if (!existing && !fresh) {
    return VerifyFail(VerifyErrorClass::kForeignInode, "I2",
                      "inode number neither existing nor leased to writer");
  }

  // I4: permissions. For an existing file the dirent's cached mode/uid/gid must match the
  // shadow inode table; for a fresh file the creator must declare itself as owner.
  if (existing) {
    const ShadowInode* shadow = ShadowInodeOf(pool_, request.ino);
    if (shadow == nullptr || !shadow->Exists()) {
      return VerifyFail(VerifyErrorClass::kMissingShadow, "I4",
                        "no shadow inode for existing file");
    }
    if (shadow->mode != dirent.mode || shadow->uid != dirent.uid || shadow->gid != dirent.gid) {
      return VerifyFail(VerifyErrorClass::kPermissionMismatch, "I4",
                        "cached permission differs from shadow inode");
    }
  } else {
    if (dirent.uid != request.writer_uid || dirent.gid != request.writer_gid) {
      return VerifyFail(VerifyErrorClass::kOwnershipForgery, "I4",
                        "new file not owned by its creator");
    }
  }
  return report;
}

Result<VerifyReport> IntegrityVerifier::VerifyDirectory(const VerifyRequest& request) {
  const DirentBlock& dir = *request.dirent;
  TRIO_RETURN_IF_ERROR(CheckDirentFields(dir, /*allow_root=*/request.ino == kRootIno));
  if (!dir.IsDirectory()) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1", "expected a directory");
  }
  if (dir.ino != request.ino) {
    return VerifyFail(VerifyErrorClass::kIdentityMismatch, "I1",
                      "dirent ino does not match directory identity");
  }

  VerifyReport report;
  uint64_t index_pages = 0;
  TRIO_RETURN_IF_ERROR(CheckChain(request, dir.first_index_page, &report, &index_pages));

  // I4 for the directory itself (unless it is brand new).
  const InoState self_state = ownership_.StateOfIno(request.ino);
  if (self_state.state == ResourceState::kOwned || request.ino == kRootIno) {
    const ShadowInode* shadow = ShadowInodeOf(pool_, request.ino);
    if (shadow == nullptr || !shadow->Exists()) {
      return VerifyFail(VerifyErrorClass::kMissingShadow, "I4",
                        "no shadow inode for existing directory");
    }
    if (shadow->mode != dir.mode || shadow->uid != dir.uid || shadow->gid != dir.gid) {
      return VerifyFail(VerifyErrorClass::kPermissionMismatch, "I4",
                        "cached directory permission differs from shadow inode");
    }
  } else if (self_state.state == ResourceState::kLeased &&
             self_state.lessee == request.writer) {
    if (dir.uid != request.writer_uid || dir.gid != request.writer_gid) {
      return VerifyFail(VerifyErrorClass::kOwnershipForgery, "I4",
                        "new directory not owned by its creator");
    }
  } else {
    return VerifyFail(VerifyErrorClass::kForeignInode, "I2",
                      "directory inode neither existing nor leased to writer");
  }

  // Scan every live dirent: I1 per entry, duplicate names, and classify each child.
  std::unordered_set<uint64_t> name_hashes;
  std::unordered_set<std::string> names;  // Hash set alone could false-positive; keep exact.
  std::unordered_set<Ino> child_inos;
  std::unordered_map<Ino, bool> present;  // ino -> seen (for removed-children diff).
  // Dirent location of each child at checkpoint time. A child is an existing, untouched
  // child only if its dirent is still where the checkpoint saw it. One the kernel files
  // under this directory but that sits elsewhere was renamed within the session, or
  // left in an earlier session (a pending orphan) and came back: it is classified as
  // moved in, so the kernel re-adopts it and records its new dirent location.
  std::unordered_map<Ino, std::pair<PageNumber, size_t>> at_checkpoint;
  if (request.checkpoint_children != nullptr) {
    for (const CheckpointChild& child : *request.checkpoint_children) {
      at_checkpoint[child.ino] = {child.dirent_page, child.dirent_slot};
    }
  }

  Status scan = ForEachDirent(
      pool_, dir.first_index_page,
      [&](DirentBlock* entry, PageNumber page, size_t slot) -> Status {
        TRIO_RETURN_IF_ERROR(CheckDeadline(request));
        TRIO_RETURN_IF_ERROR(CheckDirentFields(*entry, /*allow_root=*/false));
        ++report.live_dirents;
        // I1: "no file shares the same name under one directory".
        std::string name(entry->Name());
        if (!names.insert(name).second) {
          return VerifyFail(VerifyErrorClass::kDuplicateName, "I1",
                            "duplicate file name in directory");
        }
        name_hashes.insert(HashString(name));
        // I2: no two dirents may claim the same inode number.
        if (!child_inos.insert(entry->ino).second) {
          return VerifyFail(VerifyErrorClass::kDuplicateInode, "I2",
                            "inode number referenced by two dirents");
        }
        present[entry->ino] = true;

        const InoState state = ownership_.StateOfIno(entry->ino);
        if (state.state == ResourceState::kOwned) {
          auto seen = at_checkpoint.find(entry->ino);
          const bool untouched =
              request.checkpoint_children == nullptr ||
              (seen != at_checkpoint.end() && seen->second == std::make_pair(page, slot));
          if (state.parent == request.ino && untouched) {
            // Existing child: I4 cached-permission check.
            const ShadowInode* shadow = ShadowInodeOf(pool_, entry->ino);
            if (shadow == nullptr || !shadow->Exists()) {
              return VerifyFail(VerifyErrorClass::kMissingShadow, "I4",
                                "existing child has no shadow inode");
            }
            if (shadow->mode != entry->mode || shadow->uid != entry->uid ||
                shadow->gid != entry->gid) {
              return VerifyFail(VerifyErrorClass::kPermissionMismatch, "I4",
                                "child cached permission differs from shadow inode");
            }
          } else {
            // Owned by another directory, or renamed within or back into this one: only
            // legal as a rename performed by this writer.
            if (!env_.IsMovePermitted(entry->ino, request.ino, request.writer)) {
              return VerifyFail(VerifyErrorClass::kCrossDirectory, "I2",
                                "child inode belongs to another directory");
            }
            // I4 holds for moved-in children too: a rename carries the cached
            // permissions verbatim, so they must still match the shadow inode. Without
            // this, a writer who legitimately holds both directories can smuggle a
            // chmod/chown inside the rename (AttackMovedInPermissionLift).
            const ShadowInode* shadow = ShadowInodeOf(pool_, entry->ino);
            if (shadow == nullptr || !shadow->Exists()) {
              return VerifyFail(VerifyErrorClass::kMissingShadow, "I4",
                                "moved-in child has no shadow inode");
            }
            if (shadow->mode != entry->mode || shadow->uid != entry->uid ||
                shadow->gid != entry->gid) {
              return VerifyFail(VerifyErrorClass::kPermissionMismatch, "I4",
                                "moved-in child cached permission differs from shadow");
            }
            report.moved_in.push_back(
                MovedInChild{entry->ino, state.parent, page, slot});
          }
        } else if (state.state == ResourceState::kLeased &&
                   state.lessee == request.writer) {
          // Fresh file created in this write session.
          if (entry->uid != request.writer_uid || entry->gid != request.writer_gid) {
            return VerifyFail(VerifyErrorClass::kOwnershipForgery, "I4",
                              "new child not owned by its creator");
          }
          NewChildInfo info;
          info.ino = entry->ino;
          info.dirent_page = page;
          info.dirent_slot = slot;
          info.is_dir = entry->IsDirectory();
          info.mode = entry->mode;
          info.uid = entry->uid;
          info.gid = entry->gid;
          info.first_index_page = entry->first_index_page;
          info.name = std::move(name);
          report.new_children.push_back(std::move(info));
        } else {
          return VerifyFail(VerifyErrorClass::kForeignInode, "I2",
                            "child inode neither existing nor leased to writer");
        }
        return OkStatus();
      });
  TRIO_RETURN_IF_ERROR(scan);

  // I3: diff against the checkpoint to find removed children.
  if (request.checkpoint_children != nullptr) {
    for (const CheckpointChild& child : *request.checkpoint_children) {
      if (present.count(child.ino) != 0) {
        continue;
      }
      report.removed_children.push_back(child.ino);
      if (!child.is_dir) {
        continue;  // Removed files are resolved by the kernel (deleted or renamed away).
      }
      // "The integrity verifier then checks that the deleted child directory is not mapped
      // to any LibFS and has no file under it." (§4.3).
      Status removed = env_.CheckRemovedChildDir(child.ino, request.writer);
      if (!removed.ok() && !VerifyError::IsStructured(removed)) {
        removed = VerifyFail(VerifyErrorClass::kRemovedDirNotEmpty, "I3",
                             removed.message());
      }
      TRIO_RETURN_IF_ERROR(removed);
    }
  }
  return report;
}

}  // namespace trio
