// ArckFs namespace operations: path resolution, directory core-state mutation
// (create/remove/rename entries with their crash-consistent persist protocols), and the
// path-based FsInterface entry points.

#include <utility>

#include "src/libfs/arckfs.h"
#include "src/libfs/arckfs_internal.h"
#include "src/obs/op_context.h"
#include "src/obs/persist_span.h"

namespace trio {

using arckfs_internal::AllocZeroedPage;
using arckfs_internal::FakeTimeNs;

// ---------------------------------------------------------------------------
// Path resolution
// ---------------------------------------------------------------------------

Result<ArckFs::NodePtr> ArckFs::ResolveDir(const std::vector<std::string>& components) {
  NodePtr node = FindNode(kRootIno);
  for (const std::string& component : components) {
    TRIO_RETURN_IF_ERROR(LockForOp(node.get(), 1));
    DirSlot slot;
    const bool found =
        node->dir_index != nullptr && node->dir_index->Lookup(component, &slot);
    UnlockOp(node.get());
    if (!found) {
      return NotFound(component);
    }
    if (!slot.is_dir) {
      return NotDir(component);
    }
    node = GetOrCreateNode(slot.ino, node->ino, /*is_dir=*/true, SlotPointer(slot));
  }
  if (!node->is_dir) {
    return NotDir("path component is a file");
  }
  return node;
}

DirentBlock* ArckFs::SlotPointer(const DirSlot& slot) {
  auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(slot.page));
  return &page->slots[slot.slot];
}

Result<DirSlot> ArckFs::FindEntry(FileNode* dir, std::string_view name) {
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  DirSlot slot;
  if (dir->dir_index == nullptr || !dir->dir_index->Lookup(name, &slot)) {
    return NotFound(std::string(name));
  }
  return slot;
}

// ---------------------------------------------------------------------------
// Directory core-state mutation
// ---------------------------------------------------------------------------

Status ArckFs::AppendDirDataPage(FileNode* dir) {
  std::lock_guard<SpinLock> guard(dir->tails_lock);
  obs::PersistSpan span(pool_, &persist_stats_);
  TRIO_ASSIGN_OR_RETURN(PageNumber data_page,
                        AllocZeroedPage(leases_, pool_, &persist_stats_, 0));
  if (dir->index_pages.empty()) {
    TRIO_ASSIGN_OR_RETURN(PageNumber index_page,
                          AllocZeroedPage(leases_, pool_, &persist_stats_, 0));
    span.CommitStore64(&dir->dirent->first_index_page, index_page);
    dir->index_pages.push_back(index_page);
    dir->dir_next_entry = 0;
  }
  if (dir->dir_next_entry == kIndexEntriesPerPage) {
    TRIO_ASSIGN_OR_RETURN(PageNumber index_page,
                          AllocZeroedPage(leases_, pool_, &persist_stats_, 0));
    auto* last = reinterpret_cast<IndexPage*>(pool_.PageAddress(dir->index_pages.back()));
    span.CommitStore64(&last->next, index_page);
    dir->index_pages.push_back(index_page);
    dir->dir_next_entry = 0;
  }
  auto* last = reinterpret_cast<IndexPage*>(pool_.PageAddress(dir->index_pages.back()));
  span.CommitStore64(&last->entries[dir->dir_next_entry], data_page);
  dir->dir_next_entry++;
  auto tail = std::make_unique<FileNode::DirTail>();
  tail->page = data_page;
  const size_t index = dir->dir_tails.size();
  dir->dir_tail_index[data_page] = index;
  dir->dir_tails.push_back(std::move(tail));
  // The fresh page is non-full: make sure creates can see it.
  size_t hint = dir->dir_first_nonfull.load(std::memory_order_relaxed);
  while (hint > index &&
         !dir->dir_first_nonfull.compare_exchange_weak(hint, index,
                                                       std::memory_order_relaxed)) {
  }
  return OkStatus();
}

Result<DirSlot> ArckFs::CreateEntry(FileNode* dir, std::string_view name, uint32_t mode,
                                    bool exclusive) {
  if (!ValidFileName(name)) {
    return name.size() >= kMaxNameLen ? NameTooLong(std::string(name))
                                      : InvalidArgument("bad file name");
  }
  DirSlot existing;
  if (dir->dir_index->Lookup(name, &existing)) {
    return AlreadyExists(std::string(name));
  }
  TRIO_ASSIGN_OR_RETURN(Ino ino, leases_.AllocIno());

  for (int rounds = 0; rounds < 64; ++rounds) {
    // Multiple logging tails (§4.2): threads start at different tails, so concurrent
    // creates in one directory rarely contend on the same page lock.
    size_t tails;
    {
      std::lock_guard<SpinLock> guard(dir->tails_lock);
      tails = dir->dir_tails.size();
    }
    const size_t start = dir->dir_first_nonfull.load(std::memory_order_acquire);
    bool prefix_full = true;
    for (size_t i = start; i < tails; ++i) {
      FileNode::DirTail* tail;
      {
        std::lock_guard<SpinLock> guard(dir->tails_lock);
        tail = dir->dir_tails[i].get();
      }
      if (tail->full.load(std::memory_order_relaxed)) {
        if (prefix_full) {
          // Every tail up to i is full: advance the scan start for future creates.
          size_t hint = dir->dir_first_nonfull.load(std::memory_order_relaxed);
          while (hint <= i &&
                 !dir->dir_first_nonfull.compare_exchange_weak(
                     hint, i + 1, std::memory_order_relaxed)) {
          }
        }
        continue;
      }
      prefix_full = false;
      std::lock_guard<SpinLock> page_guard(tail->lock);
      auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(tail->page));
      for (uint32_t s = 0; s < kDirentsPerPage; ++s) {
        DirentBlock* d = &page->slots[s];
        if (!d->IsFree()) {
          continue;
        }
        // Crash-consistent create (§4.4): persist every field with ino still 0, then
        // commit the inode number with one atomic durable store.
        DirentBlock block{};
        block.first_index_page = 0;
        block.size = 0;
        block.mode = mode;
        block.uid = config_.uid;
        block.gid = config_.gid;
        block.nlink = 1;
        block.mtime_ns = FakeTimeNs();
        block.ctime_ns = block.mtime_ns;
        block.SetName(name);
        pool_.Write(reinterpret_cast<char*>(d) + sizeof(uint64_t),
                    reinterpret_cast<const char*>(&block) + sizeof(uint64_t),
                    sizeof(DirentBlock) - sizeof(uint64_t));
        obs::PersistSpan span(pool_, &persist_stats_);
        span.Persist(d, sizeof(DirentBlock));
        span.Fence();
        span.CommitStore64(&d->ino, ino);

        DirSlot slot{tail->page, s, ino, (mode & kModeTypeMask) == kModeDirectory};
        if (!dir->dir_index->Insert(name, slot)) {
          // Lost a same-name race after the initial check: undo.
          span.CommitStore64(&d->ino, kInvalidIno);
          leases_.RecycleIno(ino);
          return AlreadyExists(std::string(name));
        }
        stats_.creates.fetch_add(1, std::memory_order_relaxed);
        return slot;
      }
      // Every slot in this page is live: drop it from the active tails until an unlink
      // frees a slot (keeps create O(1) in directory size).
      tail->full.store(true, std::memory_order_relaxed);
    }
    TRIO_RETURN_IF_ERROR(AppendDirDataPage(dir));
  }
  leases_.RecycleIno(ino);
  return NoSpace("could not claim a directory slot");
}

Status ArckFs::RemoveEntry(FileNode* dir, std::string_view name, bool must_be_dir,
                           bool must_be_file) {
  TRIO_ASSIGN_OR_RETURN(DirSlot slot, FindEntry(dir, name));
  DirentBlock* d = SlotPointer(slot);
  if (must_be_dir && !slot.is_dir) {
    return NotDir(std::string(name));
  }
  if (must_be_file && slot.is_dir) {
    return IsDir(std::string(name));
  }
  const PageNumber first_index_page = d->first_index_page;

  if (slot.is_dir) {
    // rmdir requires an empty directory. Count live entries through our own mapping of the
    // child (a well-behaved LibFS never dereferences unmapped pages).
    NodePtr child = GetOrCreateNode(slot.ino, dir->ino, /*is_dir=*/true, d);
    TRIO_RETURN_IF_ERROR(LockForOp(child.get(), 1));
    const size_t live = child->dir_index != nullptr ? child->dir_index->Size() : 0;
    UnlockOp(child.get());
    if (live != 0) {
      return NotEmpty(std::string(name));
    }
    // Release our mapping before deletion: I3 rejects removed directories that are still
    // mapped anywhere.
    RevokeNode(slot.ino);
  }

  // Tombstone: one atomic durable store (§4.4).
  obs::PersistSpan(pool_, &persist_stats_).CommitStore64(&d->ino, kInvalidIno);
  dir->dir_index->Erase(name);
  stats_.unlinks.fetch_add(1, std::memory_order_relaxed);
  // The slot's page has space again: reactivate its logging tail (O(1) via the page
  // index) and let creates scan from it.
  {
    std::lock_guard<SpinLock> guard(dir->tails_lock);
    auto it = dir->dir_tail_index.find(slot.page);
    if (it != dir->dir_tail_index.end()) {
      dir->dir_tails[it->second]->full.store(false, std::memory_order_relaxed);
      size_t hint = dir->dir_first_nonfull.load(std::memory_order_relaxed);
      while (hint > it->second &&
             !dir->dir_first_nonfull.compare_exchange_weak(hint, it->second,
                                                           std::memory_order_relaxed)) {
      }
    }
  }

  DropNode(slot.ino);  // Before the ino is recycled: a create reusing it gets a new node.
  // If this file was created by us and never reconciled, its resources are still leased to
  // us: recycle them locally instead of waiting for kernel reclamation.
  const InoState state = kernel_.StateOfIno(slot.ino);
  if (state.state == ResourceState::kLeased && state.lessee == libfs_) {
    std::vector<PageNumber> pages;
    (void)ForEachIndexPage(pool_, first_index_page, [&](PageNumber p) -> Status {
      pages.push_back(p);
      return OkStatus();
    });
    (void)ForEachDataPage(pool_, first_index_page, [&](uint64_t, PageNumber p) -> Status {
      pages.push_back(p);
      return OkStatus();
    });
    for (PageNumber p : pages) {
      leases_.RecyclePage(p);
    }
    leases_.RecycleIno(slot.ino);
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Path-based FsInterface operations
// ---------------------------------------------------------------------------

Result<ArckFs::NodePtr> ArckFs::OpenNodeByPath(const std::string& path, bool write) {
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(path));
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 1));
  Result<DirSlot> slot = FindEntry(parent.get(), parts.leaf);
  UnlockOp(parent.get());
  if (!slot.ok()) {
    return slot.status();
  }
  NodePtr node =
      GetOrCreateNode(slot->ino, parent->ino, slot->is_dir, SlotPointer(*slot));
  TRIO_RETURN_IF_ERROR(EnsureMapped(node.get(), write));
  return node;
}

Result<Fd> ArckFs::Open(const std::string& path, OpenFlags flags, uint32_t mode) {
  obs::OpScope op("Open");
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(path));
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));

  const int parent_level = flags.create ? 2 : 1;
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), parent_level));
  Result<DirSlot> found = FindEntry(parent.get(), parts.leaf);

  NodePtr node;
  bool created = false;
  if (found.ok()) {
    UnlockOp(parent.get());
    if (flags.create && flags.exclusive) {
      return AlreadyExists(parts.leaf);
    }
    if (found->is_dir && (flags.write || flags.truncate)) {
      return IsDir(parts.leaf);
    }
    node = GetOrCreateNode(found->ino, parent->ino, found->is_dir, SlotPointer(*found));
    TRIO_RETURN_IF_ERROR(EnsureMapped(node.get(), flags.write));
  } else if (found.status().Is(ErrorCode::kNotFound) && flags.create) {
    Result<DirSlot> slot =
        CreateEntry(parent.get(), parts.leaf, kModeRegular | (mode & kModePermMask),
                    flags.exclusive);
    UnlockOp(parent.get());
    if (!slot.ok()) {
      return slot.status();
    }
    node = GetOrCreateNode(slot->ino, parent->ino, /*is_dir=*/false, SlotPointer(*slot));
    AdoptCreated(node.get());
    created = true;
  } else {
    UnlockOp(parent.get());
    return found.status();
  }

  if (flags.truncate && !created) {
    TRIO_RETURN_IF_ERROR(LockForOp(node.get(), 2));
    Status truncated = TruncateLocked(node.get(), 0);
    UnlockOp(node.get());
    TRIO_RETURN_IF_ERROR(truncated);
  }
  // Initial cursor only; O_APPEND writes re-derive the offset under the inode lock.
  const uint64_t offset = flags.append ? pool_.Load64(&node->dirent->size) : 0;
  return fds_.Alloc(node, flags.write, flags.append, offset);
}

Status ArckFs::Mkdir(const std::string& path, uint32_t mode) {
  obs::OpScope op("Mkdir");
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(path));
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 2));
  Result<DirSlot> slot = CreateEntry(parent.get(), parts.leaf,
                                     kModeDirectory | (mode & kModePermMask),
                                     /*exclusive=*/true);
  UnlockOp(parent.get());
  if (!slot.ok()) {
    return slot.status();
  }
  NodePtr node = GetOrCreateNode(slot->ino, parent->ino, /*is_dir=*/true, SlotPointer(*slot));
  AdoptCreated(node.get());
  return OkStatus();
}

Status ArckFs::Rmdir(const std::string& path) {
  obs::OpScope op("Rmdir");
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(path));
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 2));
  Status status = RemoveEntry(parent.get(), parts.leaf, /*must_be_dir=*/true,
                              /*must_be_file=*/false);
  UnlockOp(parent.get());
  return status;
}

Status ArckFs::Unlink(const std::string& path) {
  obs::OpScope op("Unlink");
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(path));
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 2));
  Status status = RemoveEntry(parent.get(), parts.leaf, /*must_be_dir=*/false,
                              /*must_be_file=*/true);
  UnlockOp(parent.get());
  return status;
}

Status ArckFs::Rename(const std::string& from, const std::string& to) {
  obs::OpScope op("Rename");
  std::lock_guard<std::mutex> rename_guard(rename_mutex_);
  TRIO_ASSIGN_OR_RETURN(SplitParent src_parts, SplitParentPath(from));
  TRIO_ASSIGN_OR_RETURN(SplitParent dst_parts, SplitParentPath(to));
  TRIO_ASSIGN_OR_RETURN(NodePtr src_dir, ResolveDir(src_parts.parent));
  TRIO_ASSIGN_OR_RETURN(NodePtr dst_dir, ResolveDir(dst_parts.parent));
  const bool same_dir = src_dir->ino == dst_dir->ino;

  // Lock the two directories in canonical ino order — the LibFS-level mirror of the
  // kernel's ordered two-phase cross-shard acquire. Locking src-then-dst deadlocks with
  // a concurrent opposite-direction rename: each side holds one directory's op lock
  // while EnsureMapped on the other issues a revoke that blocks draining that very
  // lock. The cycle only broke at the lease deadline, and the resulting ForceRelease
  // left both sides scribbling on directories the kernel had already re-granted.
  FileNode* lock_first = src_dir.get();
  FileNode* lock_second = same_dir ? nullptr : dst_dir.get();
  if (lock_second != nullptr && lock_second->ino < lock_first->ino) {
    std::swap(lock_first, lock_second);
  }
  TRIO_RETURN_IF_ERROR(LockForOp(lock_first, 2));
  if (lock_second != nullptr) {
    Status locked = LockForOp(lock_second, 2);
    if (!locked.ok()) {
      UnlockOp(lock_first);
      return locked;
    }
  }
  auto unlock_all = [&] {
    if (lock_second != nullptr) {
      UnlockOp(lock_second);
    }
    UnlockOp(lock_first);
  };

  Result<DirSlot> src_slot = FindEntry(src_dir.get(), src_parts.leaf);
  if (!src_slot.ok()) {
    unlock_all();
    return src_slot.status();
  }
  DirentBlock* src = SlotPointer(*src_slot);

  // Cross-directory rename of a non-empty directory cannot pass I3 (§4.3); reject it
  // up front — a documented ArckFS divergence from POSIX.
  if (src_slot->is_dir && !same_dir) {
    Result<uint64_t> live = CountDirents(pool_, src->first_index_page);
    if (!live.ok() || *live != 0) {
      unlock_all();
      return NotSupported("cross-directory rename of a non-empty directory");
    }
  }

  Result<DirSlot> dst_slot = FindEntry(dst_dir.get(), dst_parts.leaf);
  const bool overwrite = dst_slot.ok();
  if (overwrite) {
    if (dst_slot->is_dir != src_slot->is_dir) {
      unlock_all();
      return dst_slot->is_dir ? IsDir(dst_parts.leaf) : NotDir(dst_parts.leaf);
    }
    if (dst_slot->is_dir) {
      DirentBlock* dst = SlotPointer(*dst_slot);
      Result<uint64_t> live = CountDirents(pool_, dst->first_index_page);
      if (!live.ok() || *live != 0) {
        unlock_all();
        return NotEmpty(dst_parts.leaf);
      }
    }
  }

  UndoJournal& journal = JournalShard();
  Status status = OkStatus();
  Ino replaced_ino = kInvalidIno;
  PageNumber replaced_chain = 0;

  if (overwrite) {
    DirentBlock* dst = SlotPointer(*dst_slot);
    replaced_ino = dst->ino;
    replaced_chain = dst->first_index_page;
    const Ino moving_ino = src->ino;
    std::lock_guard<SpinLock> journal_guard(journal.lock());
    journal.Begin();
    status = journal.LogPreImage(src, sizeof(DirentBlock));
    if (status.ok()) {
      status = journal.LogPreImage(dst, sizeof(DirentBlock));
    }
    if (status.ok()) {
      journal.Activate();
      DirentBlock moved = *src;
      moved.SetName(dst_parts.leaf);
      // Replace = unpublish, rewrite the body, republish (§4.4): the ino is the atomic
      // publish field, so a concurrent kernel scan sees the old dirent, a free slot, or
      // the fully-written new one — never a blend of the two. Both pre-images are
      // journaled, so any crash window rolls back.
      obs::PersistSpan span(pool_, &persist_stats_);
      span.CommitStore64(&dst->ino, kInvalidIno);
      pool_.Write(reinterpret_cast<char*>(dst) + sizeof(uint64_t),
                  reinterpret_cast<const char*>(&moved) + sizeof(uint64_t),
                  sizeof(DirentBlock) - sizeof(uint64_t));
      span.Persist(dst, sizeof(DirentBlock));
      span.Fence();
      span.CommitStore64(&dst->ino, moved.ino);
      span.CommitStore64(&src->ino, kInvalidIno);
      journal.Deactivate();
    }
    if (status.ok()) {
      dst_dir->dir_index->Erase(dst_parts.leaf);
      dst_dir->dir_index->Insert(
          dst_parts.leaf,
          DirSlot{dst_slot->page, dst_slot->slot, moving_ino, src_slot->is_dir});
    }
  } else {
    // Claim a fresh slot in the destination directory under its tail lock, with both the
    // old and new slots journaled, then tombstone the source.
    bool placed = false;
    for (int rounds = 0; rounds < 64 && !placed && status.ok(); ++rounds) {
      size_t tails;
      {
        std::lock_guard<SpinLock> guard(dst_dir->tails_lock);
        tails = dst_dir->dir_tails.size();
      }
      for (size_t i = 0; i < tails && !placed; ++i) {
        FileNode::DirTail* tail;
        {
          std::lock_guard<SpinLock> guard(dst_dir->tails_lock);
          tail = dst_dir->dir_tails[i].get();
        }
        if (tail->full.load(std::memory_order_relaxed)) {
          continue;
        }
        std::lock_guard<SpinLock> page_guard(tail->lock);
        auto* page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(tail->page));
        for (uint32_t s = 0; s < kDirentsPerPage && !placed; ++s) {
          DirentBlock* dst = &page->slots[s];
          if (!dst->IsFree()) {
            continue;
          }
          std::lock_guard<SpinLock> journal_guard(journal.lock());
          journal.Begin();
          status = journal.LogPreImage(src, sizeof(DirentBlock));
          if (status.ok()) {
            status = journal.LogPreImage(dst, sizeof(DirentBlock));
          }
          if (!status.ok()) {
            break;
          }
          journal.Activate();
          DirentBlock moved = *src;
          moved.SetName(dst_parts.leaf);
          // Same publish protocol as create (§4.4): persist every field with the slot
          // still free, then commit the ino with one atomic durable store. A kernel
          // verifier scanning this page mid-rename either skips the free slot or sees
          // the whole dirent, and the publish is durable before the source tombstone.
          pool_.Write(reinterpret_cast<char*>(dst) + sizeof(uint64_t),
                      reinterpret_cast<const char*>(&moved) + sizeof(uint64_t),
                      sizeof(DirentBlock) - sizeof(uint64_t));
          obs::PersistSpan span(pool_, &persist_stats_);
          span.Persist(dst, sizeof(DirentBlock));
          span.Fence();
          span.CommitStore64(&dst->ino, moved.ino);
          span.CommitStore64(&src->ino, kInvalidIno);
          journal.Deactivate();
          dst_dir->dir_index->Insert(dst_parts.leaf,
                                     DirSlot{tail->page, s, moved.ino, src_slot->is_dir});
          placed = true;
        }
        if (!placed) {
          tail->full.store(true, std::memory_order_relaxed);
        }
      }
      if (!placed && status.ok()) {
        status = AppendDirDataPage(dst_dir.get());
      }
    }
    if (!placed && status.ok()) {
      status = NoSpace("no slot for rename target");
    }
  }

  if (status.ok()) {
    src_dir->dir_index->Erase(src_parts.leaf);
    // Fix up the moved file's cached node: its dirent moved.
    NodePtr moved_node = FindNode(src_slot->ino);
    if (moved_node != nullptr) {
      DirSlot now;
      if (dst_dir->dir_index->Lookup(dst_parts.leaf, &now)) {
        moved_node->dirent = SlotPointer(now);
        moved_node->parent = dst_dir->ino;
      }
    }
    // The replaced file is gone; recycle if it was still only leased to us.
    if (replaced_ino != kInvalidIno) {
      const InoState state = kernel_.StateOfIno(replaced_ino);
      if (state.state == ResourceState::kLeased && state.lessee == libfs_) {
        (void)ForEachIndexPage(pool_, replaced_chain, [&](PageNumber p) -> Status {
          leases_.RecyclePage(p);
          return OkStatus();
        });
        (void)ForEachDataPage(pool_, replaced_chain,
                              [&](uint64_t, PageNumber p) -> Status {
                                leases_.RecyclePage(p);
                                return OkStatus();
                              });
        leases_.RecycleIno(replaced_ino);
      }
      DropNode(replaced_ino);
    }
  }
  unlock_all();
  return status;
}

Result<StatInfo> ArckFs::Stat(const std::string& path) {
  obs::OpScope op("Stat");
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  if (components.empty()) {
    const DirentBlock& root = SuperblockOf(pool_)->root;
    StatInfo info{root.ino, root.mode, root.uid, root.gid,
                  root.size, root.mtime_ns, root.ctime_ns};
    return info;
  }
  SplitParent parts;
  parts.leaf = std::move(components.back());
  components.pop_back();
  parts.parent = std::move(components);

  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 1));
  Result<DirSlot> slot = FindEntry(parent.get(), parts.leaf);
  Status failed = slot.ok() ? OkStatus() : slot.status();
  StatInfo info;
  if (slot.ok()) {
    const DirentBlock* d = SlotPointer(*slot);
    info = StatInfo{d->ino, d->mode, d->uid, d->gid, d->size, d->mtime_ns, d->ctime_ns};
  }
  UnlockOp(parent.get());
  if (!failed.ok()) {
    return failed;
  }
  return info;
}

Result<std::vector<DirEntryInfo>> ArckFs::ReadDir(const std::string& path) {
  obs::OpScope op("ReadDir");
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  TRIO_ASSIGN_OR_RETURN(NodePtr node, ResolveDir(components));
  TRIO_RETURN_IF_ERROR(LockForOp(node.get(), 1));
  std::vector<DirEntryInfo> entries;
  node->dir_index->ForEach([&](const std::string& name, const DirSlot& slot) {
    entries.push_back(DirEntryInfo{name, slot.ino, slot.is_dir});
  });
  UnlockOp(node.get());
  return entries;
}

Status ArckFs::Chmod(const std::string& path, uint32_t perm) {
  obs::OpScope op("Chmod");
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(path));
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 1));
  Result<DirSlot> slot = FindEntry(parent.get(), parts.leaf);
  UnlockOp(parent.get());
  if (!slot.ok()) {
    return slot.status();
  }
  // Permission changes go through the kernel controller: the shadow inode is the ground
  // truth the verifier trusts (I4, §4.3).
  TRIO_RETURN_IF_ERROR(EnsureReconciled(slot->ino));
  return kernel_.Chmod(libfs_, slot->ino, perm);
}

Status ArckFs::ReleaseFile(const std::string& path) {
  obs::OpScope op("ReleaseFile");
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  if (components.empty()) {
    RevokeNode(kRootIno);
    return OkStatus();
  }
  SplitParent parts;
  parts.leaf = std::move(components.back());
  components.pop_back();
  parts.parent = std::move(components);
  TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
  TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 1));
  Result<DirSlot> slot = FindEntry(parent.get(), parts.leaf);
  UnlockOp(parent.get());
  if (!slot.ok()) {
    return slot.status();
  }
  RevokeNode(slot->ino);
  return OkStatus();
}

Status ArckFs::Commit(const std::string& path) {
  obs::OpScope op("Commit");
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  Ino ino = kRootIno;
  if (!components.empty()) {
    SplitParent parts;
    parts.leaf = std::move(components.back());
    components.pop_back();
    parts.parent = std::move(components);
    TRIO_ASSIGN_OR_RETURN(NodePtr parent, ResolveDir(parts.parent));
    TRIO_RETURN_IF_ERROR(LockForOp(parent.get(), 1));
    Result<DirSlot> slot = FindEntry(parent.get(), parts.leaf);
    UnlockOp(parent.get());
    if (!slot.ok()) {
      return slot.status();
    }
    ino = slot->ino;
  }
  TRIO_RETURN_IF_ERROR(EnsureReconciled(ino));
  return kernel_.CommitFile(libfs_, ino);
}

Status ArckFs::EnsureReconciled(Ino ino) {
  NodePtr node = FindNode(ino);
  if (node != nullptr && node->locally_created) {
    // Committing the parent directory verifies it and registers our fresh children with
    // the kernel (we remain their writer).
    TRIO_RETURN_IF_ERROR(kernel_.CommitFile(libfs_, node->parent));
    node->locally_created = false;
  }
  return OkStatus();
}

}  // namespace trio
