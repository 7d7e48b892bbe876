#include "src/baselines/baselines.h"

#include <algorithm>
#include <cstring>

namespace trio {

const char* BaselineName(BaselineKind kind) {
  switch (kind) {
    case BaselineKind::kExt4:
      return "ext4-like";
    case BaselineKind::kPmfs:
      return "PMFS-like";
    case BaselineKind::kNova:
      return "NOVA-like";
    case BaselineKind::kWinefs:
      return "WineFS-like";
    case BaselineKind::kOdinfs:
      return "OdinFS-like";
  }
  return "?";
}

KernelFsOptions BaselineOptions(BaselineKind kind) {
  KernelFsOptions options;
  switch (kind) {
    case BaselineKind::kExt4:
      options.journal_mode = JournalMode::kGlobalJournal;
      break;
    case BaselineKind::kPmfs:
      options.journal_mode = JournalMode::kNone;
      break;
    case BaselineKind::kNova:
      options.journal_mode = JournalMode::kPerInodeLog;
      break;
    case BaselineKind::kWinefs:
    case BaselineKind::kOdinfs:
      options.journal_mode = JournalMode::kPerCpuJournal;
      break;
  }
  return options;
}

KernelFsAdapter::KernelFsAdapter(NvmPool& pool, BaselineKind kind, VfsConfig vfs_config)
    : pool_(pool), kind_(kind), vfs_(vfs_config), engine_(pool, BaselineOptions(kind)) {
  if (kind == BaselineKind::kOdinfs) {
    delegation_ = std::make_unique<DelegationPool>(pool_);
  }
}

KernelFsAdapter::~KernelFsAdapter() = default;

Result<Ino> KernelFsAdapter::ResolvePath(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(std::vector<std::string> components, SplitPath(path));
  Ino ino = SimpleKernelFs::kKRootIno;
  for (const std::string& component : components) {
    // Directory-cache lookup under the global dcache lock (the FxMark bottleneck).
    std::lock_guard<std::mutex> dcache(vfs_.dcache_lock());
    vfs_.CountDcacheHit();
    TRIO_ASSIGN_OR_RETURN(ino, engine_.Lookup(ino, component));
  }
  return ino;
}

Result<std::pair<Ino, std::string>> KernelFsAdapter::ResolveParent(const std::string& path) {
  TRIO_ASSIGN_OR_RETURN(SplitParent parts, SplitParentPath(path));
  Ino dir = SimpleKernelFs::kKRootIno;
  for (const std::string& component : parts.parent) {
    std::lock_guard<std::mutex> dcache(vfs_.dcache_lock());
    vfs_.CountDcacheHit();
    TRIO_ASSIGN_OR_RETURN(dir, engine_.Lookup(dir, component));
  }
  return std::make_pair(dir, parts.leaf);
}

Result<Fd> KernelFsAdapter::Open(const std::string& path, OpenFlags flags, uint32_t mode) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  Result<Ino> ino = engine_.Lookup(parent.first, parent.second);
  if (!ino.ok()) {
    if (!ino.status().Is(ErrorCode::kNotFound) || !flags.create) {
      return ino.status();
    }
    std::lock_guard<std::mutex> dir_lock(vfs_.inode_lock(parent.first));
    ino = engine_.Create(parent.first, parent.second, kModeRegular | (mode & kModePermMask));
    if (!ino.ok()) {
      return ino.status();
    }
  } else if (flags.create && flags.exclusive) {
    return AlreadyExists(parent.second);
  }
  if (flags.truncate) {
    std::lock_guard<std::mutex> file_lock(vfs_.inode_lock(*ino));
    TRIO_RETURN_IF_ERROR(engine_.Truncate(*ino, 0));
  }
  uint64_t offset = 0;
  if (flags.append) {
    TRIO_ASSIGN_OR_RETURN(StatInfo info, engine_.Stat(*ino));
    offset = info.size;
  }
  auto state = std::make_shared<OpenState>();
  state->ino = *ino;
  return fds_.Alloc(state, flags.write, flags.append, offset);
}

Status KernelFsAdapter::Close(Fd fd) {
  vfs_.Trap();
  return fds_.Release(fd);
}

Result<size_t> KernelFsAdapter::Pread(Fd fd, void* buf, size_t count, uint64_t offset) {
  vfs_.Trap();
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  return engine_.Read(entry->file->ino, buf, count, offset);
}

Result<size_t> KernelFsAdapter::Pwrite(Fd fd, const void* buf, size_t count,
                                       uint64_t offset) {
  vfs_.Trap();
  auto* entry = fds_.Get(fd);
  if (entry == nullptr || !entry->writable) {
    return BadFd();
  }
  // The VFS serializes writers per inode (no range locks in the generic path).
  std::lock_guard<std::mutex> inode_lock(vfs_.inode_lock(entry->file->ino));
  return engine_.Write(entry->file->ino, buf, count, offset);
}

Result<size_t> KernelFsAdapter::Read(Fd fd, void* buf, size_t count) {
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  const uint64_t offset = entry->offset.load(std::memory_order_relaxed);
  TRIO_ASSIGN_OR_RETURN(size_t done, Pread(fd, buf, count, offset));
  entry->offset.store(offset + done, std::memory_order_relaxed);
  return done;
}

Result<size_t> KernelFsAdapter::Write(Fd fd, const void* buf, size_t count) {
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  uint64_t offset = entry->offset.load(std::memory_order_relaxed);
  if (entry->append) {
    TRIO_ASSIGN_OR_RETURN(StatInfo info, engine_.Stat(entry->file->ino));
    offset = info.size;
  }
  TRIO_ASSIGN_OR_RETURN(size_t done, Pwrite(fd, buf, count, offset));
  entry->offset.store(offset + done, std::memory_order_relaxed);
  return done;
}

Result<uint64_t> KernelFsAdapter::Seek(Fd fd, uint64_t offset) {
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  entry->offset.store(offset, std::memory_order_relaxed);
  return offset;
}

Status KernelFsAdapter::Fsync(Fd fd) {
  vfs_.Trap();
  return fds_.Get(fd) != nullptr ? OkStatus() : BadFd();
}

Status KernelFsAdapter::Ftruncate(Fd fd, uint64_t size) {
  vfs_.Trap();
  auto* entry = fds_.Get(fd);
  if (entry == nullptr || !entry->writable) {
    return BadFd();
  }
  std::lock_guard<std::mutex> inode_lock(vfs_.inode_lock(entry->file->ino));
  return engine_.Truncate(entry->file->ino, size);
}

Status KernelFsAdapter::Mkdir(const std::string& path, uint32_t mode) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  std::lock_guard<std::mutex> dir_lock(vfs_.inode_lock(parent.first));
  Result<Ino> ino =
      engine_.Create(parent.first, parent.second, kModeDirectory | (mode & kModePermMask));
  return ino.ok() ? OkStatus() : ino.status();
}

Status KernelFsAdapter::Rmdir(const std::string& path) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  std::lock_guard<std::mutex> dir_lock(vfs_.inode_lock(parent.first));
  return engine_.Remove(parent.first, parent.second, /*must_be_dir=*/true);
}

Status KernelFsAdapter::Unlink(const std::string& path) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  std::lock_guard<std::mutex> dir_lock(vfs_.inode_lock(parent.first));
  return engine_.Remove(parent.first, parent.second, /*must_be_dir=*/false);
}

Status KernelFsAdapter::Rename(const std::string& from, const std::string& to) {
  vfs_.Trap();
  // The kernel's global rename lock.
  std::lock_guard<std::mutex> rename_lock(vfs_.rename_lock());
  TRIO_ASSIGN_OR_RETURN(auto src, ResolveParent(from));
  TRIO_ASSIGN_OR_RETURN(auto dst, ResolveParent(to));
  std::lock_guard<std::mutex> src_lock(vfs_.inode_lock(src.first));
  if (src.first != dst.first) {
    std::lock_guard<std::mutex> dst_lock(vfs_.inode_lock(dst.first));
    return engine_.Rename(src.first, src.second, dst.first, dst.second);
  }
  return engine_.Rename(src.first, src.second, dst.first, dst.second);
}

Result<StatInfo> KernelFsAdapter::Stat(const std::string& path) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(Ino ino, ResolvePath(path));
  return engine_.Stat(ino);
}

Result<std::vector<DirEntryInfo>> KernelFsAdapter::ReadDir(const std::string& path) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(Ino ino, ResolvePath(path));
  std::lock_guard<std::mutex> dir_lock(vfs_.inode_lock(ino));
  return engine_.List(ino);
}

Status KernelFsAdapter::Truncate(const std::string& path, uint64_t size) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(Ino ino, ResolvePath(path));
  std::lock_guard<std::mutex> inode_lock(vfs_.inode_lock(ino));
  return engine_.Truncate(ino, size);
}

Status KernelFsAdapter::Chmod(const std::string& path, uint32_t perm) {
  vfs_.Trap();
  TRIO_ASSIGN_OR_RETURN(Ino ino, ResolvePath(path));
  return engine_.Chmod(ino, perm);
}

Result<Ino> KernelFsAdapter::FdToIno(Fd fd) {
  auto* entry = fds_.Get(fd);
  if (entry == nullptr) {
    return BadFd();
  }
  return entry->file->ino;
}

// ---------------------------------------------------------------------------
// SplitFS-like
// ---------------------------------------------------------------------------

SplitFsLike::SplitFsLike(NvmPool& pool, VfsConfig vfs_config)
    : pool_(pool), kernel_path_(pool, BaselineKind::kExt4, vfs_config) {}

Result<Fd> SplitFsLike::Open(const std::string& path, OpenFlags flags, uint32_t mode) {
  return kernel_path_.Open(path, flags, mode);
}
Status SplitFsLike::Close(Fd fd) { return kernel_path_.Close(fd); }

Result<size_t> SplitFsLike::Pread(Fd fd, void* buf, size_t count, uint64_t offset) {
  // Data reads bypass the kernel entirely (SplitFS's mmap-ed extent path): no trap, no
  // VFS locks — userspace loads against the already-mapped blocks.
  TRIO_ASSIGN_OR_RETURN(Ino ino, kernel_path_.FdToIno(fd));
  direct_ops_.fetch_add(1, std::memory_order_relaxed);
  return kernel_path_.engine().Read(ino, buf, count, offset);
}

Result<size_t> SplitFsLike::Pwrite(Fd fd, const void* buf, size_t count, uint64_t offset) {
  TRIO_ASSIGN_OR_RETURN(Ino ino, kernel_path_.FdToIno(fd));
  Result<StatInfo> info = kernel_path_.engine().Stat(ino);
  if (!info.ok()) {
    return info.status();
  }
  if (offset + count > info->size) {
    // Extending writes involve the kernel (SplitFS stages appends and relinks via a
    // syscall); overwrites of existing blocks go direct.
    return kernel_path_.Pwrite(fd, buf, count, offset);
  }
  direct_ops_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> inode_lock(kernel_path_.InodeLock(ino));
  return kernel_path_.engine().Write(ino, buf, count, offset);
}

Result<size_t> SplitFsLike::Read(Fd fd, void* buf, size_t count) {
  return kernel_path_.Read(fd, buf, count);
}
Result<size_t> SplitFsLike::Write(Fd fd, const void* buf, size_t count) {
  return kernel_path_.Write(fd, buf, count);
}
Result<uint64_t> SplitFsLike::Seek(Fd fd, uint64_t offset) {
  return kernel_path_.Seek(fd, offset);
}
Status SplitFsLike::Fsync(Fd fd) { return OkStatus(); }  // Data path is synchronous.
Status SplitFsLike::Ftruncate(Fd fd, uint64_t size) {
  return kernel_path_.Ftruncate(fd, size);
}
Status SplitFsLike::Mkdir(const std::string& path, uint32_t mode) {
  return kernel_path_.Mkdir(path, mode);
}
Status SplitFsLike::Rmdir(const std::string& path) { return kernel_path_.Rmdir(path); }
Status SplitFsLike::Unlink(const std::string& path) { return kernel_path_.Unlink(path); }
Status SplitFsLike::Rename(const std::string& from, const std::string& to) {
  return kernel_path_.Rename(from, to);
}
Result<StatInfo> SplitFsLike::Stat(const std::string& path) {
  return kernel_path_.Stat(path);
}
Result<std::vector<DirEntryInfo>> SplitFsLike::ReadDir(const std::string& path) {
  return kernel_path_.ReadDir(path);
}
Status SplitFsLike::Truncate(const std::string& path, uint64_t size) {
  return kernel_path_.Truncate(path, size);
}
Status SplitFsLike::Chmod(const std::string& path, uint32_t perm) {
  return kernel_path_.Chmod(path, perm);
}

// ---------------------------------------------------------------------------
// Strata-like
// ---------------------------------------------------------------------------

StrataLike::StrataLike(NvmPool& pool, VfsConfig vfs_config, size_t digest_threshold)
    : pool_(pool),
      kernel_path_(pool, BaselineKind::kExt4, vfs_config),
      digest_threshold_(digest_threshold) {}

Status StrataLike::Append(const std::string& path, uint64_t offset, const void* data,
                          size_t len) {
  std::lock_guard<std::mutex> guard(log_mutex_);
  PendingWrite pending;
  pending.path = path;
  pending.offset = offset;
  pending.data.assign(static_cast<const char*>(data), len);
  log_size_ += len + 64;  // Record header overhead, as in Strata's log.
  log_bytes_.fetch_add(len + 64, std::memory_order_relaxed);
  log_.push_back(std::move(pending));
  return OkStatus();
}

Status StrataLike::MaybeDigest() {
  bool need;
  {
    std::lock_guard<std::mutex> guard(log_mutex_);
    need = log_size_ >= digest_threshold_;
  }
  return need ? Digest() : OkStatus();
}

Status StrataLike::Digest() {
  std::deque<PendingWrite> batch;
  {
    std::lock_guard<std::mutex> guard(log_mutex_);
    batch.swap(log_);
    log_size_ = 0;
  }
  if (batch.empty()) {
    return OkStatus();
  }
  digests_.fetch_add(1, std::memory_order_relaxed);
  for (PendingWrite& pending : batch) {
    OpenFlags flags = OpenFlags::ReadWrite();
    Result<Fd> fd = kernel_path_.Open(pending.path, flags);
    if (!fd.ok()) {
      continue;  // Deleted before digestion.
    }
    (void)kernel_path_.Pwrite(*fd, pending.data.data(), pending.data.size(),
                              pending.offset);
    (void)kernel_path_.Close(*fd);
  }
  return OkStatus();
}

Result<Fd> StrataLike::Open(const std::string& path, OpenFlags flags, uint32_t mode) {
  Result<Fd> fd = kernel_path_.Open(path, flags, mode);
  if (fd.ok()) {
    std::lock_guard<std::mutex> guard(log_mutex_);
    fd_paths_[*fd] = path;
  }
  return fd;
}

Status StrataLike::Close(Fd fd) {
  {
    std::lock_guard<std::mutex> guard(log_mutex_);
    fd_paths_.erase(fd);
  }
  return kernel_path_.Close(fd);
}

Result<size_t> StrataLike::Pwrite(Fd fd, const void* buf, size_t count, uint64_t offset) {
  std::string path;
  {
    std::lock_guard<std::mutex> guard(log_mutex_);
    auto it = fd_paths_.find(fd);
    if (it == fd_paths_.end()) {
      return BadFd();
    }
    path = it->second;
  }
  TRIO_RETURN_IF_ERROR(Append(path, offset, buf, count));
  TRIO_RETURN_IF_ERROR(MaybeDigest());
  return count;
}

Result<size_t> StrataLike::Pread(Fd fd, void* buf, size_t count, uint64_t offset) {
  // Read-your-writes: the undigested log must win over the kernel FS contents.
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Pread(fd, buf, count, offset);
}

Result<size_t> StrataLike::Read(Fd fd, void* buf, size_t count) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Read(fd, buf, count);
}

Result<size_t> StrataLike::Write(Fd fd, const void* buf, size_t count) {
  // Cursor writes ride the kernel adapter's cursor bookkeeping directly; only positional
  // writes take the log fast path in this simplification.
  return kernel_path_.Write(fd, buf, count);
}

Result<uint64_t> StrataLike::Seek(Fd fd, uint64_t offset) {
  return kernel_path_.Seek(fd, offset);
}
Status StrataLike::Fsync(Fd fd) { return Digest(); }
Status StrataLike::Ftruncate(Fd fd, uint64_t size) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Ftruncate(fd, size);
}
Status StrataLike::Mkdir(const std::string& path, uint32_t mode) {
  return kernel_path_.Mkdir(path, mode);
}
Status StrataLike::Rmdir(const std::string& path) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Rmdir(path);
}
Status StrataLike::Unlink(const std::string& path) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Unlink(path);
}
Status StrataLike::Rename(const std::string& from, const std::string& to) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Rename(from, to);
}
Result<StatInfo> StrataLike::Stat(const std::string& path) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Stat(path);
}
Result<std::vector<DirEntryInfo>> StrataLike::ReadDir(const std::string& path) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.ReadDir(path);
}
Status StrataLike::Truncate(const std::string& path, uint64_t size) {
  TRIO_RETURN_IF_ERROR(Digest());
  return kernel_path_.Truncate(path, size);
}
Status StrataLike::Chmod(const std::string& path, uint32_t perm) {
  return kernel_path_.Chmod(path, perm);
}

}  // namespace trio
