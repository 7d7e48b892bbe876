#include "src/core/core_state.h"

#include <ctime>

#include "src/obs/persist_span.h"

namespace trio {

namespace {
// Format/mkfs persistence accounting (layer "core"). Function-local static: core_state
// has no instance to hang it on, and mkfs runs once per pool.
obs::PersistStats& CorePersistStats() {
  static obs::PersistStats* stats = new obs::PersistStats("core");
  return *stats;
}
}  // namespace

Status Format(NvmPool& pool, const FormatOptions& options) {
  if (options.max_inodes < 2) {
    return InvalidArgument("max_inodes must be at least 2");
  }
  const uint64_t shadow_pages =
      (options.max_inodes + kShadowInodesPerPage - 1) / kShadowInodesPerPage;
  const uint64_t wmap_log = 1 + shadow_pages;
  const uint64_t wmap_log_pages = 8;  // 4096 concurrently write-mapped files.
  const uint64_t file_region = wmap_log + wmap_log_pages;
  if (file_region + 8 > pool.num_pages()) {
    return NoSpace("pool too small for shadow inode table");
  }

  Superblock sb;
  std::memset(&sb, 0, sizeof(sb));
  sb.magic = kSuperMagic;
  sb.version = kFormatVersion;
  sb.num_nodes = options.num_nodes;
  sb.total_pages = pool.num_pages();
  sb.shadow_table_page = 1;
  sb.shadow_table_pages = shadow_pages;
  sb.wmap_log_page = wmap_log;
  sb.wmap_log_pages = wmap_log_pages;
  sb.file_region_page = file_region;
  sb.max_inodes = options.max_inodes;
  sb.clean_shutdown = 1;

  // Root directory: ino 1, rwxr-xr-x. The root's dirent lives in the read-only superblock,
  // so its index chain is preallocated here — no LibFS ever needs to write page 0.
  sb.root.ino = kRootIno;
  sb.root.first_index_page = file_region;
  sb.root.size = 0;
  sb.root.mode = kModeDirectory | 0755;
  sb.root.uid = 0;
  sb.root.gid = 0;
  sb.root.nlink = 1;
  sb.root.mtime_ns = 0;
  sb.root.ctime_ns = 0;
  sb.root.generation = 1;
  sb.root.SetName("/");

  obs::PersistSpan span(pool, &CorePersistStats());
  pool.Write(pool.PageAddress(0), &sb, sizeof(sb));
  span.PersistNow(pool.PageAddress(0), sizeof(sb));

  // Zero the shadow table, the write-map log, and the root's preallocated index page.
  for (uint64_t p = sb.shadow_table_page; p <= file_region; ++p) {
    pool.Set(pool.PageAddress(p), 0, kPageSize);
    span.Persist(pool.PageAddress(p), kPageSize);
  }
  span.Fence();

  ShadowInode root_shadow{};
  root_shadow.mode = sb.root.mode;
  root_shadow.uid = 0;
  root_shadow.gid = 0;
  root_shadow.flags = 1;
  ShadowInode* slot = ShadowInodeOf(pool, kRootIno);
  pool.Write(slot, &root_shadow, sizeof(root_shadow));
  span.PersistNow(slot, sizeof(root_shadow));
  return OkStatus();
}

Status CheckSuperblock(const NvmPool& pool) {
  const Superblock* sb = SuperblockOf(pool);
  if (sb->magic != kSuperMagic) {
    return Corrupted("bad superblock magic");
  }
  if (sb->version != kFormatVersion) {
    return NotSupported("format version mismatch");
  }
  if (sb->total_pages != pool.num_pages()) {
    return Corrupted("superblock page count does not match pool");
  }
  return OkStatus();
}

ShadowInode* ShadowInodeOf(NvmPool& pool, Ino ino) {
  Superblock* sb = SuperblockOf(pool);
  if (ino == kInvalidIno || ino >= sb->max_inodes) {
    return nullptr;
  }
  const uint64_t page = sb->shadow_table_page + ino / kShadowInodesPerPage;
  auto* table = reinterpret_cast<ShadowInode*>(pool.PageAddress(page));
  return &table[ino % kShadowInodesPerPage];
}

PageNumber FileRegionStart(const NvmPool& pool) { return SuperblockOf(pool)->file_region_page; }

Result<uint64_t> CountDirents(NvmPool& pool, PageNumber first_index_page) {
  uint64_t count = 0;
  Status status = ForEachDirent(pool, first_index_page,
                                [&](DirentBlock*, PageNumber, size_t) -> Status {
                                  ++count;
                                  return OkStatus();
                                });
  if (!status.ok()) {
    return status;
  }
  return count;
}

Result<PageNumber> LookupDataPage(const NvmPool& pool, PageNumber first_index_page,
                                  uint64_t file_page_index) {
  PageNumber found = 0;
  Status status =
      ForEachDataPage(pool, first_index_page, [&](uint64_t index, PageNumber page) -> Status {
        if (index == file_page_index) {
          found = page;
          // Use a sentinel error to stop the walk early; translated below.
          return Status(ErrorCode::kTimeout, "stop");
        }
        return OkStatus();
      });
  if (found != 0) {
    return found;
  }
  if (!status.ok() && !status.Is(ErrorCode::kTimeout)) {
    return status;
  }
  return NotFound("no data page at index");
}

}  // namespace trio
