// Read-side helpers over the core state: mkfs, shadow-inode access, and bounds-checked
// walkers over index-page chains and directory entries. The walkers never trust a page
// number (they bound-check against the file region and detect cycles), so the integrity
// verifier and auxiliary-state rebuild can run them over possibly-corrupted state.

#ifndef SRC_CORE_CORE_STATE_H_
#define SRC_CORE_CORE_STATE_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/format.h"
#include "src/nvm/nvm.h"

namespace trio {

struct FormatOptions {
  uint64_t max_inodes = 1 << 16;
  uint32_t num_nodes = 1;
};

// mkfs: lays out superblock + shadow inode table and creates an empty root directory.
Status Format(NvmPool& pool, const FormatOptions& options);

// Validates magic/version (called on "mount").
Status CheckSuperblock(const NvmPool& pool);

// Ground-truth permission record for `ino` (kernel-only region). Returns nullptr if the
// ino is out of range.
ShadowInode* ShadowInodeOf(NvmPool& pool, Ino ino);

// First LibFS-mappable page (everything below is superblock + kernel region).
PageNumber FileRegionStart(const NvmPool& pool);

// Is `page` a plausible file-region page (used by the verifier and walkers)?
inline bool ValidFilePage(const NvmPool& pool, PageNumber page) {
  const Superblock* sb = SuperblockOf(pool);
  return page >= sb->file_region_page && page < sb->total_pages;
}

// ---- Walkers ----
//
// Templates over the visitor, so a walk inlines its callback (no type erasure or heap
// captures). Every visitor returns Status; a non-OK status stops the walk and is returned.

// Visits each index page of the chain starting at `first_index_page`.
// The callback receives the page number and may return a non-OK status to stop.
// Returns kCorrupted on out-of-range page numbers or cycles.
template <typename Fn>
Status ForEachIndexPage(const NvmPool& pool, PageNumber first_index_page, Fn&& fn) {
  PageNumber page = first_index_page;
  uint64_t visited = 0;
  while (page != 0) {
    if (!ValidFilePage(pool, page)) {
      return Corrupted("index page number out of range");
    }
    if (++visited > pool.num_pages()) {
      return Corrupted("cycle in index page chain");
    }
    TRIO_RETURN_IF_ERROR(fn(page));
    page = reinterpret_cast<const IndexPage*>(pool.PageAddress(page))->next;
  }
  return OkStatus();
}

// Visits every non-hole index entry RAW: NVM entries are bounds-checked page numbers,
// tier entries are passed through tagged (decode with TierSlotOfEntry). Used by the
// verifier, fsck, digestion, and LibFS aux rebuild — the walkers that must account for
// both tiers. fn(file_page_index, entry).
template <typename Fn>
Status ForEachDataEntry(const NvmPool& pool, PageNumber first_index_page, Fn&& fn) {
  uint64_t base_index = 0;
  return ForEachIndexPage(pool, first_index_page, [&](PageNumber page) -> Status {
    const auto* index = reinterpret_cast<const IndexPage*>(pool.PageAddress(page));
    for (size_t i = 0; i < kIndexEntriesPerPage; ++i) {
      const uint64_t entry = index->entries[i];
      if (entry == 0) {
        continue;  // Hole.
      }
      if (!IsTierEntry(entry) && !ValidFilePage(pool, entry)) {
        return Corrupted("data page number out of range");
      }
      TRIO_RETURN_IF_ERROR(fn(base_index + i, entry));
    }
    base_index += kIndexEntriesPerPage;
    return OkStatus();
  });
}

// Visits each NVM-resident data page with its logical index within the file
// (file_page_index = byte_offset / kPageSize). Holes (entry == 0) and tier entries
// (digested to the slow backend; see IsTierEntry) are skipped — callers that must see
// digested state use ForEachDataEntry. fn(file_page_index, page).
template <typename Fn>
Status ForEachDataPage(const NvmPool& pool, PageNumber first_index_page, Fn&& fn) {
  return ForEachDataEntry(pool, first_index_page, [&](uint64_t index, uint64_t entry) -> Status {
    if (IsTierEntry(entry)) {
      return OkStatus();  // Digested to the backend; not an NVM page.
    }
    return fn(index, static_cast<PageNumber>(entry));
  });
}

// Visits each live DirentBlock of the directory whose chain starts at `first_index_page`.
// The pointer stays valid as long as the pool does; `page`/`slot` locate it.
// fn(dirent, page, slot).
template <typename Fn>
Status ForEachDirent(NvmPool& pool, PageNumber first_index_page, Fn&& fn) {
  return ForEachDataPage(pool, first_index_page, [&](uint64_t, PageNumber page) -> Status {
    auto* dir_page = reinterpret_cast<DirDataPage*>(pool.PageAddress(page));
    for (size_t slot = 0; slot < kDirentsPerPage; ++slot) {
      DirentBlock* dirent = &dir_page->slots[slot];
      // The ino is the atomic publish field (§4.4): an acquire load pairs with the
      // writer's release store so a dirent is either invisible or fully written — the
      // kernel scans pages a LibFS may be committing to concurrently.
      if (pool.Load64(&dirent->ino) == kInvalidIno) {
        continue;
      }
      TRIO_RETURN_IF_ERROR(fn(dirent, page, slot));
    }
    return OkStatus();
  });
}

// Counts live dirents (kNotFound-free convenience used by rmdir and I3).
Result<uint64_t> CountDirents(NvmPool& pool, PageNumber first_index_page);

// The data page covering logical file page `file_page_index`, or kNotFound if it is a hole
// or beyond the chain. O(chain length); ArckFS indexes its cached chain vector instead.
Result<PageNumber> LookupDataPage(const NvmPool& pool, PageNumber first_index_page,
                                  uint64_t file_page_index);

}  // namespace trio

#endif  // SRC_CORE_CORE_STATE_H_
