// MMU emulation. On real hardware the kernel controller programs page tables so that each
// application's loads/stores can only reach the NVM pages it was granted (§3.2). In this
// single-process emulation, each LibFS carries an MmuSim map of page -> permission that the
// kernel controller programs on map/unmap/alloc/free, and LibFS code checks before touching
// NVM. A *malicious* LibFS (src/attacks) skips its own checks — but the attack tests only
// let it scribble on pages where MmuSim says it holds write permission, which is exactly
// what the hardware MMU would permit; everything else "faults" (test failure).
//
// Grants are REFERENCE COUNTED per (libfs, page, strength): a page reachable through both
// a file mapping and the parent directory's data pages (the co-located inode design, §4.1)
// holds one reference per justification, and the effective permission is the strongest
// with a nonzero count. This makes revocation shard-local for the sharded controller — a
// mapping teardown releases exactly its own references instead of rescanning every other
// mapping of the tenant to recompute the strongest surviving permission.

#ifndef SRC_KERNEL_MMU_SIM_H_
#define SRC_KERNEL_MMU_SIM_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>

#include "src/core/ownership.h"
#include "src/nvm/nvm.h"

namespace trio {

enum class PagePerm : uint8_t { kNone = 0, kRead = 1, kReadWrite = 3 };

class MmuSim {
 public:
  MmuSim() = default;

  // Add one reference of strength `perm` (kNone is a no-op).
  void Grant(LibFsId libfs, PageNumber page, PagePerm perm) { Grant(libfs, {&page, 1}, perm); }

  // Release one reference of strength `perm` (floors at zero: a forgiving release of an
  // unheld reference must not strip somebody else's justification).
  void Revoke(LibFsId libfs, PageNumber page, PagePerm perm) {
    Revoke(libfs, {&page, 1}, perm);
  }

  // Batch forms over a mapping's pages: one lock and one table lookup for the whole list.
  void Grant(LibFsId libfs, std::span<const PageNumber> pages, PagePerm perm) {
    if (perm == PagePerm::kNone || pages.empty()) {
      return;
    }
    std::lock_guard<std::mutex> guard(mutex_);
    auto& table = tables_[libfs];
    for (PageNumber page : pages) {
      Ref& ref = table[page];
      if (perm == PagePerm::kReadWrite) {
        ++ref.rw;
      } else {
        ++ref.ro;
      }
    }
  }

  void Revoke(LibFsId libfs, std::span<const PageNumber> pages, PagePerm perm) {
    if (perm == PagePerm::kNone || pages.empty()) {
      return;
    }
    std::lock_guard<std::mutex> guard(mutex_);
    auto table = tables_.find(libfs);
    if (table == tables_.end()) {
      return;
    }
    for (PageNumber page : pages) {
      auto it = table->second.find(page);
      if (it == table->second.end()) {
        continue;
      }
      Ref& ref = it->second;
      if (perm == PagePerm::kReadWrite) {
        ref.rw -= ref.rw > 0 ? 1 : 0;
      } else {
        ref.ro -= ref.ro > 0 ? 1 : 0;
      }
      if (ref.rw == 0 && ref.ro == 0) {
        table->second.erase(it);
      }
    }
  }

  void RevokeAll(LibFsId libfs) {
    std::lock_guard<std::mutex> guard(mutex_);
    tables_.erase(libfs);
  }

  // Would a load (write=false) or store (write=true) to this page fault?
  bool Check(LibFsId libfs, PageNumber page, bool write) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto table = tables_.find(libfs);
    if (table == tables_.end()) {
      return false;
    }
    auto it = table->second.find(page);
    if (it == table->second.end()) {
      return false;
    }
    return !write || it->second.rw > 0;
  }

  bool CheckRange(LibFsId libfs, const NvmPool& pool, const void* addr, size_t len,
                  bool write) const {
    if (len == 0) {
      return true;
    }
    const PageNumber first = pool.PageOf(addr);
    const PageNumber last = pool.PageOf(static_cast<const char*>(addr) + len - 1);
    for (PageNumber p = first; p <= last; ++p) {
      if (!Check(libfs, p, write)) {
        return false;
      }
    }
    return true;
  }

  size_t MappedPageCount(LibFsId libfs) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto table = tables_.find(libfs);
    return table == tables_.end() ? 0 : table->second.size();
  }

 private:
  struct Ref {
    uint32_t rw = 0;
    uint32_t ro = 0;
  };
  mutable std::mutex mutex_;
  std::unordered_map<LibFsId, std::unordered_map<PageNumber, Ref>> tables_;
};

}  // namespace trio

#endif  // SRC_KERNEL_MMU_SIM_H_
