// Unit tests for the kernel controller: registration, leasing, MMU grants, the
// concurrent-read/exclusive-write policy, revocation, checkpoints, ownership tables, the
// write-map log (slot reuse, overflow, recovery from a crash image), permission
// enforcement, and trust-boundary bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/sim/remount.h"

namespace trio {
namespace {

// Every slot of the write-map log, in slot order (0 = empty).
std::vector<Ino> WmapLogSlots(const NvmPool& pool) {
  const Superblock* sb = SuperblockOf(pool);
  const auto* log = reinterpret_cast<const uint64_t*>(pool.PageAddress(sb->wmap_log_page));
  return std::vector<Ino>(log, log + sb->wmap_log_pages * kPageSize / sizeof(uint64_t));
}

// The inos the write-map log holds, sorted (a repeat would show up twice).
std::vector<Ino> LoggedInos(const NvmPool& pool) {
  std::vector<Ino> logged;
  for (Ino ino : WmapLogSlots(pool)) {
    if (ino != kInvalidIno) {
      logged.push_back(ino);
    }
  }
  std::sort(logged.begin(), logged.end());
  return logged;
}

// Creates `paths` (files, or directories when the name ends in '/') through an ArckFs,
// releases them and the root so the kernel knows every one and nobody maps any, and
// returns their inos in order.
std::vector<Ino> MakeTree(KernelController& kernel, const std::vector<std::string>& paths) {
  ArckFs fs(kernel);
  std::vector<std::string> names;
  for (const std::string& path : paths) {
    const bool is_dir = path.back() == '/';
    names.push_back(is_dir ? path.substr(0, path.size() - 1) : path);
    if (is_dir) {
      TRIO_CHECK_OK(fs.Mkdir(names.back()));
      continue;
    }
    Result<Fd> fd = fs.Open(names.back(), OpenFlags::CreateRw());
    TRIO_CHECK_OK(fd.status());
    const std::string data(100, 'x');
    TRIO_CHECK_OK(fs.Pwrite(*fd, data.data(), data.size(), 0).status());
    TRIO_CHECK_OK(fs.Close(*fd));
  }
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    TRIO_CHECK_OK(fs.ReleaseFile(*it));
  }
  TRIO_CHECK_OK(fs.ReleaseFile("/"));
  std::vector<Ino> inos;
  for (const std::string& name : names) {
    Result<StatInfo> info = fs.Stat(name);
    TRIO_CHECK_OK(info.status());
    inos.push_back(info->ino);
  }
  return inos;
}

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : pool_(2048) {
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(pool_, options));
    kernel_ = std::make_unique<KernelController>(pool_);
    TRIO_CHECK_OK(kernel_->Mount());
  }

  LibFsId Register(uint32_t uid = 0) {
    LibFsOptions options;
    options.uid = uid;
    options.gid = uid;
    return kernel_->RegisterLibFs(options);
  }

  NvmPool pool_;
  std::unique_ptr<KernelController> kernel_;
};

TEST_F(KernelTest, MountRejectsUnformattedPool) {
  NvmPool raw(64);
  KernelController kernel(raw);
  EXPECT_TRUE(kernel.Mount().Is(ErrorCode::kCorrupted));
}

TEST_F(KernelTest, RegisterGrantsSuperblockRead) {
  LibFsId id = Register();
  EXPECT_TRUE(kernel_->mmu().Check(id, 0, /*write=*/false));
  EXPECT_FALSE(kernel_->mmu().Check(id, 0, /*write=*/true));
  kernel_->UnregisterLibFs(id);
  EXPECT_FALSE(kernel_->mmu().Check(id, 0, false));
}

TEST_F(KernelTest, AllocPagesLeasesZeroedWritablePages) {
  LibFsId id = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 4, 0, &pages).ok());
  ASSERT_EQ(pages.size(), 4u);
  for (PageNumber p : pages) {
    EXPECT_TRUE(kernel_->mmu().Check(id, p, true));
    PageState state = kernel_->StateOfPage(p);
    EXPECT_EQ(state.state, ResourceState::kLeased);
    EXPECT_EQ(state.lessee, id);
    for (size_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(pool_.PageAddress(p)[i], 0);
    }
  }
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, FreePagesReturnsLeases) {
  LibFsId id = Register();
  const size_t free_before = kernel_->FreePageCount();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 8, 0, &pages).ok());
  EXPECT_EQ(kernel_->FreePageCount(), free_before - 8);
  ASSERT_TRUE(kernel_->FreePages(id, pages).ok());
  EXPECT_EQ(kernel_->FreePageCount(), free_before);
  EXPECT_FALSE(kernel_->mmu().Check(id, pages[0], false));
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, FreeingForeignPageRejected) {
  LibFsId a = Register();
  LibFsId b = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(a, 1, 0, &pages).ok());
  EXPECT_TRUE(kernel_->FreePages(b, pages).Is(ErrorCode::kPermission));
  kernel_->UnregisterLibFs(a);
  kernel_->UnregisterLibFs(b);
}

TEST_F(KernelTest, InoAllocationUniqueAndRecycled) {
  LibFsId id = Register();
  std::vector<Ino> inos;
  ASSERT_TRUE(kernel_->AllocInos(id, 16, &inos).ok());
  std::set<Ino> unique(inos.begin(), inos.end());
  EXPECT_EQ(unique.size(), 16u);
  for (Ino ino : inos) {
    EXPECT_NE(ino, kRootIno);
    EXPECT_EQ(kernel_->StateOfIno(ino).state, ResourceState::kLeased);
  }
  ASSERT_TRUE(kernel_->FreeIno(id, inos[0]).ok());
  EXPECT_EQ(kernel_->StateOfIno(inos[0]).state, ResourceState::kFree);
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, UnregisterReturnsAllLeases) {
  const size_t free_before = kernel_->FreePageCount();
  LibFsId id = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 16, 0, &pages).ok());
  kernel_->UnregisterLibFs(id);
  EXPECT_EQ(kernel_->FreePageCount(), free_before);
}

TEST_F(KernelTest, MapRootGrantsPagesAndEnforcesPolicy) {
  LibFsId a = Register();
  LibFsId b = Register();

  Result<MapInfo> read_a = kernel_->MapRoot(a, /*write=*/false);
  ASSERT_TRUE(read_a.ok());
  EXPECT_FALSE(read_a->writable);
  // Root's preallocated index page is now readable for A.
  const PageNumber root_index = SuperblockOf(pool_)->root.first_index_page;
  EXPECT_TRUE(kernel_->mmu().Check(a, root_index, false));
  EXPECT_FALSE(kernel_->mmu().Check(a, root_index, true));

  // Concurrent readers are fine.
  ASSERT_TRUE(kernel_->MapRoot(b, false).ok());

  // A writer revokes both readers (no revoke callbacks registered: forced release).
  Result<MapInfo> write_b = kernel_->MapFile(b, kInvalidIno, kRootIno, true);
  ASSERT_TRUE(write_b.ok());
  EXPECT_TRUE(write_b->writable);
  EXPECT_TRUE(kernel_->IsWriteMapped(kRootIno));
  EXPECT_TRUE(kernel_->mmu().Check(b, root_index, true));

  kernel_->UnregisterLibFs(a);
  kernel_->UnregisterLibFs(b);
  EXPECT_FALSE(kernel_->IsWriteMapped(kRootIno));
}

TEST_F(KernelTest, WriteConflictInvokesRevokeCallback) {
  std::atomic<int> revokes{0};
  LibFsOptions options;
  KernelController* kernel = kernel_.get();
  LibFsId holder = 0;
  options.callbacks.revoke = [&](Ino ino) {
    revokes.fetch_add(1);
    TRIO_CHECK_OK(kernel->UnmapFile(holder, ino));
  };
  holder = kernel_->RegisterLibFs(options);
  LibFsId requester = Register();

  ASSERT_TRUE(kernel_->MapRoot(holder, true).ok());
  ASSERT_TRUE(kernel_->MapRoot(requester, true).ok());
  EXPECT_EQ(revokes.load(), 1);
  EXPECT_GE(kernel_->stats().revocations.load(), 1u);

  kernel_->UnregisterLibFs(holder);
  kernel_->UnregisterLibFs(requester);
}

TEST_F(KernelTest, WriteMapLogPersistsGrants) {
  LibFsId id = Register();
  ASSERT_TRUE(kernel_->MapRoot(id, true).ok());
  // Every slot of every log page: any empty slot may be handed out.
  EXPECT_EQ(LoggedInos(pool_), std::vector<Ino>{kRootIno});
  ASSERT_TRUE(kernel_->UnmapFile(id, kRootIno).ok());
  EXPECT_TRUE(LoggedInos(pool_).empty());
  kernel_->UnregisterLibFs(id);
}

// Slots freed by unmaps are reused: across many write-map/unmap cycles in random order,
// each write-mapped file sits in exactly one slot and no other slot is used.
TEST_F(KernelTest, WriteMapLogReusesSlotsAcrossMapUnmapCycles) {
  const std::vector<Ino> inos = MakeTree(*kernel_, {"/f0", "/f1", "/f2", "/f3", "/f4", "/f5"});
  LibFsId id = Register();
  std::vector<Ino> mapped;
  Rng rng(17);
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const Ino ino = inos[rng.Below(inos.size())];
    auto it = std::find(mapped.begin(), mapped.end(), ino);
    if (it != mapped.end()) {
      ASSERT_TRUE(kernel_->UnmapFile(id, ino).ok()) << cycle;
      mapped.erase(it);
    } else {
      ASSERT_TRUE(kernel_->MapFile(id, kRootIno, ino, /*write=*/true).ok()) << cycle;
      mapped.push_back(ino);
    }
    if (cycle % 250 == 0 || cycle == 9999) {
      std::vector<Ino> want = mapped;
      std::sort(want.begin(), want.end());
      ASSERT_EQ(LoggedInos(pool_), want) << "cycle " << cycle;
    }
  }
  EXPECT_EQ(pool_.Load64(&SuperblockOf(pool_)->wmap_log_overflow), 0u);
  kernel_->UnregisterLibFs(id);
  EXPECT_TRUE(LoggedInos(pool_).empty());
}

// A directory commit that grants more children than the log has slots fills every slot
// and falls back to the overflow flag (recovery then verifies the whole tree).
TEST(KernelWmapLogTest, DirectoryCommitPastCapacitySetsOverflow) {
  NvmPool pool(16384);
  FormatOptions options;
  options.max_inodes = 8192;
  TRIO_CHECK_OK(Format(pool, options));
  KernelController kernel(pool);
  TRIO_CHECK_OK(kernel.Mount());
  const size_t slots = WmapLogSlots(pool).size();
  {
    ArckFs fs(kernel);
    ASSERT_TRUE(fs.Mkdir("/d").ok());
    ASSERT_TRUE(fs.Commit("/d").ok());  // The kernel knows /d; its children are local.
    for (size_t i = 0; i < slots + 4; ++i) {
      Result<Fd> fd = fs.Open("/d/c" + std::to_string(i), OpenFlags::CreateRw());
      ASSERT_TRUE(fd.ok()) << i << ": " << fd.status().ToString();
      ASSERT_TRUE(fs.Close(*fd).ok());
    }
    EXPECT_EQ(pool.Load64(&SuperblockOf(pool)->wmap_log_overflow), 0u);
    ASSERT_TRUE(fs.Commit("/d").ok());
    EXPECT_EQ(pool.Load64(&SuperblockOf(pool)->wmap_log_overflow), 1u);
    EXPECT_EQ(LoggedInos(pool).size(), slots);
  }
}

// Recovery from a crash image verifies exactly the inos its write-map log names, then
// retires the log. The DRAM index over the log comes from the media at mount: a write
// map before recovery must not reuse a logged slot, and one after it still works.
TEST(KernelWmapLogTest, RemountRecoversTheLoggedInosAndRebuildsTheIndex) {
  constexpr size_t kPages = 2048;
  NvmPool pool(kPages);
  FormatOptions options;
  options.max_inodes = 1024;
  TRIO_CHECK_OK(Format(pool, options));
  auto kernel = std::make_unique<KernelController>(pool);
  TRIO_CHECK_OK(kernel->Mount());
  const std::vector<Ino> inos = MakeTree(*kernel, {"/a", "/b", "/c", "/d"});
  LibFsId writer = kernel->RegisterLibFs({});
  ASSERT_TRUE(kernel->MapFile(writer, kRootIno, inos[0], /*write=*/true).ok());
  ASSERT_TRUE(kernel->MapFile(writer, kRootIno, inos[2], /*write=*/true).ok());
  std::vector<Ino> logged = {inos[0], inos[2]};
  std::sort(logged.begin(), logged.end());
  ASSERT_EQ(LoggedInos(pool), logged);
  // The crash: the image as it stands, with no unmount.
  const std::vector<char> image(pool.base(), pool.base() + kPages * kPageSize);
  const std::vector<Ino> image_slots = WmapLogSlots(pool);

  {
    // Mounted, not yet recovered: the logged slots keep their inos when others are
    // mapped, and re-mapping a logged ino does not log it twice.
    NvmPool again(kPages);
    again.LoadImage(image.data());
    KernelController remounted(again);
    ASSERT_TRUE(remounted.Mount().ok());
    ASSERT_TRUE(remounted.NeedsRecovery());
    LibFsId id = remounted.RegisterLibFs({});
    ASSERT_TRUE(remounted.MapFile(id, kRootIno, inos[1], /*write=*/true).ok());
    ASSERT_TRUE(remounted.MapFile(id, kRootIno, inos[0], /*write=*/true).ok());
    const std::vector<Ino> slots = WmapLogSlots(again);
    for (size_t i = 0; i < slots.size(); ++i) {
      if (image_slots[i] != kInvalidIno) {
        EXPECT_EQ(slots[i], image_slots[i]) << "slot " << i;
      }
    }
    std::vector<Ino> want = {inos[0], inos[1], inos[2]};
    std::sort(want.begin(), want.end());
    EXPECT_EQ(LoggedInos(again), want);
    ASSERT_TRUE(remounted.UnmapFile(id, inos[0]).ok());
    want.erase(std::find(want.begin(), want.end(), inos[0]));
    EXPECT_EQ(LoggedInos(again), want);
    remounted.UnregisterLibFs(id);
  }

  RemountedFs boot = BootImage(image.data(), kPages, NvmMode::kFast, /*journals=*/{},
                               /*record_recovery=*/false);
  ASSERT_TRUE(boot.status.ok()) << boot.status.ToString();
  ASSERT_TRUE(boot.needed_recovery);
  EXPECT_EQ(boot.kernel->stats().verifications.load(), logged.size());
  EXPECT_TRUE(LoggedInos(*boot.pool).empty());
  LibFsId after = boot.kernel->RegisterLibFs({});
  ASSERT_TRUE(boot.kernel->MapFile(after, kRootIno, inos[1], /*write=*/true).ok());
  EXPECT_EQ(LoggedInos(*boot.pool), std::vector<Ino>{inos[1]});
  ASSERT_TRUE(boot.kernel->UnmapFile(after, inos[1]).ok());
  EXPECT_TRUE(LoggedInos(*boot.pool).empty());
  boot.kernel->UnregisterLibFs(after);
  boot.fs.reset();
  kernel->UnregisterLibFs(writer);
}

// A page reachable through a file mapping AND as a mapped child's dirent page (the
// co-located inode, §4.1) holds one MMU reference per mapping: tearing down either
// mapping leaves the other's permission in place, and map/unmap cycles return the
// tenant's mapped-page count to its baseline.
TEST_F(KernelTest, SharedDirentPageKeepsEachMappingsPermission) {
  const std::vector<Ino> inos = MakeTree(*kernel_, {"/d/", "/d/f"});
  const Ino dir = inos[0];
  const Ino file = inos[1];
  LibFsId id = Register();
  const size_t baseline = kernel_->mmu().MappedPageCount(id);

  Result<MapInfo> dir_map = kernel_->MapFile(id, kRootIno, dir, /*write=*/false);
  ASSERT_TRUE(dir_map.ok()) << dir_map.status().ToString();
  Result<MapInfo> file_map = kernel_->MapFile(id, dir, file, /*write=*/false);
  ASSERT_TRUE(file_map.ok()) << file_map.status().ToString();
  const PageNumber shared = file_map->dirent_page;  // One of /d's data pages.
  ASSERT_NE(shared, 0u);
  EXPECT_EQ(kernel_->StateOfPage(shared).owner, dir);
  ASSERT_TRUE(kernel_->mmu().Check(id, shared, /*write=*/false));

  // Drop the file's mapping: the directory's read reference remains.
  ASSERT_TRUE(kernel_->UnmapFile(id, file).ok());
  EXPECT_TRUE(kernel_->mmu().Check(id, shared, /*write=*/false));

  // A write mapping of the file adds a write reference; its teardown removes only that.
  ASSERT_TRUE(kernel_->MapFile(id, dir, file, /*write=*/true).ok());
  EXPECT_TRUE(kernel_->mmu().Check(id, shared, /*write=*/true));
  ASSERT_TRUE(kernel_->UnmapFile(id, file).ok());
  EXPECT_TRUE(kernel_->mmu().Check(id, shared, /*write=*/false));
  EXPECT_FALSE(kernel_->mmu().Check(id, shared, /*write=*/true));

  // The other order: drop the directory's mapping while the file's is live.
  ASSERT_TRUE(kernel_->MapFile(id, dir, file, /*write=*/false).ok());
  ASSERT_TRUE(kernel_->UnmapFile(id, dir).ok());
  EXPECT_TRUE(kernel_->mmu().Check(id, shared, /*write=*/false));
  ASSERT_TRUE(kernel_->UnmapFile(id, file).ok());
  EXPECT_FALSE(kernel_->mmu().Check(id, shared, /*write=*/false));
  EXPECT_EQ(kernel_->mmu().MappedPageCount(id), baseline);

  for (int cycle = 0; cycle < 200; ++cycle) {
    const bool write = cycle % 3 == 0;
    ASSERT_TRUE(kernel_->MapFile(id, kRootIno, dir, /*write=*/false).ok()) << cycle;
    ASSERT_TRUE(kernel_->MapFile(id, dir, file, write).ok()) << cycle;
    if (cycle % 2 == 0) {
      ASSERT_TRUE(kernel_->UnmapFile(id, file).ok()) << cycle;
      ASSERT_TRUE(kernel_->UnmapFile(id, dir).ok()) << cycle;
    } else {
      ASSERT_TRUE(kernel_->UnmapFile(id, dir).ok()) << cycle;
      ASSERT_TRUE(kernel_->UnmapFile(id, file).ok()) << cycle;
    }
    ASSERT_EQ(kernel_->mmu().MappedPageCount(id), baseline) << "cycle " << cycle;
  }
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, PermissionDeniedForUnrelatedUser) {
  // Root directory is 0755 owned by uid 0: uid 7 may read, not write.
  LibFsId mallory = Register(/*uid=*/7);
  EXPECT_TRUE(kernel_->MapRoot(mallory, false).ok());
  ASSERT_TRUE(kernel_->UnmapFile(mallory, kRootIno).ok());
  EXPECT_TRUE(kernel_->MapRoot(mallory, true).status().Is(ErrorCode::kPermission));
  kernel_->UnregisterLibFs(mallory);
}

TEST_F(KernelTest, ChmodRequiresOwnership) {
  LibFsId mallory = Register(/*uid=*/7);
  EXPECT_TRUE(kernel_->Chmod(mallory, kRootIno, 0777).Is(ErrorCode::kPermission));
  LibFsId root = Register(/*uid=*/0);
  EXPECT_TRUE(kernel_->Chmod(root, kRootIno, 0700).ok());
  EXPECT_EQ(ShadowInodeOf(pool_, kRootIno)->mode & kModePermMask, 0700u);
  // And the cached copy in the superblock dirent matches (I4 consistency).
  EXPECT_EQ(SuperblockOf(pool_)->root.mode & kModePermMask, 0700u);
  kernel_->UnregisterLibFs(mallory);
  kernel_->UnregisterLibFs(root);
}

TEST_F(KernelTest, ChownRequiresRoot) {
  LibFsId mallory = Register(/*uid=*/7);
  EXPECT_TRUE(kernel_->Chown(mallory, kRootIno, 7, 7).Is(ErrorCode::kPermission));
  LibFsId root = Register(/*uid=*/0);
  EXPECT_TRUE(kernel_->Chown(root, kRootIno, 3, 4).ok());
  EXPECT_EQ(ShadowInodeOf(pool_, kRootIno)->uid, 3u);
  EXPECT_EQ(ShadowInodeOf(pool_, kRootIno)->gid, 4u);
  kernel_->UnregisterLibFs(mallory);
  kernel_->UnregisterLibFs(root);
}

TEST_F(KernelTest, MapUnknownInoFails) {
  LibFsId id = Register();
  EXPECT_TRUE(kernel_->MapFile(id, kRootIno, 999, false).status().Is(ErrorCode::kNotFound));
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, NoSpaceWhenPoolExhausted) {
  LibFsId id = Register();
  std::vector<PageNumber> pages;
  Status status = kernel_->AllocPages(id, pool_.num_pages(), 0, &pages);
  EXPECT_TRUE(status.Is(ErrorCode::kNoSpace));
  EXPECT_TRUE(pages.empty());  // All-or-nothing.
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, SyscallsAreCounted) {
  const uint64_t before = kernel_->stats().syscalls.load();
  LibFsId id = Register();
  std::vector<PageNumber> pages;
  ASSERT_TRUE(kernel_->AllocPages(id, 1, 0, &pages).ok());
  ASSERT_TRUE(kernel_->MapRoot(id, false).ok());
  EXPECT_GE(kernel_->stats().syscalls.load(), before + 3);
  kernel_->UnregisterLibFs(id);
}

TEST_F(KernelTest, UnmountBlockedWhileLibFsRegistered) {
  LibFsId id = Register();
  EXPECT_TRUE(kernel_->Unmount().Is(ErrorCode::kBusy));
  kernel_->UnregisterLibFs(id);
  EXPECT_TRUE(kernel_->Unmount().ok());
}

TEST_F(KernelTest, CleanRemountRequiresNoRecovery) {
  TRIO_CHECK_OK(kernel_->Unmount());
  KernelController fresh(pool_);
  ASSERT_TRUE(fresh.Mount().ok());
  EXPECT_FALSE(fresh.NeedsRecovery());
  TRIO_CHECK_OK(fresh.Unmount());
  kernel_ = std::make_unique<KernelController>(pool_);
  TRIO_CHECK_OK(kernel_->Mount());
}

TEST_F(KernelTest, UncleanRemountFlagsRecovery) {
  // No Unmount: simulate the crash by just building a second controller.
  KernelController fresh(pool_);
  ASSERT_TRUE(fresh.Mount().ok());
  EXPECT_TRUE(fresh.NeedsRecovery());
  EXPECT_TRUE(fresh.RunRecovery().ok());
  EXPECT_FALSE(fresh.NeedsRecovery());
}

}  // namespace
}  // namespace trio
