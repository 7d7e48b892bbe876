// Absorb-tier tests: background digestion to the slow backend, the tier-entry encoding
// in index chains, promote-cache reads (and that no promoted copy outlives a handoff or
// a quarantine), promote-for-write conversion, reconcile-time backend-slot accounting,
// crash sweeps over a digestion workload, and the LeaseCache async-refill satellite.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/attacks/attacks.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/libfs/promote_cache.h"
#include "src/sim/backend.h"
#include "src/sim/crash_explorer.h"
#include "src/verifier/verify_error.h"

namespace trio {
namespace {

class TierTest : public ::testing::Test {
 protected:
  static constexpr size_t kPoolPages = 2048;

  void Boot(double high = 0.75, double low = 0.50, bool background = false) {
    pool_ = std::make_unique<NvmPool>(kPoolPages);
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(*pool_, options));
    backend_ = std::make_unique<SlowBackend>();
    KernelConfig config;
    config.tier.backend = backend_.get();
    config.tier.high_watermark = high;
    config.tier.low_watermark = low;
    config.tier.batch_pages = 16;
    config.tier.start_digestion = background;
    config.tier.scan_interval_ms = 1;
    kernel_ = std::make_unique<KernelController>(*pool_, config);
    TRIO_CHECK_OK(kernel_->Mount());
    ArckFsConfig fs_config;
    fs_config.promote_cache_slots = 64;
    fs_ = std::make_unique<ArckFs>(*kernel_, fs_config);
  }

  void TearDown() override {
    fs_.reset();
    kernel_.reset();
  }

  Status WriteFile(const std::string& path, size_t pages, char fill) {
    TRIO_ASSIGN_OR_RETURN(Fd fd, fs_->Open(path, OpenFlags::CreateRw()));
    std::string block(kPageSize, fill);
    for (size_t p = 0; p < pages; ++p) {
      block[0] = static_cast<char>('0' + (p % 10));  // Per-page marker.
      TRIO_RETURN_IF_ERROR(
          fs_->Pwrite(fd, block.data(), block.size(), p * kPageSize).status());
    }
    return fs_->Close(fd);
  }

  // Finds a file's dirent by raw tree scan (fsck-style, no LibFS involved).
  DirentBlock* FindDirent(const std::string& name) {
    DirentBlock* found = nullptr;
    const Superblock* sb = SuperblockOf(*pool_);
    std::function<void(const DirentBlock*)> walk = [&](const DirentBlock* dir) {
      (void)ForEachDirent(*pool_, dir->first_index_page,
                          [&](DirentBlock* d, PageNumber, size_t) -> Status {
                            if (d->Name() == name) {
                              found = d;
                            } else if (d->IsDirectory()) {
                              walk(d);
                            }
                            return OkStatus();
                          });
    };
    walk(&sb->root);
    return found;
  }

  // Count tier-tagged entries in the file's index chain (core-state truth, not radix).
  size_t TierEntryCount(const std::string& name) { return TierSlots(name).size(); }

  // The backend slot numbers the file's index chain references, in file-page order.
  std::vector<uint64_t> TierSlots(const std::string& name) {
    DirentBlock* dirent = FindDirent(name);
    TRIO_CHECK(dirent != nullptr);
    std::vector<uint64_t> slots;
    TRIO_CHECK_OK(ForEachDataEntry(*pool_, dirent->first_index_page,
                                   [&](uint64_t, uint64_t entry) -> Status {
                                     if (IsTierEntry(entry)) {
                                       slots.push_back(TierSlotOfEntry(entry));
                                     }
                                     return OkStatus();
                                   }));
    return slots;
  }

  // Byte 1 of file page `page` as `fs` reads it (byte 0 is WriteFile's page marker).
  static char ReadByte(ArckFs& fs, const std::string& path, uint64_t page) {
    Result<Fd> fd = fs.Open(path, OpenFlags::ReadOnly());
    TRIO_CHECK_OK(fd.status());
    std::vector<char> buffer(kPageSize);
    Result<size_t> n = fs.Pread(*fd, buffer.data(), buffer.size(), page * kPageSize);
    TRIO_CHECK_OK(n.status());
    TRIO_CHECK(*n == kPageSize);
    TRIO_CHECK_OK(fs.Close(*fd));
    return buffer[1];
  }

  std::unique_ptr<NvmPool> pool_;
  std::unique_ptr<SlowBackend> backend_;
  std::unique_ptr<KernelController> kernel_;
  std::unique_ptr<ArckFs> fs_;
};

TEST_F(TierTest, DigestNowMigratesColdFileAndReadsComeBack) {
  Boot();
  ASSERT_TRUE(WriteFile("/cold", 8, 'a').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/cold").ok());

  const size_t digested = kernel_->DigestNow(64);
  EXPECT_GT(digested, 0u);
  EXPECT_EQ(backend_->OwnedSlotCount(), digested);
  EXPECT_GT(kernel_->tier_stats().digest_pages.load(), 0u);

  // Every digested page reads back with the bytes it carried.
  Result<Fd> fd = fs_->Open("/cold", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok());
  std::vector<char> buffer(kPageSize);
  for (size_t p = 0; p < 8; ++p) {
    Result<size_t> n = fs_->Pread(*fd, buffer.data(), buffer.size(), p * kPageSize);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_EQ(*n, kPageSize);
    EXPECT_EQ(buffer[0], static_cast<char>('0' + (p % 10)));
    EXPECT_EQ(buffer[1], 'a');
  }
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(TierTest, PromoteForWriteConvertsEntryAndFreesSlotAtReconcile) {
  Boot();
  ASSERT_TRUE(WriteFile("/conv", 4, 'c').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/conv").ok());
  const size_t digested = kernel_->DigestNow(64);
  ASSERT_EQ(digested, 4u);
  ASSERT_EQ(TierEntryCount("conv"), 4u);

  // Overwriting a digested page converts its tier entry back to an NVM page; the
  // orphaned backend slot is freed when the release reconciles the index chain.
  Result<Fd> fd = fs_->Open("/conv", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::string block(kPageSize, 'N');
  ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), kPageSize).ok());
  ASSERT_TRUE(fs_->Close(*fd).ok());
  ASSERT_TRUE(fs_->ReleaseFile("/conv").ok());

  EXPECT_EQ(TierEntryCount("conv"), 3u);
  EXPECT_EQ(backend_->OwnedSlotCount(), 3u);
  EXPECT_GE(kernel_->tier_stats().backend_slots_freed.load(), 1u);

  fd = fs_->Open("/conv", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok());
  std::vector<char> buffer(kPageSize);
  ASSERT_TRUE(fs_->Pread(*fd, buffer.data(), buffer.size(), kPageSize).ok());
  EXPECT_EQ(buffer[0], 'N');
  ASSERT_TRUE(fs_->Pread(*fd, buffer.data(), buffer.size(), 2 * kPageSize).ok());
  EXPECT_EQ(buffer[1], 'c');  // Untouched digested neighbours still read back.
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// Reconcile keeps the kernel's sorted slot sets in step with the backend: across write,
// release and digest cycles that convert, drop and re-digest tier entries, the backend
// owns exactly the slots the files' index chains reference.
TEST_F(TierTest, WriteReleaseDigestCyclesKeepBackendOwnershipExact) {
  Boot();
  const std::vector<std::string> names = {"c0", "c1", "c2"};
  for (size_t i = 0; i < names.size(); ++i) {
    ASSERT_TRUE(WriteFile("/" + names[i], 6, static_cast<char>('a' + i)).ok());
    ASSERT_TRUE(fs_->ReleaseFile("/" + names[i]).ok());
  }
  auto tier_entries = [&] {
    size_t total = 0;
    for (const std::string& name : names) {
      total += TierEntryCount(name);
    }
    return total;
  };
  std::string block(kPageSize, 'w');
  for (size_t cycle = 0; cycle < 9; ++cycle) {
    kernel_->DigestNow(64);
    ASSERT_EQ(backend_->OwnedSlotCount(), tier_entries()) << "after digest, cycle " << cycle;
    ASSERT_GT(tier_entries(), 0u) << cycle;

    // Overwrite one page (promote-for-write), and every other cycle shrink the file.
    const std::string path = "/" + names[cycle % names.size()];
    Result<Fd> fd = fs_->Open(path, OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), (cycle % 6) * kPageSize).ok());
    if (cycle % 2 == 1) {
      ASSERT_TRUE(fs_->Ftruncate(*fd, 3 * kPageSize).ok());
    }
    ASSERT_TRUE(fs_->Close(*fd).ok());
    ASSERT_TRUE(fs_->ReleaseFile(path).ok());
    ASSERT_EQ(backend_->OwnedSlotCount(), tier_entries()) << "after release, cycle " << cycle;
  }
}

TEST_F(TierTest, DatasetLargerThanNvmFillsViaWatermarkStalls) {
  Boot(/*high=*/0.55, /*low=*/0.35, /*background=*/true);
  // ~4x the 2048-page pool: 128 files x 64 data pages (+1 index page each).
  for (int f = 0; f < 128; ++f) {
    const std::string path = "/big" + std::to_string(f);
    ASSERT_TRUE(WriteFile(path, 64, 'b').ok()) << "file " << f;
    ASSERT_TRUE(fs_->ReleaseFile(path).ok()) << "file " << f;
  }
  EXPECT_GT(kernel_->tier_stats().digest_pages.load(), 0u);
  EXPECT_LT(kernel_->NvmOccupancy(), 1.0);
}

// ---- Crash sweep over a digestion workload ----
//
// Crash at EVERY fence while a file is digested to the backend and then promoted back
// for write. After each materialized crash the recovered image must be fsck-clean
// including G7 against the backend's rebuilt owner table — no page owned by both tiers,
// no slot owned by two files, no slot lost in flight — and the overwritten page must
// read back all-old or all-new, never a mix.
TEST_F(TierTest, CrashSweepDigestionAndPromoteBackStaysConsistent) {
  SlowBackend backend;  // Outlives every boot; each Mount re-adopts against it.
  CrashExplorerOptions options;
  options.pool_pages = 1024;
  options.max_inodes = 256;
  options.kernel_config.tier.backend = &backend;
  options.kernel_config.tier.batch_pages = 8;
  // start_digestion stays false: DigestNow from the workload thread keeps the recorded
  // fence sequence deterministic, so the sweep is exhaustive and reproducible.

  size_t digested = 0;
  CrashExplorer explorer(options);
  Result<CrashExplorerReport> report = explorer.Explore(
      [&](ArckFs& fs) {
        Result<Fd> fd = fs.Open("/cold", OpenFlags::CreateRw());
        TRIO_CHECK(fd.ok()) << fd.status().ToString();
        const std::string old_page(kPageSize, 'a');
        for (size_t p = 0; p < 6; ++p) {
          TRIO_CHECK(
              fs.Pwrite(*fd, old_page.data(), old_page.size(), p * kPageSize).ok());
        }
        TRIO_CHECK_OK(fs.Close(*fd));
        TRIO_CHECK_OK(fs.ReleaseFile("/cold"));
        digested = fs.kernel().DigestNow(64);  // Migration fences recorded here.

        // Promote-back for write: overwriting a digested page converts its tier entry
        // back to a fresh NVM page (conversion + reconcile fences recorded too).
        fd = fs.Open("/cold", OpenFlags::ReadWrite());
        TRIO_CHECK(fd.ok()) << fd.status().ToString();
        const std::string new_page(kPageSize, 'B');
        TRIO_CHECK(
            fs.Pwrite(*fd, new_page.data(), new_page.size(), 2 * kPageSize).ok());
        TRIO_CHECK_OK(fs.Close(*fd));
        TRIO_CHECK_OK(fs.ReleaseFile("/cold"));
      },
      [](ArckFs& fs) -> Status {
        Result<Fd> fd = fs.Open("/cold", OpenFlags::ReadOnly());
        if (!fd.ok()) {
          // Crashed before the create became durable: an empty tree is a legal outcome.
          return fd.status().Is(ErrorCode::kNotFound) ? OkStatus() : fd.status();
        }
        Result<StatInfo> info = fs.Stat("/cold");
        TRIO_RETURN_IF_ERROR(info.status());
        Status verdict = OkStatus();
        if (info->size >= 3 * kPageSize) {
          std::vector<char> page(kPageSize);
          Result<size_t> n = fs.Pread(*fd, page.data(), page.size(), 2 * kPageSize);
          if (!n.ok()) {
            verdict = n.status();
          } else if (*n != kPageSize) {
            verdict = Internal("short read of the overwritten page");
          } else if (page[0] != 'a' && page[0] != 'B') {
            verdict = Corrupted("page 2 is neither old nor new content");
          } else {
            for (char c : page) {
              if (c != page[0]) {
                verdict = Corrupted("page 2 mixes old and new content");
                break;
              }
            }
          }
        }
        Status closed = fs.Close(*fd);
        return verdict.ok() ? closed : verdict;
      });
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(digested, 0u);
  EXPECT_TRUE(report->Clean())
      << report->failures.size() << " failing crash points; first at fence "
      << report->failures.front().fence << ": " << report->failures.front().what;
  EXPECT_EQ(report->explored, report->fences + 1);  // Exhaustive: every fence swept.
  EXPECT_GT(explorer.stats().fsck_runs.load(), 0u);
}

// ---- Forged digested-page mapping, backend configured ----
//
// A malicious LibFS swaps one of its own tier entries for a slot the backend records as
// owned by ANOTHER file. CheckTierSlots must condemn the release (a LibFS that could mint
// slots could read other tenants' digested data at reconcile), the forger is
// quarantined, and the victim's digested data stays readable. The no-backend variant of
// this forgery lives in the scripted-corruption corpus ("index_forged_tier_mapping").
TEST_F(TierTest, ForgedTierMappingStealingAnotherFilesSlotIsQuarantined) {
  Boot();
  ASSERT_TRUE(WriteFile("/mine", 3, 'm').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/mine").ok());
  ASSERT_TRUE(WriteFile("/theirs", 3, 't').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/theirs").ok());
  ASSERT_EQ(kernel_->DigestNow(64), 6u);

  const std::vector<uint64_t> their_slots = TierSlots("theirs");
  ASSERT_EQ(their_slots.size(), 3u);

  MaliciousLibFs attacker(*kernel_);
  Result<DirentBlock*> dirent = attacker.MapTarget("/mine");
  ASSERT_TRUE(dirent.ok()) << dirent.status().ToString();
  auto* index = reinterpret_cast<IndexPage*>(
      pool_->PageAddress((*dirent)->first_index_page));
  ASSERT_TRUE(IsTierEntry(index->entries[0]));
  ASSERT_TRUE(attacker.RawStore64(&index->entries[0], MakeTierEntry(their_slots[0])));

  Status released = attacker.ReleaseTarget("/mine");
  ASSERT_FALSE(released.ok());
  EXPECT_TRUE(VerifyError::IsStructured(released)) << released.ToString();
  EXPECT_EQ(VerifyError::FromStatus(released).cls, VerifyErrorClass::kForeignPage)
      << released.ToString();
  EXPECT_GE(kernel_->QuarantineCount(), 1u);

  // The victim's digested file is untouched and still promotes cleanly.
  Result<Fd> fd = fs_->Open("/theirs", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::vector<char> buffer(kPageSize);
  ASSERT_TRUE(fs_->Pread(*fd, buffer.data(), buffer.size(), 0).ok());
  EXPECT_EQ(buffer[1], 't');
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

// ---- Promote cache ----

TEST(PromoteCacheTest, EraseFileDropsExactlyThatFilesCopies) {
  NvmPool pool(64);
  PromoteCache cache(pool, 128);
  constexpr Ino kA = 11;
  constexpr Ino kB = 12;
  std::vector<PageNumber> a_pages;
  for (uint64_t i = 0; i < 4; ++i) {
    const PageNumber a_page = 8 + i;
    const PageNumber b_page = 16 + i;
    pool.Set(pool.PageAddress(a_page), 'a' + static_cast<int>(i), kPageSize);
    pool.Set(pool.PageAddress(b_page), 'b' + static_cast<int>(i), kPageSize);
    ASSERT_EQ(cache.Insert(kA, i, a_page), 0u);
    ASSERT_EQ(cache.Insert(kB, i, b_page), 0u);
    a_pages.push_back(a_page);
  }
  std::vector<PageNumber> recycled;
  cache.EraseFile(kA, &recycled);
  std::sort(recycled.begin(), recycled.end());
  EXPECT_EQ(recycled, a_pages);
  for (uint64_t i = 0; i < 4; ++i) {
    char byte = 0;
    EXPECT_TRUE(cache.ReadHit(kB, i, 100, &byte, 1)) << i;
    EXPECT_EQ(byte, 'b' + static_cast<int>(i));
    EXPECT_FALSE(cache.ReadHit(kA, i, 100, &byte, 1)) << i;
  }
  recycled.clear();
  cache.EraseFile(kA, &recycled);
  EXPECT_TRUE(recycled.empty());
}

// LibFS A caches a promoted copy and hands the file back; LibFS B overwrites that page
// and digestion moves the new bytes to a new backend slot. A's next read must not be
// served from the copy of the old slot.
TEST_F(TierTest, PromotedCopyDoesNotOutliveAnotherLibFsOverwrite) {
  Boot();
  ASSERT_TRUE(WriteFile("/shared", 4, 'a').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/shared").ok());
  ASSERT_EQ(kernel_->DigestNow(64), 4u);
  const std::vector<uint64_t> before = TierSlots("shared");

  EXPECT_EQ(ReadByte(*fs_, "/shared", 2), 'a');  // Promoted into A's cache.
  ASSERT_TRUE(fs_->ReleaseFile("/shared").ok());

  ArckFsConfig config;
  config.promote_cache_slots = 64;
  ArckFs other(*kernel_, config);
  Result<Fd> fd = other.Open("/shared", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string block(kPageSize, 'b');
  ASSERT_TRUE(other.Pwrite(*fd, block.data(), block.size(), 2 * kPageSize).ok());
  ASSERT_TRUE(other.Close(*fd).ok());
  ASSERT_TRUE(other.ReleaseFile("/shared").ok());
  ASSERT_GT(kernel_->DigestNow(64), 0u);
  const std::vector<uint64_t> after = TierSlots("shared");
  ASSERT_EQ(after.size(), 4u);
  ASSERT_NE(after[2], before[2]);

  EXPECT_EQ(ReadByte(*fs_, "/shared", 2), 'b');
}

// A copy promoted while the file is write-mapped is gone once a failed release has
// quarantined the file and rolled it back: the next read promotes afresh.
TEST_F(TierTest, PromotedCopyDoesNotSurviveQuarantine) {
  Boot();
  ASSERT_TRUE(WriteFile("/q", 4, 'q').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/q").ok());
  ASSERT_TRUE(WriteFile("/other", 1, 'o').ok());
  ASSERT_TRUE(fs_->ReleaseFile("/other").ok());
  ASSERT_EQ(kernel_->DigestNow(64), 5u);
  const std::vector<uint64_t> other_slots = TierSlots("other");
  ASSERT_EQ(other_slots.size(), 1u);

  Result<Fd> fd = fs_->Open("/q", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string block(kPageSize, 'w');
  ASSERT_TRUE(fs_->Pwrite(*fd, block.data(), block.size(), 0).ok());  // Write-mapped.
  std::vector<char> buffer(kPageSize);
  ASSERT_TRUE(fs_->Pread(*fd, buffer.data(), buffer.size(), kPageSize).ok());
  ASSERT_EQ(buffer[1], 'q');  // Page 1 is now a promoted copy in the cache.
  ASSERT_TRUE(fs_->Close(*fd).ok());

  // Page 3's entry claims the other file's slot: the release fails verification.
  DirentBlock* dirent = FindDirent("q");
  ASSERT_NE(dirent, nullptr);
  auto* index = reinterpret_cast<IndexPage*>(pool_->PageAddress(dirent->first_index_page));
  ASSERT_TRUE(IsTierEntry(index->entries[3]));
  pool_->Store64(&index->entries[3], MakeTierEntry(other_slots[0]));
  ASSERT_TRUE(fs_->ReleaseFile("/q").ok());
  ASSERT_GE(kernel_->QuarantineCount(), 1u);
  ASSERT_FALSE(fs_->QuarantineNotices().empty());

  const uint64_t hits = fs_->promote_cache().stats().promote_hits.load();
  EXPECT_EQ(ReadByte(*fs_, "/q", 1), 'q');
  EXPECT_EQ(ReadByte(*fs_, "/q", 0), 'q');  // Rolled back: the write is gone.
  EXPECT_EQ(fs_->promote_cache().stats().promote_hits.load(), hits);
}

// ---- LeaseCache satellites ----

// Steady allocation must be fed by the background refill worker; the hot path traps
// into the kernel only for the very first (dry-cache) batch.
TEST_F(TierTest, LeaseCacheRefillsMoveOffTheHotPath) {
  Boot();
  LeaseCache& leases = fs_->leases();
  ASSERT_EQ(leases.async_refills(), 0u);

  // Default batch is 64: the first alloc pays one sync trap, and dropping under a
  // quarter of the batch (16 left, i.e. the 49th alloc) queues an async refill.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(leases.AllocPage(0).ok());
  }
  for (int tries = 0; tries < 2000 && leases.async_refills() == 0; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(leases.async_refills(), 1u);

  // With the worker keeping the shard topped up, further allocation never traps.
  const uint64_t sync_before = leases.sync_refills();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(leases.AllocPage(0).ok());
  }
  EXPECT_EQ(leases.sync_refills(), sync_before);
  EXPECT_EQ(sync_before, 1u);  // Only the startup dry-cache trap was synchronous.
}

// A recycled (dirty) page handed back by the LeaseCache must be re-zeroed when it is
// reused by a partial write: the untouched head of the page must read as zeros, never
// as the previous tenant's bytes.
TEST_F(TierTest, RecycledPageIsReZeroedOnThePartialWritePath) {
  Boot();
  // Force the one-time allocations (journal shards, the root's dirent page) through the
  // cache first, so the scribbled pages below are reused by /partial's own chain rather
  // than swallowed by journal initialization.
  ASSERT_TRUE(WriteFile("/warm", 1, 'w').ok());

  LeaseCache& leases = fs_->leases();
  // Scribble two leased pages and recycle both: the first Pwrite below allocates the
  // file's index page AND its data page, so whichever order they pop in, the data page
  // is provably dirty media.
  Result<PageNumber> p1 = leases.AllocPage(0);
  Result<PageNumber> p2 = leases.AllocPage(0);
  ASSERT_TRUE(p1.ok() && p2.ok());
  std::string garbage(kPageSize, 'X');
  pool_->Write(pool_->PageAddress(*p1), garbage.data(), garbage.size());
  pool_->Write(pool_->PageAddress(*p2), garbage.data(), garbage.size());
  leases.RecyclePage(*p1);
  leases.RecyclePage(*p2);

  // RecyclePage files by the page's REAL node into this thread's shard, so the next
  // allocation returns the most recently recycled page (LIFO bookkeeping proof).
  Result<PageNumber> again = leases.AllocPage(0);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(*again, *p2);
  leases.RecyclePage(*again);

  Result<Fd> fd = fs_->Open("/partial", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  const std::string tail(4, 'T');
  ASSERT_TRUE(fs_->Pwrite(*fd, tail.data(), tail.size(), kPageSize - 4).ok());

  // The recycled pages really were reused for this file's chain.
  DirentBlock* dirent = FindDirent("partial");
  ASSERT_NE(dirent, nullptr);
  PageNumber data_page = 0;
  TRIO_CHECK_OK(ForEachDataEntry(*pool_, dirent->first_index_page,
                                 [&](uint64_t, uint64_t entry) -> Status {
                                   data_page = static_cast<PageNumber>(entry);
                                   return OkStatus();
                                 }));
  EXPECT_TRUE(data_page == *p1 || data_page == *p2) << "data page " << data_page;

  std::vector<char> buffer(kPageSize);
  Result<size_t> n = fs_->Pread(*fd, buffer.data(), buffer.size(), 0);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, kPageSize);
  for (size_t i = 0; i < kPageSize - 4; ++i) {
    ASSERT_EQ(buffer[i], 0) << "stale byte leaked at offset " << i;
  }
  EXPECT_EQ(buffer[kPageSize - 1], 'T');
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

}  // namespace
}  // namespace trio
