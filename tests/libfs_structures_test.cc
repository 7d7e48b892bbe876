// Unit tests for ArckFS's auxiliary data structures (§4.2): the per-directory resizable
// chained hash table, the fd table, the undo journal, and the lease caches.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>

#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/dir_index.h"
#include "src/libfs/fd_table.h"
#include "src/libfs/journal.h"
#include "src/libfs/lease_cache.h"

namespace trio {
namespace {

TEST(DirIndexTest, InsertLookupErase) {
  DirIndex index;
  EXPECT_TRUE(index.Insert("a", DirSlot{10, 1, 100, false}));
  EXPECT_FALSE(index.Insert("a", DirSlot{11, 2, 101, false}));  // Duplicate.
  DirSlot slot;
  ASSERT_TRUE(index.Lookup("a", &slot));
  EXPECT_EQ(slot.page, 10u);
  EXPECT_EQ(slot.ino, 100u);
  EXPECT_TRUE(index.Erase("a"));
  EXPECT_FALSE(index.Erase("a"));
  EXPECT_FALSE(index.Lookup("a", &slot));
}

TEST(DirIndexTest, ResizePreservesEntries) {
  DirIndex index(4);  // Tiny initial table forces several doublings.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(index.Insert("f" + std::to_string(i), DirSlot{0, 0, Ino(i + 2), false}));
  }
  EXPECT_EQ(index.Size(), 2000u);
  for (int i = 0; i < 2000; ++i) {
    DirSlot slot;
    ASSERT_TRUE(index.Lookup("f" + std::to_string(i), &slot)) << i;
    EXPECT_EQ(slot.ino, Ino(i + 2));
  }
}

TEST(DirIndexTest, ForEachVisitsAll) {
  DirIndex index;
  for (int i = 0; i < 64; ++i) {
    index.Insert("n" + std::to_string(i), DirSlot{0, 0, Ino(i + 2), i % 2 == 0});
  }
  std::set<std::string> seen;
  index.ForEach([&](const std::string& name, const DirSlot&) { seen.insert(name); });
  EXPECT_EQ(seen.size(), 64u);
}

TEST(DirIndexTest, ConcurrentMixedOperations) {
  DirIndex index(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string name = "t" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(index.Insert(name, DirSlot{0, 0, Ino(2 + t * 10000 + i), false}));
        DirSlot slot;
        ASSERT_TRUE(index.Lookup(name, &slot));
        if (i % 3 == 0) {
          ASSERT_TRUE(index.Erase(name));
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  size_t expected = 0;
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 2000; ++i) {
      expected += i % 3 == 0 ? 0 : 1;
    }
  }
  EXPECT_EQ(index.Size(), expected);
}

// Regression: the load-factor check once read the bucket mask without the table lock
// while another inserter's resize freed the table (a TSan-reported race). Four
// inserters start at 2 buckets and force ten doublings between them.
TEST(DirIndexTest, ConcurrentInsertsAcrossDoublings) {
  DirIndex index(2);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string name = "d" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(index.Insert(name, DirSlot{0, 0, Ino(2 + t * kPerThread + i), false}));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(index.Size(), static_cast<size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      DirSlot slot;
      ASSERT_TRUE(index.Lookup("d" + std::to_string(t) + "_" + std::to_string(i), &slot));
      EXPECT_EQ(slot.ino, Ino(2 + t * kPerThread + i));
    }
  }
}

struct DummyFile {
  int value = 0;
};

TEST(FdTableTest, AllocGetRelease) {
  FdTable<DummyFile> table(64);
  auto file = std::make_shared<DummyFile>();
  Result<Fd> fd = table.Alloc(file, /*writable=*/true, /*append=*/false, /*offset=*/7);
  ASSERT_TRUE(fd.ok());
  auto* entry = table.Get(*fd);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->offset.load(), 7u);
  EXPECT_TRUE(entry->writable);
  EXPECT_TRUE(table.Release(*fd).ok());
  EXPECT_EQ(table.Get(*fd), nullptr);
  EXPECT_TRUE(table.Release(*fd).Is(ErrorCode::kBadFd));
}

TEST(FdTableTest, SlotsRecycle) {
  FdTable<DummyFile> table(4);
  auto file = std::make_shared<DummyFile>();
  std::vector<Fd> fds;
  for (int i = 0; i < 4; ++i) {
    Result<Fd> fd = table.Alloc(file, false, false, 0);
    ASSERT_TRUE(fd.ok());
    fds.push_back(*fd);
  }
  EXPECT_FALSE(table.Alloc(file, false, false, 0).ok());  // Full.
  ASSERT_TRUE(table.Release(fds[1]).ok());
  Result<Fd> again = table.Alloc(file, false, false, 0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, fds[1]);
}

TEST(FdTableTest, ReleaseAllClears) {
  FdTable<DummyFile> table(16);
  auto file = std::make_shared<DummyFile>();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.Alloc(file, false, false, 0).ok());
  }
  EXPECT_EQ(table.ReleaseAll(), 5u);
  EXPECT_EQ(file.use_count(), 1);
}

class JournalTest : public ::testing::Test {
 protected:
  JournalTest() : pool_(64, NvmMode::kTracking) {}
  NvmPool pool_;
};

TEST_F(JournalTest, UndoRevertsOnActiveJournal) {
  UndoJournal journal(pool_, 5);
  char* victim = pool_.PageAddress(10);
  pool_.Write(victim, "original", 8);
  pool_.PersistNow(victim, 8);
  {
    std::lock_guard<SpinLock> guard(journal.lock());
    journal.Begin();
    ASSERT_TRUE(journal.LogPreImage(victim, 8).ok());
    journal.Activate();
    pool_.Write(victim, "tampered", 8);
    pool_.PersistNow(victim, 8);
    // Crash before Deactivate: recovery must undo.
  }
  EXPECT_TRUE(UndoJournal::RecoverPage(pool_, 5));
  EXPECT_EQ(std::string(victim, 8), "original");
  EXPECT_FALSE(UndoJournal::RecoverPage(pool_, 5));  // Idempotent.
}

TEST_F(JournalTest, NoUndoAfterDeactivate) {
  UndoJournal journal(pool_, 5);
  char* victim = pool_.PageAddress(10);
  pool_.Write(victim, "original", 8);
  pool_.PersistNow(victim, 8);
  {
    std::lock_guard<SpinLock> guard(journal.lock());
    journal.Begin();
    ASSERT_TRUE(journal.LogPreImage(victim, 8).ok());
    journal.Activate();
    pool_.Write(victim, "newstate", 8);
    pool_.PersistNow(victim, 8);
    journal.Deactivate();
  }
  EXPECT_FALSE(UndoJournal::RecoverPage(pool_, 5));
  EXPECT_EQ(std::string(victim, 8), "newstate");
}

TEST_F(JournalTest, FullJournalRejectsMoreRecords) {
  UndoJournal journal(pool_, 5);
  std::lock_guard<SpinLock> guard(journal.lock());
  journal.Begin();
  Status status = OkStatus();
  int logged = 0;
  while (status.ok()) {
    status = journal.LogPreImage(pool_.PageAddress(10), 512);
    logged += status.ok() ? 1 : 0;
  }
  EXPECT_TRUE(status.Is(ErrorCode::kNoSpace));
  EXPECT_GT(logged, 4);
}

TEST(LeaseCacheTest, BatchesAndRecycles) {
  NvmPool pool(1024);
  FormatOptions options;
  options.max_inodes = 256;
  TRIO_CHECK_OK(Format(pool, options));
  KernelController kernel(pool);
  TRIO_CHECK_OK(kernel.Mount());
  LibFsId id = kernel.RegisterLibFs(LibFsOptions{});

  LeaseCache cache(kernel, id, /*page_batch=*/8, /*ino_batch=*/8);
  std::vector<PageNumber> pages;
  for (int i = 0; i < 8; ++i) {
    Result<PageNumber> page = cache.AllocPage(0);
    ASSERT_TRUE(page.ok());
    pages.push_back(*page);
  }
  // One batched kernel trap on the hot path covered all eight; the background worker
  // may add its own refill crossings, but those are off the allocating thread by
  // construction (so the raw syscall counter is not asserted here).
  EXPECT_EQ(cache.sync_refills(), 1u);

  cache.RecyclePage(pages[0]);
  Result<PageNumber> again = cache.AllocPage(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, pages[0]);

  Result<Ino> ino = cache.AllocIno();
  ASSERT_TRUE(ino.ok());
  EXPECT_EQ(kernel.StateOfIno(*ino).state, ResourceState::kLeased);
  kernel.UnregisterLibFs(id);
}

}  // namespace
}  // namespace trio
