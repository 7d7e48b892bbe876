// End-to-end tests of ArckFS over the full Trio stack: kernel controller + verifier +
// LibFS on the emulated NVM pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/verifier/fsck.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

class ArckFsTest : public ::testing::Test {
 protected:
  ArckFsTest() : pool_(8192) {
    FormatOptions options;
    options.max_inodes = 4096;
    TRIO_CHECK_OK(Format(pool_, options));
    kernel_ = std::make_unique<KernelController>(pool_);
    TRIO_CHECK_OK(kernel_->Mount());
    fs_ = std::make_unique<ArckFs>(*kernel_);
  }

  ~ArckFsTest() override {
    fs_.reset();
    TRIO_CHECK_OK(kernel_->Unmount());
  }

  std::string ReadAll(const std::string& path) {
    Result<Fd> fd = fs_->Open(path, OpenFlags::ReadOnly());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    Result<StatInfo> info = fs_->Stat(path);
    TRIO_CHECK(info.ok());
    std::string out(info->size, '\0');
    Result<size_t> n = fs_->Pread(*fd, out.data(), out.size(), 0);
    TRIO_CHECK(n.ok());
    out.resize(*n);
    TRIO_CHECK_OK(fs_->Close(*fd));
    return out;
  }

  void WriteFile(const std::string& path, const std::string& data) {
    Result<Fd> fd = fs_->Open(path, OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    Result<size_t> n = fs_->Pwrite(*fd, data.data(), data.size(), 0);
    TRIO_CHECK(n.ok()) << n.status().ToString();
    TRIO_CHECK_OK(fs_->Close(*fd));
  }

  NvmPool pool_;
  std::unique_ptr<KernelController> kernel_;
  std::unique_ptr<ArckFs> fs_;
};

TEST_F(ArckFsTest, CreateWriteReadBack) {
  WriteFile("/hello.txt", "hello, trio!");
  EXPECT_EQ(ReadAll("/hello.txt"), "hello, trio!");
}

TEST_F(ArckFsTest, OpenMissingFails) {
  EXPECT_TRUE(fs_->Open("/nope", OpenFlags::ReadOnly()).status().Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, ExclusiveCreateFailsOnExisting) {
  WriteFile("/f", "x");
  OpenFlags flags = OpenFlags::CreateRw();
  flags.exclusive = true;
  EXPECT_TRUE(fs_->Open("/f", flags).status().Is(ErrorCode::kExists));
}

TEST_F(ArckFsTest, StatReportsSizeAndType) {
  WriteFile("/f", std::string(5000, 'a'));
  Result<StatInfo> info = fs_->Stat("/f");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, 5000u);
  EXPECT_TRUE(info->IsRegular());
  EXPECT_FALSE(info->IsDirectory());

  Result<StatInfo> root = fs_->Stat("/");
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(root->IsDirectory());
  EXPECT_EQ(root->ino, kRootIno);
}

TEST_F(ArckFsTest, CursorReadWrite) {
  Result<Fd> fd = fs_->Open("/c", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs_->Write(*fd, "abc", 3), 3u);
  EXPECT_EQ(*fs_->Write(*fd, "def", 3), 3u);
  ASSERT_TRUE(fs_->Seek(*fd, 0).ok());
  char buf[7] = {};
  EXPECT_EQ(*fs_->Read(*fd, buf, 6), 6u);
  EXPECT_STREQ(buf, "abcdef");
  EXPECT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, AppendMode) {
  WriteFile("/log", "one");
  OpenFlags flags = OpenFlags::ReadWrite();
  flags.append = true;
  Result<Fd> fd = fs_->Open("/log", flags);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(*fs_->Write(*fd, "two", 3), 3u);
  EXPECT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/log"), "onetwo");
}

TEST_F(ArckFsTest, LargeFileCrossesIndexPages) {
  // > 511 data pages forces a second index page (2.5 MiB > 511 * 4 KiB).
  const size_t size = 650 * kPageSize;
  std::string data(size, '\0');
  Rng rng(TestSeed());
  for (auto& c : data) {
    c = static_cast<char>('a' + rng.Below(26));
  }
  WriteFile("/big", data);
  EXPECT_EQ(ReadAll("/big"), data);
}

TEST_F(ArckFsTest, SparseWriteReadsZerosInHoles) {
  Result<Fd> fd = fs_->Open("/sparse", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  // Write at 1 MiB, leaving a hole below.
  ASSERT_TRUE(fs_->Pwrite(*fd, "tail", 4, 1 << 20).ok());
  char buf[16];
  Result<size_t> n = fs_->Pread(*fd, buf, 16, 4096);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 16u);
  for (char c : std::string(buf, 16)) {
    EXPECT_EQ(c, 0);
  }
  n = fs_->Pread(*fd, buf, 4, 1 << 20);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, 4), "tail");
  EXPECT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, ReadPastEofReturnsShort) {
  WriteFile("/short", "12345");
  Result<Fd> fd = fs_->Open("/short", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok());
  char buf[100];
  EXPECT_EQ(*fs_->Pread(*fd, buf, 100, 0), 5u);
  EXPECT_EQ(*fs_->Pread(*fd, buf, 100, 5), 0u);
  EXPECT_EQ(*fs_->Pread(*fd, buf, 100, 500), 0u);
  EXPECT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, OverwriteInPlace) {
  WriteFile("/ow", "aaaaaaaaaa");
  Result<Fd> fd = fs_->Open("/ow", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(fs_->Pwrite(*fd, "BB", 2, 4).ok());
  EXPECT_TRUE(fs_->Close(*fd).ok());
  EXPECT_EQ(ReadAll("/ow"), "aaaaBBaaaa");
}

TEST_F(ArckFsTest, TruncateShrinkAndGrow) {
  WriteFile("/t", "0123456789");
  ASSERT_TRUE(fs_->Truncate("/t", 4).ok());
  EXPECT_EQ(ReadAll("/t"), "0123");
  ASSERT_TRUE(fs_->Truncate("/t", 8).ok());
  std::string grown = ReadAll("/t");
  ASSERT_EQ(grown.size(), 8u);
  EXPECT_EQ(grown.substr(0, 4), "0123");
  EXPECT_EQ(grown.substr(4), std::string(4, '\0'));  // Zero-padded, not stale "4567".
}

TEST_F(ArckFsTest, TruncateAcrossPages) {
  WriteFile("/tp", std::string(3 * kPageSize, 'x'));
  ASSERT_TRUE(fs_->Truncate("/tp", kPageSize + 10).ok());
  Result<StatInfo> info = fs_->Stat("/tp");
  EXPECT_EQ(info->size, kPageSize + 10);
  std::string data = ReadAll("/tp");
  EXPECT_EQ(data, std::string(kPageSize + 10, 'x'));
}

TEST_F(ArckFsTest, MkdirAndNest) {
  ASSERT_TRUE(fs_->Mkdir("/a").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(fs_->Mkdir("/a/b/c").ok());
  WriteFile("/a/b/c/deep.txt", "deep");
  EXPECT_EQ(ReadAll("/a/b/c/deep.txt"), "deep");
  Result<StatInfo> info = fs_->Stat("/a/b");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->IsDirectory());
}

TEST_F(ArckFsTest, MkdirExistingFails) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_TRUE(fs_->Mkdir("/d").Is(ErrorCode::kExists));
}

TEST_F(ArckFsTest, ReadDirListsEntries) {
  ASSERT_TRUE(fs_->Mkdir("/dir").ok());
  WriteFile("/dir/f1", "1");
  WriteFile("/dir/f2", "2");
  ASSERT_TRUE(fs_->Mkdir("/dir/sub").ok());
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/dir");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
  int dirs = 0;
  for (const auto& e : *entries) {
    dirs += e.is_dir ? 1 : 0;
  }
  EXPECT_EQ(dirs, 1);
}

TEST_F(ArckFsTest, UnlinkRemovesFile) {
  WriteFile("/u", "x");
  ASSERT_TRUE(fs_->Unlink("/u").ok());
  EXPECT_TRUE(fs_->Stat("/u").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(fs_->Unlink("/u").Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  EXPECT_TRUE(fs_->Unlink("/d").Is(ErrorCode::kIsDir));
}

TEST_F(ArckFsTest, RmdirRequiresEmpty) {
  ASSERT_TRUE(fs_->Mkdir("/d").ok());
  WriteFile("/d/f", "x");
  EXPECT_TRUE(fs_->Rmdir("/d").Is(ErrorCode::kNotEmpty));
  ASSERT_TRUE(fs_->Unlink("/d/f").ok());
  EXPECT_TRUE(fs_->Rmdir("/d").ok());
  EXPECT_TRUE(fs_->Stat("/d").status().Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, RmdirOnFileFails) {
  WriteFile("/f", "x");
  EXPECT_TRUE(fs_->Rmdir("/f").Is(ErrorCode::kNotDir));
}

TEST_F(ArckFsTest, RenameSameDirectory) {
  WriteFile("/old", "payload");
  ASSERT_TRUE(fs_->Rename("/old", "/new").ok());
  EXPECT_TRUE(fs_->Stat("/old").status().Is(ErrorCode::kNotFound));
  EXPECT_EQ(ReadAll("/new"), "payload");
}

TEST_F(ArckFsTest, RenameAcrossDirectories) {
  ASSERT_TRUE(fs_->Mkdir("/src").ok());
  ASSERT_TRUE(fs_->Mkdir("/dst").ok());
  WriteFile("/src/f", "moved");
  ASSERT_TRUE(fs_->Rename("/src/f", "/dst/g").ok());
  EXPECT_TRUE(fs_->Stat("/src/f").status().Is(ErrorCode::kNotFound));
  EXPECT_EQ(ReadAll("/dst/g"), "moved");
}

TEST_F(ArckFsTest, RenameOverwritesExisting) {
  WriteFile("/a", "AAA");
  WriteFile("/b", "BBB");
  ASSERT_TRUE(fs_->Rename("/a", "/b").ok());
  EXPECT_TRUE(fs_->Stat("/a").status().Is(ErrorCode::kNotFound));
  EXPECT_EQ(ReadAll("/b"), "AAA");
}

TEST_F(ArckFsTest, RenameMissingSourceFails) {
  EXPECT_TRUE(fs_->Rename("/ghost", "/x").Is(ErrorCode::kNotFound));
}

TEST_F(ArckFsTest, CrossDirRenameOfNonEmptyDirRejected) {
  ASSERT_TRUE(fs_->Mkdir("/p").ok());
  ASSERT_TRUE(fs_->Mkdir("/q").ok());
  ASSERT_TRUE(fs_->Mkdir("/p/d").ok());
  WriteFile("/p/d/f", "x");
  EXPECT_TRUE(fs_->Rename("/p/d", "/q/d").Is(ErrorCode::kNotSupported));
  // Empty directories may move.
  ASSERT_TRUE(fs_->Unlink("/p/d/f").ok());
  EXPECT_TRUE(fs_->Rename("/p/d", "/q/d").ok());
  EXPECT_TRUE(fs_->Stat("/q/d")->IsDirectory());
}

TEST_F(ArckFsTest, FsyncIsNoopAndOk) {
  Result<Fd> fd = fs_->Open("/f", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  EXPECT_TRUE(fs_->Fsync(*fd).ok());
  EXPECT_TRUE(fs_->Close(*fd).ok());
  EXPECT_TRUE(fs_->Fsync(*fd).Is(ErrorCode::kBadFd));
}

TEST_F(ArckFsTest, ManyFilesInOneDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/many").ok());
  for (int i = 0; i < 300; ++i) {
    WriteFile("/many/file" + std::to_string(i), std::to_string(i));
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(ReadAll("/many/file" + std::to_string(i)), std::to_string(i));
  }
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/many");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 300u);
}

TEST_F(ArckFsTest, CreateDeleteRecyclesSpace) {
  // Churn must not exhaust the pool: deleted locally-created files recycle their leases.
  for (int round = 0; round < 50; ++round) {
    WriteFile("/churn", std::string(64 * kPageSize, 'x'));
    ASSERT_TRUE(fs_->Unlink("/churn").ok());
  }
}

TEST_F(ArckFsTest, InvalidPathsRejected) {
  EXPECT_TRUE(fs_->Stat("relative").status().Is(ErrorCode::kInvalidArgument));
  EXPECT_TRUE(fs_->Mkdir("/" + std::string(kMaxNameLen + 5, 'n')).Is(
      ErrorCode::kNameTooLong));
  EXPECT_TRUE(fs_->Stat("/a/../../x").status().Is(ErrorCode::kInvalidArgument));
}

TEST_F(ArckFsTest, ChmodUpdatesMode) {
  WriteFile("/perm", "x");
  ASSERT_TRUE(fs_->Chmod("/perm", 0600).ok());
  // Cached dirent copy was refreshed by the kernel.
  EXPECT_EQ(fs_->Stat("/perm")->mode & kModePermMask, 0600u);
}

TEST_F(ArckFsTest, PersistsAcrossRemount) {
  ASSERT_TRUE(fs_->Mkdir("/keep").ok());
  WriteFile("/keep/data", "persistent");
  // Clean shutdown.
  fs_.reset();
  TRIO_CHECK_OK(kernel_->Unmount());
  kernel_.reset();

  kernel_ = std::make_unique<KernelController>(pool_);
  ASSERT_TRUE(kernel_->Mount().ok());
  EXPECT_FALSE(kernel_->NeedsRecovery());
  fs_ = std::make_unique<ArckFs>(*kernel_);
  EXPECT_EQ(ReadAll("/keep/data"), "persistent");
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/keep");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(ArckFsTest, ConcurrentDisjointWritersOneFile) {
  WriteFile("/shared", std::string(8 * kPageSize, '-'));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<Fd> fd = fs_->Open("/shared", OpenFlags::ReadWrite());
      ASSERT_TRUE(fd.ok());
      std::string mine(2 * kPageSize, static_cast<char>('A' + t));
      ASSERT_TRUE(fs_->Pwrite(*fd, mine.data(), mine.size(), t * 2 * kPageSize).ok());
      ASSERT_TRUE(fs_->Close(*fd).ok());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::string data = ReadAll("/shared");
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(data[t * 2 * kPageSize], 'A' + t);
    EXPECT_EQ(data[(t + 1) * 2 * kPageSize - 1], 'A' + t);
  }
}

TEST_F(ArckFsTest, ConcurrentCreatesInOneDirectory) {
  ASSERT_TRUE(fs_->Mkdir("/conc").ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        std::string path = "/conc/t" + std::to_string(t) + "_" + std::to_string(i);
        Result<Fd> fd = fs_->Open(path, OpenFlags::CreateRw());
        ASSERT_TRUE(fd.ok()) << fd.status().ToString();
        ASSERT_TRUE(fs_->Close(*fd).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/conc");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(ArckFsTest, ConcurrentSameNameCreateExclusive) {
  ASSERT_TRUE(fs_->Mkdir("/race").ok());
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      OpenFlags flags = OpenFlags::CreateRw();
      flags.exclusive = true;
      Result<Fd> fd = fs_->Open("/race/one", flags);
      if (fd.ok()) {
        winners.fetch_add(1);
        ASSERT_TRUE(fs_->Close(*fd).ok());
      } else {
        EXPECT_TRUE(fd.status().Is(ErrorCode::kExists));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(winners.load(), 1);
}

// Four threads churn the namespace — creates, opens, in-directory and cross-directory
// renames, unlinks — in private directories and one shared directory of one LibFS. The
// node table shards by ino, so this crosses shards on every path walk; the image must
// come out consistent.
TEST_F(ArckFsTest, ConcurrentNamespaceChurnLeavesCleanImage) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  ASSERT_TRUE(fs_->Mkdir("/shared").ok());
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(fs_->Mkdir("/p" + std::to_string(t)).ok());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = "/p" + std::to_string(t) + "/";
      const std::string tag = std::to_string(t) + "_";
      for (int i = 0; i < kRounds; ++i) {
        const std::string n = std::to_string(i);
        for (const std::string& path : {mine + "f" + n, "/shared/t" + tag + n}) {
          Result<Fd> fd = fs_->Open(path, OpenFlags::CreateRw());
          ASSERT_TRUE(fd.ok()) << path << ": " << fd.status().ToString();
          ASSERT_TRUE(fs_->Pwrite(*fd, path.data(), path.size(), 0).ok());
          ASSERT_TRUE(fs_->Close(*fd).ok());
        }
        ASSERT_TRUE(fs_->Rename(mine + "f" + n, mine + "g" + n).ok());
        ASSERT_TRUE(fs_->Rename("/shared/t" + tag + n, "/shared/u" + tag + n).ok());
        ASSERT_TRUE(fs_->Rename("/shared/u" + tag + n, mine + "s" + n).ok());
        Result<Fd> fd = fs_->Open(mine + "g" + n, OpenFlags::ReadOnly());
        ASSERT_TRUE(fd.ok()) << fd.status().ToString();
        ASSERT_TRUE(fs_->Close(*fd).ok());
        if (i % 2 == 1) {
          ASSERT_TRUE(fs_->Unlink(mine + "g" + n).ok());
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  // Adoption: two threads Mkdir while the other two create a file in each new directory
  // as soon as its name resolves. Until Mkdir publishes the directory (empty index
  // first, then the write level) a create there fails with NotFound and is retried.
  constexpr int kDirs = kRounds;
  constexpr int kMakers = 2;
  threads.clear();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
      for (int i = 0; i < kDirs; ++i) {
        const std::string dir = "/d" + std::to_string(i);
        if (t < kMakers) {
          if (i % kMakers == t) {
            ASSERT_TRUE(fs_->Mkdir(dir).ok()) << dir;
          }
          continue;
        }
        const std::string path = dir + "/c" + std::to_string(t);
        Result<Fd> fd = fs_->Open(path, OpenFlags::CreateRw());
        while (!fd.ok()) {
          ASSERT_TRUE(fd.status().Is(ErrorCode::kNotFound)) << path << ": "
                                                            << fd.status().ToString();
          ASSERT_LT(std::chrono::steady_clock::now(), deadline) << path;
          std::this_thread::yield();
          fd = fs_->Open(path, OpenFlags::CreateRw());
        }
        ASSERT_TRUE(fs_->Pwrite(*fd, path.data(), path.size(), 0).ok());
        ASSERT_TRUE(fs_->Close(*fd).ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  for (int t = 0; t < kThreads; ++t) {
    Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/p" + std::to_string(t));
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(kRounds + kRounds / 2));
  }
  Result<std::vector<DirEntryInfo>> shared = fs_->ReadDir("/shared");
  ASSERT_TRUE(shared.ok());
  EXPECT_TRUE(shared->empty());
  for (int i = 0; i < kDirs; ++i) {
    Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/d" + std::to_string(i));
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), static_cast<size_t>(kThreads - kMakers));
  }

  fs_.reset();  // Teardown verifies every open write session.
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const FsckProblem& problem : report->problems) {
    ADD_FAILURE() << problem.invariant << " ino " << problem.ino << ": " << problem.detail;
  }
  EXPECT_EQ(report->regular_files,
            static_cast<uint64_t>(kThreads * (kRounds + kRounds / 2) +
                                  kDirs * (kThreads - kMakers)));
}

// Two threads of one LibFS remap a released file while a raw tenant holds its write
// grant. The tenant's revoke callback waits until both threads have asked the kernel for
// the file, so both are inside EnsureMapped's unlocked kernel crossing at once. Exactly
// one of them may rebuild the node's auxiliary state: a second rebuild would clear the
// index chain under the other thread's write.
TEST_F(ArckFsTest, ConcurrentRemapRebuildsAuxOnce) {
  // Long leases, so the watchdog never abandons the held revoke callback.
  fs_.reset();
  TRIO_CHECK_OK(kernel_->Unmount());
  KernelConfig config;
  config.lease_ms = 60000;
  kernel_ = std::make_unique<KernelController>(pool_, config);
  TRIO_CHECK_OK(kernel_->Mount());
  fs_ = std::make_unique<ArckFs>(*kernel_);

  WriteFile("/f", "seed");
  Result<StatInfo> info = fs_->Stat("/f");
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(fs_->ReleaseFile("/f").ok());

  std::atomic<int> revokes{0};
  std::atomic<bool> latch{false};
  std::atomic<LibFsId> tenant{kNoLibFs};
  LibFsOptions options;
  options.callbacks.revoke = [&](Ino ino) {
    revokes.fetch_add(1);
    while (!latch.load()) {
      std::this_thread::yield();
    }
    (void)kernel_->UnmapFile(tenant.load(), ino);
  };
  tenant = kernel_->RegisterLibFs(options);
  ASSERT_TRUE(kernel_->MapFile(tenant, kRootIno, info->ino, /*write=*/true).ok());

  const uint64_t rebuilds = fs_->libfs_stats().rebuilds.load();
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Result<Fd> fd = fs_->Open("/f", OpenFlags::ReadWrite());
      ASSERT_TRUE(fd.ok()) << fd.status().ToString();
      const std::string data(64, static_cast<char>('a' + t));
      ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), (t + 1) * kPageSize).ok());
      ASSERT_TRUE(fs_->Close(*fd).ok());
    });
  }
  // Each thread's MapFile revokes the tenant: two callbacks in flight means both threads
  // are in the crossing.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (revokes.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(revokes.load(), 2);
  latch = true;
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(fs_->libfs_stats().rebuilds.load() - rebuilds, 1u);
  const std::string data = ReadAll("/f");
  ASSERT_EQ(data.size(), 2 * kPageSize + 64);
  EXPECT_EQ(data.substr(0, 4), "seed");
  EXPECT_EQ(data.substr(kPageSize, 64), std::string(64, 'a'));
  EXPECT_EQ(data.substr(2 * kPageSize, 64), std::string(64, 'b'));
  kernel_->UnregisterLibFs(tenant);
}

// The same race left to the scheduler: each round releases the file, then two threads
// of the LibFS reopen it for writing and link a fresh page each.
TEST_F(ArckFsTest, ConcurrentRemapOfAReleasedFile) {
  constexpr int kRounds = 2000;
  WriteFile("/f", "seed");
  const std::string data(64, 'x');
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(fs_->ReleaseFile("/f").ok());
    const uint64_t rebuilds = fs_->libfs_stats().rebuilds.load();
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        Result<Fd> fd = fs_->Open("/f", OpenFlags::ReadWrite());
        ASSERT_TRUE(fd.ok()) << fd.status().ToString();
        const uint64_t page = 1 + 2 * round + t;
        ASSERT_TRUE(fs_->Pwrite(*fd, data.data(), data.size(), page * kPageSize).ok());
        ASSERT_TRUE(fs_->Close(*fd).ok());
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_EQ(fs_->libfs_stats().rebuilds.load() - rebuilds, 1u) << "round " << round;
  }
  fs_.reset();
  Result<FsckReport> report = RunFsck(pool_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const FsckProblem& problem : report->problems) {
    ADD_FAILURE() << problem.invariant << " ino " << problem.ino << ": " << problem.detail;
  }
}

// Exposes ArckFs's protected node table.
class NodeTableProbe : public ArckFs {
 public:
  using ArckFs::ArckFs;
  using ArckFs::FileNode;
  using ArckFs::FindNode;
  using ArckFs::LockForOp;
  using ArckFs::NodePtr;
  using ArckFs::OnQuarantine;
  using ArckFs::UnlockOp;
};

// An unlink drops the node from the table, but an op still holding its NodePtr keeps it
// alive; it is destroyed when the last holder lets go, never under the table lock.
TEST_F(ArckFsTest, DroppedNodeStaysValidWhileAnOpHoldsIt) {
  NodeTableProbe probe(*kernel_);
  Result<Fd> fd = probe.Open("/victim", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(probe.Pwrite(*fd, "payload", 7, 0).ok());
  ASSERT_TRUE(probe.Close(*fd).ok());
  Result<StatInfo> info = probe.Stat("/victim");
  ASSERT_TRUE(info.ok());

  NodeTableProbe::NodePtr held = probe.FindNode(info->ino);
  ASSERT_NE(held, nullptr);
  std::weak_ptr<NodeTableProbe::FileNode> watch = held;
  ASSERT_TRUE(probe.Unlink("/victim").ok());
  EXPECT_EQ(probe.FindNode(info->ino), nullptr);
  ASSERT_FALSE(watch.expired());
  EXPECT_EQ(held->ino, info->ino);
  held->index_pages.clear();  // Its auxiliary state is still owned memory.
  held.reset();
  EXPECT_TRUE(watch.expired());
}

// A quarantine drops a node's map level without draining its ops. The remap that
// follows must not rebuild auxiliary state under an op admitted before the quarantine.
TEST_F(ArckFsTest, ConcurrentRebuildWaitsForInFlightOp) {
  NodeTableProbe probe(*kernel_);
  Result<Fd> fd = probe.Open("/q", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(probe.Pwrite(*fd, "payload", 7, 0).ok());
  ASSERT_TRUE(probe.Close(*fd).ok());
  ASSERT_TRUE(probe.ReleaseFile("/q").ok());  // Reconciled: the kernel knows the file.
  fd = probe.Open("/q", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  Result<StatInfo> info = probe.Stat("/q");
  ASSERT_TRUE(info.ok());
  NodeTableProbe::NodePtr node = probe.FindNode(info->ino);
  ASSERT_NE(node, nullptr);

  ASSERT_TRUE(probe.LockForOp(node.get(), 2).ok());
  probe.OnQuarantine(info->ino, Corrupted("delivered by the test"));
  const uint64_t rebuilds = probe.libfs_stats().rebuilds.load();
  std::thread remap([&] {
    ASSERT_TRUE(probe.LockForOp(node.get(), 2).ok());
    probe.UnlockOp(node.get());
  });
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < until &&
         probe.libfs_stats().rebuilds.load() == rebuilds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(probe.libfs_stats().rebuilds.load(), rebuilds) << "rebuilt under a live op";
  probe.UnlockOp(node.get());
  remap.join();
  EXPECT_EQ(probe.libfs_stats().rebuilds.load() - rebuilds, 1u);
  char buf[8] = {};
  Result<size_t> n = probe.Pread(*fd, buf, 7, 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "payload");
  ASSERT_TRUE(probe.Close(*fd).ok());
}

// ---- Sharing between two LibFSes (the Trio handoff protocol, §3.2/§4.3) ----

TEST_F(ArckFsTest, TwoLibFsesShareAFile) {
  ArckFs other(*kernel_);
  WriteFile("/shared", "from fs1");
  // Writer must release before the other LibFS maps; the revoke path handles it even if
  // we do not release explicitly.
  Result<Fd> fd = other.Open("/shared", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  char buf[16] = {};
  Result<size_t> n = other.Pread(*fd, buf, sizeof(buf), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, *n), "from fs1");
  ASSERT_TRUE(other.Close(*fd).ok());
  EXPECT_GE(kernel_->stats().verifications.load(), 1u);
}

TEST_F(ArckFsTest, ExclusiveWriteHandoff) {
  ArckFs other(*kernel_);
  WriteFile("/pingpong", "v1");

  Result<Fd> fd2 = other.Open("/pingpong", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(other.Pwrite(*fd2, "v2", 2, 0).ok());
  ASSERT_TRUE(other.Close(*fd2).ok());

  // Back to fs1: the kernel revokes fs2's grant, verifies, and remaps for us.
  EXPECT_EQ(ReadAll("/pingpong"), "v2");
  EXPECT_GE(kernel_->stats().verifications.load(), 2u);
  EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
}

TEST_F(ArckFsTest, WriterSeesOtherWritersCreations) {
  ArckFs other(*kernel_);
  ASSERT_TRUE(fs_->Mkdir("/box").ok());
  WriteFile("/box/from1", "1");

  Result<Fd> fd = other.Open("/box/from2", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(other.Pwrite(*fd, "2", 1, 0).ok());
  ASSERT_TRUE(other.Close(*fd).ok());

  Result<std::vector<DirEntryInfo>> entries = fs_->ReadDir("/box");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_EQ(ReadAll("/box/from2"), "2");
}

TEST_F(ArckFsTest, TrustGroupSharesOneLibFsWithoutVerification) {
  // Two "processes" in one trust group = two threads on one ArckFs (§3.2).
  WriteFile("/tg", "x");
  const uint64_t verifications_before = kernel_->stats().verifications.load();
  std::thread peer([&] {
    Result<Fd> fd = fs_->Open("/tg", OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Pwrite(*fd, "y", 1, 0).ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  });
  peer.join();
  EXPECT_EQ(ReadAll("/tg"), "y");
  // No write-grant handoff happened, so no additional verification ran.
  EXPECT_EQ(kernel_->stats().verifications.load(), verifications_before);
}

TEST_F(ArckFsTest, ReleaseFileForcesVerification) {
  WriteFile("/rel", "data");
  const uint64_t before = kernel_->stats().verifications.load();
  ASSERT_TRUE(fs_->ReleaseFile("/rel").ok());
  // Parent reconcile + the file's own verification.
  EXPECT_GE(kernel_->stats().verifications.load(), before + 1);
  EXPECT_EQ(ReadAll("/rel"), "data");  // Remaps fine afterwards.
}

TEST_F(ArckFsTest, CommitRefreshesCheckpoint) {
  WriteFile("/cm", "v1");
  EXPECT_TRUE(fs_->Commit("/cm").ok());
}

TEST_F(ArckFsTest, RenameOntoNonEmptyDirFails) {
  ASSERT_TRUE(fs_->Mkdir("/empty").ok());
  ASSERT_TRUE(fs_->Mkdir("/full").ok());
  WriteFile("/full/f", "x");
  EXPECT_TRUE(fs_->Rename("/empty", "/full").Is(ErrorCode::kNotEmpty));
  // The failed rename must not have disturbed either directory.
  EXPECT_TRUE(fs_->Stat("/empty")->IsDirectory());
  EXPECT_EQ(ReadAll("/full/f"), "x");
  // Once the destination is empty, the overwriting rename goes through.
  ASSERT_TRUE(fs_->Unlink("/full/f").ok());
  EXPECT_TRUE(fs_->Rename("/empty", "/full").ok());
  EXPECT_TRUE(fs_->Stat("/empty").status().Is(ErrorCode::kNotFound));
  EXPECT_TRUE(fs_->Stat("/full")->IsDirectory());
}

TEST_F(ArckFsTest, ConcurrentAppendsLoseNoRecords) {
  // Regression for the O_APPEND lost-update race: the append offset must be derived from
  // the durable size INSIDE the inode lock, not from a pre-lock read, or two appenders
  // can land on the same offset and one record overwrites the other.
  constexpr int kWriters = 2;
  constexpr int kRecords = 64;
  constexpr size_t kRecordSize = 100;
  {
    Result<Fd> fd = fs_->Open("/applog", OpenFlags::CreateRw());
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(fs_->Close(*fd).ok());
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      OpenFlags flags = OpenFlags::ReadWrite();
      flags.append = true;
      Result<Fd> fd = fs_->Open("/applog", flags);
      ASSERT_TRUE(fd.ok());
      const std::string record(kRecordSize, static_cast<char>('a' + w));
      for (int i = 0; i < kRecords; ++i) {
        Result<size_t> n = fs_->Write(*fd, record.data(), record.size());
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, kRecordSize);
      }
      ASSERT_TRUE(fs_->Close(*fd).ok());
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  const std::string data = ReadAll("/applog");
  ASSERT_EQ(data.size(), static_cast<size_t>(kWriters) * kRecords * kRecordSize);
  // Every record landed whole: each record-sized slot is homogeneous, and each writer's
  // full output is present.
  size_t per_writer[kWriters] = {};
  for (size_t off = 0; off < data.size(); off += kRecordSize) {
    const char c = data[off];
    ASSERT_GE(c, 'a');
    ASSERT_LT(c, 'a' + kWriters);
    for (size_t i = 1; i < kRecordSize; ++i) {
      ASSERT_EQ(data[off + i], c) << "torn record at offset " << off + i;
    }
    ++per_writer[c - 'a'];
  }
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(per_writer[w], static_cast<size_t>(kRecords)) << "writer " << w;
  }
}

// In-place writers and readers index the file through FileNode::index_pages while an
// appender extends the chain (and so reallocates the vector) under the exclusive inode
// lock. Every byte written must read back, during the run and after it.
TEST_F(ArckFsTest, ConcurrentInPlaceIoWhileTheChainGrows) {
  constexpr size_t kSegment = 2 << 20;  // The first range-lock segment.
  constexpr size_t kHalf = kSegment / 2;
  constexpr size_t kChunk = 6000;  // Unaligned: most chunks straddle two pages.
  constexpr size_t kAppend = 64 << 10;
  // From 2 index pages at the start (512 pages) to 5: three chain boundaries crossed.
  constexpr uint64_t kTargetSize = (4 * kIndexEntriesPerPage + 1) * kPageSize;
  WriteFile("/grow", std::string(kSegment, '.'));
  Result<Fd> fd = fs_->Open("/grow", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  std::atomic<bool> grown{false};
  Status appended = OkStatus();
  std::thread appender([&] {
    const std::string block(kAppend, '+');
    for (uint64_t size = kSegment; size < kTargetSize && appended.ok(); size += kAppend) {
      appended = fs_->Pwrite(*fd, block.data(), block.size(), size).status();
    }
    grown = true;
  });
  std::string shadow[2] = {std::string(kHalf, '.'), std::string(kHalf, '.')};
  std::vector<std::thread> in_place;
  for (int t = 0; t < 2; ++t) {
    in_place.emplace_back([&, t] {
      Rng rng(TestSeed() + t);
      std::string chunk(kChunk, '\0');
      std::string back(kChunk, '\0');
      for (int iter = 0; !grown || iter < 64; ++iter) {
        const uint64_t at = rng.Below(kHalf - kChunk + 1);
        std::memset(chunk.data(), 'a' + (t * 13 + iter) % 26, kChunk);
        const uint64_t offset = t * kHalf + at;
        Result<size_t> n = fs_->Pwrite(*fd, chunk.data(), kChunk, offset);
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        shadow[t].replace(at, kChunk, chunk);
        n = fs_->Pread(*fd, back.data(), kChunk, offset);
        ASSERT_TRUE(n.ok()) << n.status().ToString();
        ASSERT_EQ(*n, kChunk);
        ASSERT_EQ(back, chunk) << "thread " << t << " iteration " << iter;
      }
    });
  }
  appender.join();
  for (auto& th : in_place) {
    th.join();
  }
  ASSERT_TRUE(appended.ok()) << appended.ToString();
  ASSERT_TRUE(fs_->Close(*fd).ok());
  const std::string data = ReadAll("/grow");
  ASSERT_GE(data.size(), kTargetSize);
  EXPECT_TRUE(data.compare(0, kHalf, shadow[0]) == 0);
  EXPECT_TRUE(data.compare(kHalf, kHalf, shadow[1]) == 0);
  EXPECT_EQ(data.find_first_not_of('+', kSegment), std::string::npos);
}

// A write that fails with NoSpace part way links none of its pages. A later write to the
// same file page must allocate and link its own page: the one it lands in has to survive
// the handoff, not read back as zeros from an unlinked page.
TEST_F(ArckFsTest, AcknowledgedWriteSurvivesHandoffAfterNoSpace) {
  Result<Fd> fd = fs_->Open("/f", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string block(1 << 20, 'x');
  uint64_t size = 0;
  for (;;) {
    Result<size_t> n = fs_->Pwrite(*fd, block.data(), block.size(), size);
    if (!n.ok()) {
      ASSERT_TRUE(n.status().Is(ErrorCode::kNoSpace)) << n.status().ToString();
      break;
    }
    size += *n;
  }
  const std::string payload = "acknowledged";
  Result<size_t> n = fs_->Pwrite(*fd, payload.data(), payload.size(), size);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_TRUE(fs_->Close(*fd).ok());

  ASSERT_TRUE(fs_->ReleaseFile("/f").ok());
  fd = fs_->Open("/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  std::string back(payload.size(), '\0');
  n = fs_->Pread(*fd, back.data(), back.size(), size);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(back, payload);
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

TEST_F(ArckFsTest, SharedFdCursorAdvancesByCompletedBytes) {
  // Regression for the shared-fd cursor race: concurrent Write()s through one fd must
  // advance the cursor with fetch_add of the completed byte count; a load→store update
  // can lose a concurrent writer's advancement. With the fix the cursor equals the total
  // bytes written no matter the interleaving, so a final probe write lands exactly there.
  constexpr int kThreads = 2;
  constexpr int kWritesPerThread = 500;
  Result<Fd> fd = fs_->Open("/shared", OpenFlags::CreateRw());
  ASSERT_TRUE(fd.ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const char buf[4] = {'w', 'w', 'w', 'w'};
      for (int i = 0; i < kWritesPerThread; ++i) {
        Result<size_t> n = fs_->Write(*fd, buf, sizeof(buf));
        ASSERT_TRUE(n.ok());
        ASSERT_EQ(*n, sizeof(buf));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const size_t total = static_cast<size_t>(kThreads) * kWritesPerThread * 4;
  ASSERT_TRUE(fs_->Write(*fd, "PROBE", 5).ok());
  Result<StatInfo> info = fs_->Stat("/shared");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, total + 5);
  char probe[6] = {};
  ASSERT_TRUE(fs_->Pread(*fd, probe, 5, total).ok());
  EXPECT_STREQ(probe, "PROBE");
  ASSERT_TRUE(fs_->Close(*fd).ok());
}

}  // namespace
}  // namespace trio
