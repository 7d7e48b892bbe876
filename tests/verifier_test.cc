// Direct unit tests of the integrity verifier against hand-built core state and mock
// ownership tables — exercising each I1-I4 clause in isolation, plus the
// new-child/moved-in/removed-child classification logic the kernel relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/core/core_state.h"
#include "src/verifier/verifier.h"

namespace trio {
namespace {

class FakeOwnership : public OwnershipView {
 public:
  PageState StateOfPage(PageNumber page) const override {
    auto it = pages_.find(page);
    return it == pages_.end() ? PageState{} : it->second;
  }
  InoState StateOfIno(Ino ino) const override {
    auto it = inos_.find(ino);
    return it == inos_.end() ? InoState{} : it->second;
  }

  void OwnPage(PageNumber page, Ino owner) {
    pages_[page] = PageState{ResourceState::kOwned, kNoLibFs, owner};
  }
  void LeasePage(PageNumber page, LibFsId libfs) {
    pages_[page] = PageState{ResourceState::kLeased, libfs, kInvalidIno};
  }
  void OwnIno(Ino ino, Ino parent) {
    inos_[ino] = InoState{ResourceState::kOwned, kNoLibFs, parent};
  }
  void LeaseIno(Ino ino, LibFsId libfs) {
    inos_[ino] = InoState{ResourceState::kLeased, libfs, kInvalidIno};
  }

 private:
  std::unordered_map<PageNumber, PageState> pages_;
  std::unordered_map<Ino, InoState> inos_;
};

class FakeEnv : public VerifyEnv {
 public:
  Status CheckRemovedChildDir(Ino child, LibFsId writer) const override {
    if (corrupt_removed_.count(child) != 0) {
      return Corrupted("I3: removed child directory violation");
    }
    return OkStatus();
  }
  bool IsMovePermitted(Ino child, Ino new_parent, LibFsId writer) const override {
    return moves_permitted_;
  }
  Status CheckTierSlots(Ino ino, const std::vector<uint64_t>& slots) const override {
    ++tier_checks_;
    for (uint64_t slot : slots) {
      auto it = slot_owners_.find(slot);
      if (it == slot_owners_.end() || it->second != ino) {
        return VerifyFail(VerifyErrorClass::kForeignPage, "I2", "slot not owned by file");
      }
    }
    return OkStatus();
  }

  std::unordered_set<Ino> corrupt_removed_;
  bool moves_permitted_ = false;
  std::unordered_map<uint64_t, Ino> slot_owners_;
  mutable int tier_checks_ = 0;
};

// Advances by one tick on every read, and counts the reads.
class TickingClock : public Clock {
 public:
  uint64_t NowNs() override { return ++reads_; }
  uint64_t reads() const { return reads_; }

 private:
  uint64_t reads_ = 0;
};

constexpr LibFsId kWriter = 7;

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() : pool_(1024) {
    FormatOptions options;
    options.max_inodes = 256;
    TRIO_CHECK_OK(Format(pool_, options));
    verifier_ = std::make_unique<IntegrityVerifier>(pool_, ownership_, env_);
    next_page_ = FileRegionStart(pool_) + 16;
  }

  // Allocates a fresh, zeroed page (marked leased to the writer by default).
  PageNumber NewPage(bool leased = true) {
    PageNumber page = next_page_++;
    pool_.Set(pool_.PageAddress(page), 0, kPageSize);
    if (leased) {
      ownership_.LeasePage(page, kWriter);
    }
    return page;
  }

  // Builds a regular file: dirent in a dir data page + 1 index page + n data pages.
  DirentBlock* BuildRegularFile(Ino ino, uint64_t size, int data_pages) {
    dirent_page_ = NewPage();
    auto* dir_page = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dirent_page_));
    DirentBlock* d = &dir_page->slots[0];
    std::memset(d, 0, sizeof(*d));
    d->ino = ino;
    d->mode = kModeRegular | 0644;
    d->uid = 1;
    d->gid = 1;
    d->nlink = 1;
    d->size = size;
    d->SetName("file");
    const PageNumber index = NewPage();
    d->first_index_page = index;
    auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(index));
    for (int i = 0; i < data_pages; ++i) {
      ip->entries[i] = NewPage();
    }
    return d;
  }

  // Appends a second index page to the file's chain and returns it.
  IndexPage* AddIndexPage(DirentBlock* d) {
    const PageNumber page = NewPage();
    reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page))->next = page;
    return reinterpret_cast<IndexPage*>(pool_.PageAddress(page));
  }

  IndexPage* FirstIndexPage(const DirentBlock* d) {
    return reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  }

  static VerifyErrorClass ClassOf(const Result<VerifyReport>& result) {
    return VerifyError::FromStatus(result.status()).cls;
  }

  VerifyRequest RequestFor(Ino ino, const DirentBlock* dirent) {
    VerifyRequest request;
    request.ino = ino;
    request.dirent = dirent;
    request.writer = kWriter;
    request.writer_uid = 1;
    request.writer_gid = 1;
    return request;
  }

  NvmPool pool_;
  FakeOwnership ownership_;
  FakeEnv env_;
  std::unique_ptr<IntegrityVerifier> verifier_;
  PageNumber next_page_;
  PageNumber dirent_page_ = 0;
};

TEST_F(VerifierTest, FreshFileWithLeasedResourcesPasses) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 3000, 1);
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages.size(), 2u);  // Index + one data page.
}

TEST_F(VerifierTest, InoNeitherOwnedNorLeasedFails) {
  DirentBlock* d = BuildRegularFile(42, 100, 1);  // Ino 42 unknown to ownership.
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, InoLeasedToAnotherLibFsFails) {
  ownership_.LeaseIno(42, kWriter + 1);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, PageOwnedByOtherFileFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  // Point a second entry at a page owned by someone else's file.
  auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  const PageNumber stolen = NewPage(/*leased=*/false);
  ownership_.OwnPage(stolen, /*owner=*/99);
  ip->entries[1] = stolen;
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  EXPECT_TRUE(report.status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, DoubleReferenceWithinFileFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  ip->entries[1] = ip->entries[0];
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, SizeBeyondChainCapacityFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, /*size=*/kIndexEntriesPerPage * kPageSize + 1, 1);
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, SizeWithinCapacityWithHolesPasses) {
  ownership_.LeaseIno(42, kWriter);
  // Sparse: size covers the whole (single-index-page) chain, only one data page present.
  DirentBlock* d = BuildRegularFile(42, kIndexEntriesPerPage * kPageSize, 1);
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).ok());
}

TEST_F(VerifierTest, NonzeroReservedFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  d->reserved[3] = 1;
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, NonzeroNameTailFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  d->name[d->name_len + 2] = 'x';  // Hidden payload after the name.
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, WrongCreatorUidFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  d->uid = 55;  // Fresh file must be owned by the writer (uid 1).
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, ExistingFilePermissionCacheMismatchFails) {
  // Existing file: shadow inode is ground truth (I4).
  ownership_.OwnIno(42, kRootIno);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  ownership_.OwnPage(d->first_index_page, 42);
  auto* ip = reinterpret_cast<IndexPage*>(pool_.PageAddress(d->first_index_page));
  ownership_.OwnPage(ip->entries[0], 42);
  ShadowInode* shadow = ShadowInodeOf(pool_, 42);
  ShadowInode truth{kModeRegular | 0644, 1, 1, 1};
  pool_.Write(shadow, &truth, sizeof(truth));
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).ok());

  d->mode = kModeRegular | 0777;  // Attacker edits the cached copy.
  EXPECT_TRUE(verifier_->Verify(RequestFor(42, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierTest, DirentInoMismatchFails) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  VerifyRequest request = RequestFor(/*ino=*/43, d);  // Identity mismatch.
  ownership_.LeaseIno(43, kWriter);
  EXPECT_TRUE(verifier_->Verify(request).status().Is(ErrorCode::kCorrupted));
}

// ---- Chain-walk contract: one pass, sorted report lists ----

TEST_F(VerifierTest, IndexPageAlsoListedAsDataEntryIsDoubleReference) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 100, 1);
  FirstIndexPage(d)->entries[1] = d->first_index_page;
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(ClassOf(report), VerifyErrorClass::kDoubleReference)
      << report.status().ToString();
}

TEST_F(VerifierTest, DuplicatedTierSlotIsDoubleReference) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 4 * kPageSize, 1);
  env_.slot_owners_[5] = 42;
  FirstIndexPage(d)->entries[1] = MakeTierEntry(5);
  FirstIndexPage(d)->entries[3] = MakeTierEntry(5);
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(ClassOf(report), VerifyErrorClass::kDoubleReference)
      << report.status().ToString();
}

TEST_F(VerifierTest, OneForeignSlotAmongManyValidTierEntriesIsForeignPage) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 200 * kPageSize, 1);
  IndexPage* index = FirstIndexPage(d);
  for (uint64_t i = 1; i <= 150; ++i) {
    env_.slot_owners_[1000 + i] = 42;
    index->entries[i] = MakeTierEntry(1000 + i);
  }
  ASSERT_TRUE(verifier_->Verify(RequestFor(42, d)).ok());
  EXPECT_EQ(env_.tier_checks_, 1);  // Every slot in one call, not one call per entry.

  env_.slot_owners_[1077] = 99;  // Another file's digested page.
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(ClassOf(report), VerifyErrorClass::kForeignPage) << report.status().ToString();
}

// With several violations, the verdict is the first one in walk order, although the
// one-pass walk checks uniqueness and tier slots only after it has seen every entry.
TEST_F(VerifierTest, FirstViolationInWalkOrderIsTheVerdict) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 8 * kPageSize, 1);
  IndexPage* index = FirstIndexPage(d);
  const PageNumber stolen = NewPage(/*leased=*/false);
  ownership_.OwnPage(stolen, /*owner=*/99);

  index->entries[1] = MakeTierEntry(7);      // Slot owned by another file...
  env_.slot_owners_[7] = 99;
  index->entries[2] = pool_.num_pages() + 5;  // ...before an out-of-range page.
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  EXPECT_EQ(ClassOf(report), VerifyErrorClass::kForeignPage) << report.status().ToString();

  index->entries[1] = index->entries[0];     // A repeated page...
  index->entries[2] = stolen;                // ...before another file's page.
  report = verifier_->Verify(RequestFor(42, d));
  EXPECT_EQ(ClassOf(report), VerifyErrorClass::kDoubleReference)
      << report.status().ToString();
}

TEST_F(VerifierTest, DeadlinePassingMidWalkIsDeadline) {
  ownership_.LeaseIno(42, kWriter);
  // Two index pages, 600 entries: a full first page of tier entries, then data pages.
  constexpr size_t kEntries = 600;
  DirentBlock* d = BuildRegularFile(42, 1, 0);
  IndexPage* second = AddIndexPage(d);
  for (size_t i = 0; i < kEntries; ++i) {
    if (i < kIndexEntriesPerPage) {
      env_.slot_owners_[1 + i] = 42;
      FirstIndexPage(d)->entries[i] = MakeTierEntry(1 + i);
    } else {
      second->entries[i - kIndexEntriesPerPage] = NewPage();
    }
  }

  TickingClock clock;
  IntegrityVerifier verifier(pool_, ownership_, env_, &clock);
  VerifyRequest request = RequestFor(42, d);
  request.deadline_ns = 1000000;  // Never reached: count the clock reads of a full walk.
  ASSERT_TRUE(verifier.Verify(request).ok());
  // One read per index page plus one per 64 entries, not one per entry.
  EXPECT_EQ(clock.reads(), 2 + kEntries / 64);

  request.deadline_ns = clock.reads() + 5;  // Passes after the first few entry batches.
  Result<VerifyReport> report = verifier.Verify(request);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(ClassOf(report), VerifyErrorClass::kDeadline) << report.status().ToString();
  EXPECT_EQ(verifier.stats().deadline_exceeded.load(), 1u);
}

TEST_F(VerifierTest, ReportListsAreSortedAndUnique) {
  ownership_.LeaseIno(42, kWriter);
  DirentBlock* d = BuildRegularFile(42, 64 * kPageSize, 0);
  IndexPage* index = FirstIndexPage(d);
  // Data pages and tier slots entered in descending order, interleaved.
  std::vector<PageNumber> data;
  for (int i = 0; i < 20; ++i) {
    data.push_back(NewPage());
  }
  for (size_t i = 0; i < 40; ++i) {
    if (i % 2 == 0) {
      index->entries[i] = data[data.size() - 1 - i / 2];
    } else {
      const uint64_t slot = 500 - i;
      env_.slot_owners_[slot] = 42;
      index->entries[i] = MakeTierEntry(slot);
    }
  }
  Result<VerifyReport> report = verifier_->Verify(RequestFor(42, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pages.size(), 21u);  // Index + 20 data pages.
  EXPECT_EQ(report->backend_slots.size(), 20u);
  for (const std::vector<uint64_t>* list : {&report->pages, &report->backend_slots}) {
    EXPECT_TRUE(std::is_sorted(list->begin(), list->end()));
    EXPECT_EQ(std::adjacent_find(list->begin(), list->end()), list->end());
  }
}

// ---- Directory-level checks ----

class VerifierDirTest : public VerifierTest {
 protected:
  // Builds a directory (ino `dir_ino`, owned) with `children` fresh child dirents.
  DirentBlock* BuildDirectory(Ino dir_ino, int children) {
    dir_dirent_page_ = NewPage();
    auto* holder = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dir_dirent_page_));
    DirentBlock* d = &holder->slots[0];
    std::memset(d, 0, sizeof(*d));
    d->ino = dir_ino;
    d->mode = kModeDirectory | 0755;
    d->uid = 1;
    d->gid = 1;
    d->nlink = 1;
    d->SetName("dir");
    const PageNumber index = NewPage();
    d->first_index_page = index;
    const PageNumber data = NewPage();
    reinterpret_cast<IndexPage*>(pool_.PageAddress(index))->entries[0] = data;
    auto* dir_data = reinterpret_cast<DirDataPage*>(pool_.PageAddress(data));
    for (int i = 0; i < children; ++i) {
      DirentBlock* child = &dir_data->slots[i];
      std::memset(child, 0, sizeof(*child));
      child->ino = 100 + i;
      child->mode = kModeRegular | 0600;
      child->uid = 1;
      child->gid = 1;
      child->nlink = 1;
      child->SetName("c" + std::to_string(i));
      ownership_.LeaseIno(100 + i, kWriter);
    }
    ownership_.OwnIno(dir_ino, kRootIno);
    ownership_.OwnPage(index, dir_ino);
    ownership_.OwnPage(data, dir_ino);
    ShadowInode truth{kModeDirectory | 0755, 1, 1, 1};
    pool_.Write(ShadowInodeOf(pool_, dir_ino), &truth, sizeof(truth));
    dir_data_page_ = data;
    return d;
  }

  PageNumber dir_dirent_page_ = 0;
  PageNumber dir_data_page_ = 0;
};

TEST_F(VerifierDirTest, FreshChildrenReported) {
  DirentBlock* d = BuildDirectory(50, 3);
  Result<VerifyReport> report = verifier_->Verify(RequestFor(50, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->new_children.size(), 3u);
  EXPECT_EQ(report->live_dirents, 3u);
  EXPECT_TRUE(report->removed_children.empty());
}

TEST_F(VerifierDirTest, DuplicateChildNamesFail) {
  DirentBlock* d = BuildDirectory(50, 2);
  auto* data = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dir_data_page_));
  data->slots[1].SetName("c0");  // Same as slot 0.
  EXPECT_TRUE(verifier_->Verify(RequestFor(50, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, TwoDirentsSameInoFail) {
  DirentBlock* d = BuildDirectory(50, 2);
  auto* data = reinterpret_cast<DirDataPage*>(pool_.PageAddress(dir_data_page_));
  data->slots[1].ino = data->slots[0].ino;
  EXPECT_TRUE(verifier_->Verify(RequestFor(50, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, RemovedChildDiffedAgainstCheckpoint) {
  DirentBlock* d = BuildDirectory(50, 2);
  std::vector<CheckpointChild> checkpoint = {{100, false}, {101, false}, {180, false}};
  ownership_.OwnIno(180, 50);  // Was a child; now gone from the dirents.
  VerifyRequest request = RequestFor(50, d);
  request.checkpoint_children = &checkpoint;
  Result<VerifyReport> report = verifier_->Verify(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->removed_children.size(), 1u);
  EXPECT_EQ(report->removed_children[0], 180u);
}

TEST_F(VerifierDirTest, RemovedChildDirCheckedViaEnv) {
  DirentBlock* d = BuildDirectory(50, 1);
  std::vector<CheckpointChild> checkpoint = {{100, false}, {180, true}};
  ownership_.OwnIno(180, 50);
  env_.corrupt_removed_.insert(180);  // Kernel says: still mapped / not empty.
  VerifyRequest request = RequestFor(50, d);
  request.checkpoint_children = &checkpoint;
  EXPECT_TRUE(verifier_->Verify(request).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, MovedInChildNeedsPermission) {
  DirentBlock* d = BuildDirectory(50, 1);
  // Slot 0's ino is owned by a *different* parent: a rename into this directory.
  ownership_.OwnIno(100, /*parent=*/77);
  ShadowInode truth{kModeRegular | 0600, 1, 1, 1};
  pool_.Write(ShadowInodeOf(pool_, 100), &truth, sizeof(truth));

  env_.moves_permitted_ = false;
  EXPECT_TRUE(verifier_->Verify(RequestFor(50, d)).status().Is(ErrorCode::kCorrupted));

  env_.moves_permitted_ = true;
  Result<VerifyReport> report = verifier_->Verify(RequestFor(50, d));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->moved_in.size(), 1u);
  EXPECT_EQ(report->moved_in[0].ino, 100u);
  EXPECT_EQ(report->moved_in[0].old_parent, 77u);
}

TEST_F(VerifierDirTest, DirectoryWithNonzeroSizeFails) {
  DirentBlock* d = BuildDirectory(50, 1);
  d->size = 4096;
  EXPECT_TRUE(verifier_->Verify(RequestFor(50, d)).status().Is(ErrorCode::kCorrupted));
}

TEST_F(VerifierDirTest, StatsCountFailures) {
  DirentBlock* d = BuildDirectory(50, 1);
  d->size = 4096;
  (void)verifier_->Verify(RequestFor(50, d));
  EXPECT_GE(verifier_->stats().files_verified.load(), 1u);
  EXPECT_GE(verifier_->stats().failures.load(), 1u);
}

}  // namespace
}  // namespace trio
