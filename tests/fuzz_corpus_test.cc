// Verify-and-quarantine hardening against the metadata-fuzz corpus. Every corruption
// scenario in src/attacks must end in exactly one of two outcomes — repaired (LibFS fix
// callback) or quarantined behind a structured VerifyError — and the verifier itself must
// stay bounded: cooperative deadline enforcement and bounded retry of transient media
// faults. No corpus entry may crash, hang, or leave the image dirty.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/attacks/attacks.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/sim/fault_injector.h"
#include "src/verifier/fsck.h"
#include "src/verifier/verify_error.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

class FuzzCorpusTest : public ::testing::Test,
                       public ::testing::WithParamInterface<std::tuple<int, int>> {
 protected:
  FuzzCorpusTest() : pool_(8192) {
    FormatOptions options;
    options.max_inodes = 4096;
    TRIO_CHECK_OK(Format(pool_, options));
    KernelConfig config;
    config.fix_timeout_ms = 500;  // Generous: sanitizer builds run the guard slowly.
    kernel_ = std::make_unique<KernelController>(pool_, config);
    TRIO_CHECK_OK(kernel_->Mount());
    victim_ = std::make_unique<ArckFs>(*kernel_);
    attacker_ = std::make_unique<MaliciousLibFs>(*kernel_);
  }

  ~FuzzCorpusTest() override {
    attacker_.reset();
    victim_.reset();
  }

  // Creates + releases a file and returns its inode number.
  Ino VictimCreates(const std::string& path, const std::string& content) {
    Result<Fd> fd = victim_->Open(path, OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    TRIO_CHECK(victim_->Pwrite(*fd, content.data(), content.size(), 0).ok());
    TRIO_CHECK_OK(victim_->Close(*fd));
    Result<StatInfo> info = victim_->Stat(path);
    TRIO_CHECK(info.ok());
    TRIO_CHECK_OK(victim_->ReleaseFile(path));
    TRIO_CHECK_OK(victim_->ReleaseFile("/"));
    return info->ino;
  }

  std::string VictimReads(const std::string& path) {
    Result<Fd> fd = victim_->Open(path, OpenFlags::ReadOnly());
    TRIO_CHECK(fd.ok()) << fd.status().ToString();
    Result<StatInfo> info = victim_->Stat(path);
    TRIO_CHECK(info.ok());
    std::string out(info->size, '\0');
    Result<size_t> n = victim_->Pread(*fd, out.data(), out.size(), 0);
    TRIO_CHECK(n.ok()) << n.status().ToString();
    out.resize(*n);
    TRIO_CHECK_OK(victim_->Close(*fd));
    return out;
  }

  NvmPool pool_;
  std::unique_ptr<KernelController> kernel_;
  std::unique_ptr<ArckFs> victim_;
  std::unique_ptr<MaliciousLibFs> attacker_;
};

TEST_P(FuzzCorpusTest, RepairedOrQuarantinedWithStructuredError) {
  const size_t scenario = std::get<0>(GetParam());
  const uint64_t seed = TestSeed() + std::get<1>(GetParam());
  const std::string name = CorruptionScenarioName(scenario);

  const bool dir_target = name == "dir_size_nonzero" || name == "dir_index_cycle";
  std::string path;
  Ino target_ino;
  if (dir_target) {
    TRIO_CHECK_OK(victim_->Mkdir("/swept"));
    VictimCreates("/swept/inner", "i");
    Result<StatInfo> info = victim_->Stat("/swept");
    TRIO_CHECK(info.ok());
    target_ino = info->ino;
    TRIO_CHECK_OK(victim_->ReleaseFile("/swept"));
    path = "/swept";
  } else {
    path = "/fuzz_target";
    target_ino = VictimCreates(path, std::string(2 * kPageSize, 'z'));
  }

  Status applied = ApplyScriptedCorruption(*attacker_, path, scenario, seed);
  ASSERT_TRUE(applied.ok()) << name << ": " << applied.ToString();

  // The release must return (watchdog-bounded), fail, and carry a parseable taxonomy
  // entry — kUnclassified is the parse-failure sentinel, never a verifier verdict.
  Status released = attacker_->ReleaseTarget(path);
  ASSERT_FALSE(released.ok()) << name << " seed " << seed;
  EXPECT_TRUE(VerifyError::IsStructured(released))
      << name << " seed " << seed << ": " << released.ToString();
  const VerifyError error = VerifyError::FromStatus(released);
  EXPECT_NE(error.cls, VerifyErrorClass::kUnclassified) << released.ToString();
  EXPECT_FALSE(error.invariant.empty()) << released.ToString();

  // Quarantined: the condemned images are impounded under the same structured error, and
  // the offender was notified.
  EXPECT_GE(kernel_->stats().files_quarantined.load(), 1u) << name;
  EXPECT_GE(kernel_->QuarantineCount(), 1u);
  Status impounded = kernel_->QuarantineErrorOf(target_ino);
  EXPECT_FALSE(impounded.Is(ErrorCode::kNotFound)) << name << ": " << impounded.ToString();
  EXPECT_TRUE(VerifyError::IsStructured(impounded)) << impounded.ToString();
  const auto notices = attacker_->QuarantineNotices();
  ASSERT_GE(notices.size(), 1u) << name;
  EXPECT_EQ(notices.front().first, target_ino);

  // Repaired for the victim: rollback restored the checkpointed state.
  if (dir_target) {
    EXPECT_EQ(VictimReads("/swept/inner"), "i");
  } else {
    EXPECT_EQ(VictimReads(path), std::string(2 * kPageSize, 'z'));
  }

  // And the on-NVM image is globally consistent again.
  (void)victim_->ReleaseFile(dir_target ? "/swept/inner" : path);
  if (dir_target) {
    (void)victim_->ReleaseFile("/swept");
  }
  (void)victim_->ReleaseFile("/");
  Result<FsckReport> fsck = RunFsck(pool_);
  ASSERT_TRUE(fsck.ok()) << fsck.status().ToString();
  EXPECT_TRUE(fsck->Clean()) << name << ": " << fsck->problems.front().detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, FuzzCorpusTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(CorruptionScenarioCount())),
                       ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return CorruptionScenarioName(std::get<0>(info.param)) + "_v" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Bounded verification: cooperative deadline ----

// Builds a released (kernel-owned) file and hands back a VerifyRequest for it. The
// request's writer can stay kNoLibFs: for an owned file the verifier takes the
// "existing" paths, which never consult the writer.
class VerifierBoundsTest : public ::testing::Test {
 protected:
  VerifierBoundsTest() : pool_(4096) {
    FormatOptions options;
    options.max_inodes = 1024;
    TRIO_CHECK_OK(Format(pool_, options));
  }

  void SetUpFile(KernelController& kernel, MaliciousLibFs& fs) {
    Result<Fd> fd = fs.Open("/bounded", OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok());
    const std::string content(2 * kPageSize, 'b');
    TRIO_CHECK(fs.Pwrite(*fd, content.data(), content.size(), 0).ok());
    TRIO_CHECK_OK(fs.Close(*fd));
    Result<StatInfo> info = fs.Stat("/bounded");
    TRIO_CHECK(info.ok());
    ino_ = info->ino;
    Result<DirentBlock*> dirent = fs.MapTarget("/bounded");
    TRIO_CHECK(dirent.ok());
    dirent_ = *dirent;  // Stays valid after release: the dirent lives in the root's pages.
    TRIO_CHECK_OK(fs.ReleaseTarget("/bounded"));
    TRIO_CHECK_OK(fs.ReleaseTarget("/"));
  }

  VerifyRequest RequestFor() const {
    VerifyRequest request;
    request.ino = ino_;
    request.dirent = dirent_;
    return request;
  }

  NvmPool pool_;
  Ino ino_ = kInvalidIno;
  const DirentBlock* dirent_ = nullptr;
};

TEST_F(VerifierBoundsTest, DeadlineOverrunReportsStructuredTimeout) {
  FakeClock clock;
  KernelController kernel(pool_, {}, &clock);
  TRIO_CHECK_OK(kernel.Mount());
  {
    MaliciousLibFs fs(kernel);
    SetUpFile(kernel, fs);

    IntegrityVerifier verifier(pool_, kernel, kernel, &clock);
    VerifyRequest request = RequestFor();
    request.deadline_ns = clock.NowNs();
    clock.AdvanceMs(1);  // Already past the deadline when the first walk check runs.

    Result<VerifyReport> result = verifier.Verify(request);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().Is(ErrorCode::kTimeout)) << result.status().ToString();
    const VerifyError error = VerifyError::FromStatus(result.status());
    EXPECT_EQ(error.cls, VerifyErrorClass::kDeadline) << result.status().ToString();
    EXPECT_GE(verifier.stats().deadline_exceeded.load(), 1u);

    // Unbounded (deadline_ns = 0) still verifies the same file fine.
    EXPECT_TRUE(verifier.Verify(RequestFor()).ok());
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

// ---- Bounded verification: transient media faults are retried, persistent ones
// surface as kIo after the retry budget ----

TEST_F(VerifierBoundsTest, TransientMediaFaultAbsorbedByRetry) {
  KernelController kernel(pool_);
  TRIO_CHECK_OK(kernel.Mount());
  {
    MaliciousLibFs fs(kernel);
    SetUpFile(kernel, fs);

    IntegrityVerifier verifier(pool_, kernel, kernel);
    FaultInjector injector(TestSeed());
    injector.Arm(kFaultVerifierMediaRead, FaultPolicy::Once());
    pool_.set_fault_injector(&injector);

    Result<VerifyReport> result = verifier.Verify(RequestFor());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(verifier.stats().media_retries.load(), 1u);
    EXPECT_EQ(injector.TotalFires(), 1u);
    pool_.set_fault_injector(nullptr);
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

TEST_F(VerifierBoundsTest, PersistentMediaFaultSurfacesAsIoAfterRetries) {
  KernelController kernel(pool_);
  TRIO_CHECK_OK(kernel.Mount());
  {
    MaliciousLibFs fs(kernel);
    SetUpFile(kernel, fs);

    IntegrityVerifier verifier(pool_, kernel, kernel);
    FaultInjector injector(TestSeed());
    injector.Arm(kFaultVerifierMediaRead, FaultPolicy::Always());
    pool_.set_fault_injector(&injector);
    verifier.set_media_read_retries(2);

    Result<VerifyReport> result = verifier.Verify(RequestFor());
    pool_.set_fault_injector(nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().Is(ErrorCode::kIo)) << result.status().ToString();
    EXPECT_EQ(VerifyError::FromStatus(result.status()).cls,
              VerifyErrorClass::kMediaFailure);
    EXPECT_EQ(verifier.stats().media_retries.load(), 2u);  // Initial pass + 2 retries.
    EXPECT_EQ(injector.TotalFires(), 3u);
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

// The kernel's own release-time verification reads the same pool-attached fault point:
// a media fault that outlasts every retry leaves the write unverifiable, so the kernel
// quarantines it as kMediaFailure and rolls the file back to its checkpoint.
TEST_F(VerifierBoundsTest, KernelVerifyMediaFailureQuarantinesAndRollsBack) {
  KernelController kernel(pool_);
  TRIO_CHECK_OK(kernel.Mount());
  {
    MaliciousLibFs fs(kernel);
    SetUpFile(kernel, fs);  // Released and verified: the checkpoint holds 2 pages of 'b'.

    Result<Fd> fd = fs.Open("/bounded", OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    const std::string grown(3 * kPageSize, 'c');
    ASSERT_TRUE(fs.Pwrite(*fd, grown.data(), grown.size(), 0).ok());
    TRIO_CHECK_OK(fs.Close(*fd));

    FaultInjector injector(TestSeed());
    injector.Arm(kFaultVerifierMediaRead, FaultPolicy::Always());
    pool_.set_fault_injector(&injector);
    Status released = fs.ReleaseTarget("/bounded");
    pool_.set_fault_injector(nullptr);

    ASSERT_FALSE(released.ok());
    EXPECT_EQ(VerifyError::FromStatus(released).cls, VerifyErrorClass::kMediaFailure)
        << released.ToString();
    EXPECT_GE(injector.TotalFires(), 1u);
    const Status impounded = kernel.QuarantineErrorOf(ino_);
    EXPECT_EQ(VerifyError::FromStatus(impounded).cls, VerifyErrorClass::kMediaFailure)
        << impounded.ToString();
    EXPECT_EQ(kernel.stats().files_quarantined.load(), 1u);
    EXPECT_EQ(kernel.stats().corruptions_rolled_back.load(), 1u);
    EXPECT_EQ(dirent_->size, 2 * kPageSize);  // The checkpointed size, not the write's.
    TRIO_CHECK_OK(fs.ReleaseTarget("/"));
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

// ---- Quarantine bounds: the impound store cannot grow without limit ----

TEST(QuarantineBoundsTest, OldestEntryEvictedBeyondCap) {
  NvmPool pool(8192);
  FormatOptions options;
  options.max_inodes = 4096;
  TRIO_CHECK_OK(Format(pool, options));
  KernelConfig config;
  config.max_quarantined_files = 2;
  KernelController kernel(pool, config);
  TRIO_CHECK_OK(kernel.Mount());
  {
    ArckFs victim(kernel);
    MaliciousLibFs attacker(kernel);
    Ino first_ino = kInvalidIno;
    for (int i = 0; i < 3; ++i) {
      const std::string path = "/q" + std::to_string(i);
      Result<Fd> fd = victim.Open(path, OpenFlags::CreateTrunc());
      TRIO_CHECK(fd.ok());
      TRIO_CHECK(victim.Pwrite(*fd, "data", 4, 0).ok());
      TRIO_CHECK_OK(victim.Close(*fd));
      Result<StatInfo> info = victim.Stat(path);
      TRIO_CHECK(info.ok());
      if (i == 0) {
        first_ino = info->ino;
      }
      TRIO_CHECK_OK(victim.ReleaseFile(path));
      TRIO_CHECK_OK(victim.ReleaseFile("/"));
      ASSERT_TRUE(attacker.AttackSizeBeyondCapacity(path).ok());
      Status released = attacker.ReleaseTarget(path);
      EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
    }
    EXPECT_EQ(kernel.QuarantineCount(), 2u);
    EXPECT_EQ(kernel.stats().quarantine_evictions.load(), 1u);
    // The first (oldest) impound was evicted to admit the third.
    EXPECT_TRUE(kernel.QuarantineErrorOf(first_ino).Is(ErrorCode::kNotFound));
  }
  TRIO_CHECK_OK(kernel.Unmount());
}

}  // namespace
}  // namespace trio
