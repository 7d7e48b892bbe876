// Fleet-scale tests for the sharded kernel controller: a ctest-sized fleet smoke
// (64 LibFS tenants, Zipfian-shared files, concurrent cross-shard renames) plus one
// shard-canary regression test per lock bug fixed during the shard refactor:
//
//   * RevokeAfterHolderTeardownCompletes — the MapFile revoke livelock: a holder whose
//     node state was torn down before the kernel learned of its implicit grant used to
//     no-op every revoke callback, looping the mapper forever.
//   * UncooperativeHolderIsForceReleasedAfterCompletedRevoke — the kernel-side half of
//     the same bug: a completed revoke that does not dislodge the holder must escalate
//     to ForceRelease instead of re-issuing callbacks past the lease deadline.
//   * RenameChurnNeverForcesCooperatingHolders — tenants on real threads renaming
//     their private files through one shared directory revoke each other constantly;
//     a holder that answers its revoke must never be force-released (that rolled back
//     committed renames and lost files).
//   * FileRenamedBackIntoDirectorySurvivesTeardown — a file renamed out of a directory
//     and back again across two verifications of it was left a pending orphan, and the
//     owner's teardown reclaimed it while the directory still named it.
//   * RenameWithinOneSessionKeepsChildDirentLocation — a child renamed away and back
//     within one write session of its directory kept a stale dirent location in the
//     kernel, so its next verification read (and rolled back) a neighbour's dirent.
//   * StaleGrantInvalidatedOnChmod — the seqlock grant cache must not serve a grant
//     that a permission change has revoked (write-through invalidation on Chmod).
//   * RequarantineKeepsEvictionOrder — the O(1) FIFO quarantine eviction must skip
//     stale sequence entries left behind when the same ino is quarantined twice.
//
// Randomized parts derive from TRIO_TEST_SEED (tests/test_seed.h) and replay exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/attacks/attacks.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/verifier/fsck.h"
#include "src/workloads/workloads.h"
#include "tests/test_seed.h"

namespace trio {
namespace {

class FleetTest : public ::testing::Test {
 protected:
  void Build(size_t shards, bool lockfree = true) {
    pool_ = std::make_unique<NvmPool>(1 << 13);
    FormatOptions options;
    options.max_inodes = 4096;
    TRIO_CHECK_OK(Format(*pool_, options));
    KernelConfig config;
    config.controller_shards = shards;
    config.lockfree_lookup = lockfree;
    kernel_ = std::make_unique<KernelController>(*pool_, config);
    TRIO_CHECK_OK(kernel_->Mount());
  }

  std::unique_ptr<NvmPool> pool_;
  std::unique_ptr<KernelController> kernel_;
};

// ---- Fleet smoke: 64 tenants, Zipfian sharing, renames across the shard map ----

TEST_F(FleetTest, SixtyFourTenantsZipfianSharing) {
  Build(8);
  FleetConfig config;
  config.tenants = 64;
  config.shared_files = 64;
  config.seed = TestSeed();
  FleetWorkload fleet(*kernel_, config);
  ASSERT_TRUE(fleet.Prepare().ok());

  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerTenant = 20;
  const int per_thread = config.tenants / kThreads;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::vector<Status> first_failure(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (int t = w * per_thread; t < (w + 1) * per_thread; ++t) {
        for (uint64_t i = 0; i < kOpsPerTenant; ++i) {
          Status status = fleet.Op(t, i);
          if (!status.ok()) {
            if (failures.fetch_add(1) == 0) {
              first_failure[w] = status;
            }
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::string detail;
  for (const Status& status : first_failure) {
    if (!status.ok()) {
      detail = status.ToString();
    }
  }
  EXPECT_EQ(failures.load(), 0) << detail;

  uint64_t total_ops = 0;
  for (int t = 0; t < config.tenants; ++t) {
    total_ops += fleet.stats(t).ops;
  }
  EXPECT_EQ(total_ops, static_cast<uint64_t>(config.tenants) * kOpsPerTenant);
  // The Zipfian read stream must ride the lock-free fast path, and the rename mix must
  // have exercised the two-phase cross-shard acquire at least once.
  EXPECT_GT(kernel_->stats().grant_fast_hits.load(), 0u);
  EXPECT_GT(kernel_->stats().cross_shard_acquires.load(), 0u);
}

// ---- Concurrent cross-shard renames: opposite directions, consistent outcome ----

TEST_F(FleetTest, ConcurrentCrossShardRenamesConverge) {
  Build(8);
  constexpr int kTenants = 8;
  constexpr int kRounds = 10;
  ArckFsConfig fs_config;
  std::vector<std::unique_ptr<ArckFs>> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back(std::make_unique<ArckFs>(*kernel_, fs_config));
  }
  ArckFs& provisioner = *tenants[0];
  TRIO_CHECK_OK(provisioner.Mkdir("/a"));
  TRIO_CHECK_OK(provisioner.Mkdir("/b"));
  for (int t = 0; t < kTenants; ++t) {
    Result<Fd> fd =
        provisioner.Open("/a/f" + std::to_string(t), OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok());
    TRIO_CHECK(provisioner.Pwrite(*fd, "fleet", 5, 0).ok());
    TRIO_CHECK_OK(provisioner.Close(*fd));
  }
  TRIO_CHECK_OK(provisioner.ReleaseFile("/a"));
  TRIO_CHECK_OK(provisioner.ReleaseFile("/b"));
  for (int t = 0; t < kTenants; ++t) {
    TRIO_CHECK_OK(provisioner.ReleaseFile("/a/f" + std::to_string(t)));
  }

  // Each tenant shuttles its own file between the two directories; every rename
  // write-maps BOTH directories, so concurrent tenants continually revoke each other.
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "/f" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        const std::string from = (round % 2 == 0 ? "/a" : "/b") + name;
        const std::string to = (round % 2 == 0 ? "/b" : "/a") + name;
        Status moved = tenants[t]->Rename(from, to);
        if (!moved.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // A fresh observer forces reconciliation of both directories: every file must be
  // found in exactly one of them (kRounds even => back in /a).
  ArckFs observer(*kernel_, fs_config);
  for (int t = 0; t < kTenants; ++t) {
    const std::string name = "/f" + std::to_string(t);
    const bool in_a = observer.Stat("/a" + name).ok();
    const bool in_b = observer.Stat("/b" + name).ok();
    EXPECT_TRUE(in_a != in_b) << name << " in_a=" << in_a << " in_b=" << in_b;
  }
}

// ---- Canary: revoke of a holder that already tore down its node state ----

TEST_F(FleetTest, RevokeAfterHolderTeardownCompletes) {
  Build(8);
  ArckFsConfig fs_config;
  ArckFs creator(*kernel_, fs_config);
  TRIO_CHECK_OK(creator.Mkdir("/x"));
  Result<Fd> fd = creator.Open("/x/f", OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(creator.Pwrite(*fd, "payload", 7, 0).ok());
  TRIO_CHECK_OK(creator.Close(*fd));
  // Pathological release order: the file release is a kernel-side no-op (the kernel has
  // never heard of the ino), and the directory release then registers the child WITH an
  // implicit write grant to `creator` — whose node state is already gone.
  TRIO_CHECK_OK(creator.ReleaseFile("/x/f"));
  TRIO_CHECK_OK(creator.ReleaseFile("/x"));

  // Before the fix this spun forever: each revoke callback found no node state, skipped
  // the UnmapFile, and the kernel re-issued the callback indefinitely.
  ArckFs reader(*kernel_, fs_config);
  Result<Fd> rfd = reader.Open("/x/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  char buffer[7];
  Result<size_t> n = reader.Pread(*rfd, buffer, sizeof(buffer), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 7u);
  EXPECT_EQ(std::string(buffer, 7), "payload");
  TRIO_CHECK_OK(reader.Close(*rfd));
}

// ---- Canary: completed-but-ineffective revoke escalates to ForceRelease ----

TEST_F(FleetTest, UncooperativeHolderIsForceReleasedAfterCompletedRevoke) {
  Build(8);
  ArckFsConfig fs_config;
  ArckFs creator(*kernel_, fs_config);
  Result<Fd> fd = creator.Open("/hostage", OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(creator.Pwrite(*fd, "data", 4, 0).ok());
  TRIO_CHECK_OK(creator.Close(*fd));
  TRIO_CHECK_OK(creator.ReleaseFile("/"));
  TRIO_CHECK_OK(creator.ReleaseFile("/hostage"));
  Result<StatInfo> info = creator.Stat("/hostage");
  TRIO_CHECK(info.ok());

  // A raw registrant whose revoke callback completes without releasing anything — the
  // lease contract says it cannot stall a conflicting mapper beyond cooperation failure.
  LibFsOptions options;
  options.callbacks.revoke = [](Ino) {};
  LibFsId squatter = kernel_->RegisterLibFs(options);
  Result<MapInfo> grabbed = kernel_->MapFile(squatter, kInvalidIno, info->ino, true);
  ASSERT_TRUE(grabbed.ok()) << grabbed.status().ToString();

  ArckFs reader(*kernel_, fs_config);
  Result<Fd> rfd = reader.Open("/hostage", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  TRIO_CHECK_OK(reader.Close(*rfd));
  EXPECT_GE(kernel_->stats().forced_releases.load(), 1u);
  kernel_->UnregisterLibFs(squatter);
}

// ---- Regression: rename churn never forces a cooperating holder ----

TEST_F(FleetTest, RenameChurnNeverForcesCooperatingHolders) {
  Build(8);
  FleetConfig config;
  config.tenants = 8;
  config.shared_files = 8;
  config.write_permille = 250;
  config.rename_permille = 250;  // Every rename write-maps the shared directory.
  config.seed = TestSeed();
  auto fleet = std::make_unique<FleetWorkload>(*kernel_, config);
  ASSERT_TRUE(fleet->Prepare().ok());

  // Each thread drives a fixed, disjoint set of tenants. A rename is the one op that
  // moves neither read nor written bytes, which is how each thread tracks where its
  // tenants' private files are.
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerTenant = 1500;
  std::vector<char> in_shared(static_cast<size_t>(config.tenants), 0);
  std::atomic<int> failures{0};
  std::vector<Status> first_failure(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < kOpsPerTenant; ++i) {
        for (int t = w; t < config.tenants; t += kThreads) {
          const WorkloadStats before = fleet->stats(t);
          Status status = fleet->Op(t, i);
          if (!status.ok()) {
            failures.fetch_add(1);
            if (first_failure[w].ok()) {
              first_failure[w] = status;
            }
            continue;
          }
          const WorkloadStats& after = fleet->stats(t);
          if (after.bytes_read == before.bytes_read &&
              after.bytes_written == before.bytes_written) {
            in_shared[static_cast<size_t>(t)] ^= 1;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  std::string detail;
  for (const Status& status : first_failure) {
    if (!status.ok()) {
      detail = status.ToString();
    }
  }
  EXPECT_EQ(failures.load(), 0) << detail;

  // Every revoke callback completed, so no holder was unresponsive: the kernel had no
  // cause to force a release, and so none of a holder's committed renames was rolled
  // back.
  const KernelStats& stats = kernel_->stats();
  ASSERT_EQ(stats.callback_timeouts.load(), 0u);
  EXPECT_EQ(stats.forced_releases.load(), 0u);
  EXPECT_EQ(stats.verify_failures.load(), 0u);
  EXPECT_GT(stats.revocations.load(), 0u);

  for (int t = 0; t < config.tenants; ++t) {
    const std::string home = "/fleet_t" + std::to_string(t) + "/work";
    const std::string away = "/fleet_shared/t" + std::to_string(t) + "_work";
    const bool shared = in_shared[static_cast<size_t>(t)] != 0;
    ArckFs& owner = fleet->tenant(t);
    Result<Fd> fd = owner.Open(shared ? away : home, OpenFlags::ReadWrite());
    ASSERT_TRUE(fd.ok()) << "tenant " << t << ": " << fd.status().ToString();
    TRIO_CHECK_OK(owner.Close(*fd));
    EXPECT_TRUE(owner.Stat(shared ? home : away).status().Is(ErrorCode::kNotFound))
        << "tenant " << t;
  }

  // Teardown verifies every tenant's open write sessions; the final image must be
  // clean and still hold every file.
  fleet.reset();
  Result<FsckReport> report = RunFsck(*pool_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const FsckProblem& problem : report->problems) {
    ADD_FAILURE() << problem.invariant << " ino " << problem.ino << ": " << problem.detail;
  }
  EXPECT_EQ(report->regular_files,
            static_cast<uint64_t>(config.tenants + config.shared_files));
}

// ---- Canary: a file renamed back into the directory it left stays live ----

TEST_F(FleetTest, FileRenamedBackIntoDirectorySurvivesTeardown) {
  Build(8);
  auto mover = std::make_unique<ArckFs>(*kernel_);
  ArckFs observer(*kernel_);
  TRIO_CHECK_OK(mover->Mkdir("/home"));
  TRIO_CHECK_OK(mover->Mkdir("/shared"));
  Result<Fd> fd = mover->Open("/home/f", OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(mover->Pwrite(*fd, "kept", 4, 0).ok());
  TRIO_CHECK_OK(mover->Close(*fd));

  // The observer's lookup in /shared revokes the mover's write grant on it, so the
  // kernel verifies /shared after every rename, while /home stays write-mapped by the
  // mover throughout. The second verification files `f` as a pending orphan of the
  // mover; the third finds it back in /shared, where the kernel still files it.
  for (const auto& [from, to] : {std::pair<const char*, const char*>{"/home/f", "/shared/f"},
                                 {"/shared/f", "/home/f"},
                                 {"/home/f", "/shared/f"}}) {
    ASSERT_TRUE(mover->Rename(from, to).ok()) << from << " -> " << to;
    (void)observer.Stat("/shared/f");
  }
  // Unregistering verifies /home and resolves the mover's orphans: `f` must not be
  // reclaimed as deleted while /shared still names it.
  mover.reset();

  Result<Fd> rfd = observer.Open("/shared/f", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  char buffer[4];
  Result<size_t> n = observer.Pread(*rfd, buffer, sizeof(buffer), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buffer, *n), "kept");
  TRIO_CHECK_OK(observer.Close(*rfd));
  Result<FsckReport> report = RunFsck(*pool_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const FsckProblem& problem : report->problems) {
    ADD_FAILURE() << problem.invariant << " ino " << problem.ino << ": " << problem.detail;
  }
}

// ---- Canary: a file renamed away and back in one session keeps its own dirent ----

TEST_F(FleetTest, RenameWithinOneSessionKeepsChildDirentLocation) {
  Build(8);
  auto mover = std::make_unique<ArckFs>(*kernel_);
  ArckFs observer(*kernel_);
  TRIO_CHECK_OK(mover->Mkdir("/home"));
  TRIO_CHECK_OK(mover->Mkdir("/shared"));
  auto write_file = [&](const char* path, const std::string& data) {
    Result<Fd> fd = mover->Open(path, OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok());
    TRIO_CHECK(mover->Pwrite(*fd, data.data(), data.size(), 0).ok());
    TRIO_CHECK_OK(mover->Close(*fd));
  };
  write_file("/shared/a", "aaaa");
  write_file("/shared/f", "ffff");
  (void)observer.Stat("/shared/f");  // The kernel verifies /shared and files f's dirent.

  // In ONE write session of /shared: f leaves, g takes a dirent slot, f comes back in
  // another slot. f is in /shared at both ends of the session, but its dirent moved;
  // the kernel must learn the new location, or f's next verification reads g's dirent.
  ASSERT_TRUE(mover->Rename("/shared/f", "/home/f").ok());
  write_file("/shared/g", "gggggggg");
  ASSERT_TRUE(mover->Rename("/home/f", "/shared/f").ok());
  (void)observer.Stat("/shared/f");

  Result<Fd> fd = mover->Open("/shared/f", OpenFlags::ReadWrite());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ASSERT_TRUE(mover->Pwrite(*fd, "FFFF", 4, 4).ok());
  TRIO_CHECK_OK(mover->Close(*fd));
  mover.reset();  // Verifies f's write session and every other one.

  EXPECT_EQ(kernel_->stats().verify_failures.load(), 0u);
  for (const auto& [path, size] : {std::pair<const char*, uint64_t>{"/shared/f", 8},
                                   {"/shared/g", 8}}) {
    Result<StatInfo> info = observer.Stat(path);
    ASSERT_TRUE(info.ok()) << path << ": " << info.status().ToString();
    EXPECT_EQ(info->size, size) << path;
  }
  Result<FsckReport> report = RunFsck(*pool_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const FsckProblem& problem : report->problems) {
    ADD_FAILURE() << problem.invariant << " ino " << problem.ino << ": " << problem.detail;
  }
}

// ---- Canary: Chmod write-through on the seqlock grant cache ----

TEST_F(FleetTest, StaleGrantInvalidatedOnChmod) {
  Build(8);
  // Root is uid 0 / 0755, and uid 0 bypasses AccessAllowed entirely — so the actors
  // here must be non-root, working in a world-writable directory an admin provisions.
  ArckFs admin(*kernel_);
  TRIO_CHECK_OK(admin.Mkdir("/pub", 0777));
  TRIO_CHECK_OK(admin.ReleaseFile("/"));
  TRIO_CHECK_OK(admin.ReleaseFile("/pub"));

  ArckFsConfig owner_config;
  owner_config.uid = 100;
  owner_config.gid = 100;
  ArckFs owner(*kernel_, owner_config);
  Result<Fd> fd = owner.Open("/pub/secret", OpenFlags::CreateTrunc(), 0644);
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(owner.Pwrite(*fd, "top", 3, 0).ok());
  TRIO_CHECK_OK(owner.Close(*fd));
  TRIO_CHECK_OK(owner.ReleaseFile("/pub"));
  TRIO_CHECK_OK(owner.ReleaseFile("/pub/secret"));

  ArckFsConfig other_config;
  other_config.uid = 200;
  other_config.gid = 200;
  ArckFs other(*kernel_, other_config);
  Result<Fd> rfd = other.Open("/pub/secret", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  Result<StatInfo> info = other.Stat("/pub/secret");
  TRIO_CHECK(info.ok());
  // The read map published a grant; the fast path serves it lock-free.
  ASSERT_TRUE(kernel_->LookupGrant(other.id(), info->ino).ok());

  TRIO_CHECK_OK(owner.Chmod("/pub/secret", 0600));
  // Chmod must have erased the cached grant: the lookup now funnels through the locked
  // fallback, which re-checks the shadow inode and denies. A stale seqlock hit here
  // would hand uid 200 a grant its permissions no longer cover.
  Result<MapInfo> stale = kernel_->LookupGrant(other.id(), info->ino);
  EXPECT_FALSE(stale.ok());
  EXPECT_TRUE(stale.status().Is(ErrorCode::kPermission)) << stale.status().ToString();
  TRIO_CHECK_OK(other.Close(*rfd));
}

// ---- Cross-shard trust-boundary attacks (src/attacks #12 and #13) ----

TEST_F(FleetTest, CrossShardForeignClaimDetected) {
  Build(8);
  ArckFs victim(*kernel_);
  Result<Fd> fd = victim.Open("/prize", OpenFlags::CreateTrunc());
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(victim.Pwrite(*fd, "gold", 4, 0).ok());
  TRIO_CHECK_OK(victim.Close(*fd));
  TRIO_CHECK_OK(victim.ReleaseFile("/"));
  TRIO_CHECK_OK(victim.ReleaseFile("/prize"));

  // The attacker owns /evil (with one pad file so the directory has a data page with
  // free slots) and must NOT write-map root, the victim's parent — release it first.
  MaliciousLibFs attacker(*kernel_);
  TRIO_CHECK_OK(attacker.Mkdir("/evil"));
  Result<Fd> pad = attacker.Open("/evil/pad", OpenFlags::CreateTrunc());
  TRIO_CHECK(pad.ok());
  TRIO_CHECK_OK(attacker.Close(*pad));
  TRIO_CHECK_OK(attacker.ReleaseFile("/evil/pad"));
  TRIO_CHECK_OK(attacker.ReleaseFile("/evil"));
  TRIO_CHECK_OK(attacker.ReleaseFile("/"));

  ASSERT_TRUE(attacker.AttackCrossShardForeignClaim("/evil", "/prize").ok());
  // The forged fields match the shadow inode exactly; only the cross-shard ownership
  // walk (the child's shard + its real parent's shard, taken in order) can reject it.
  Status released = attacker.ReleaseTarget("/evil");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();

  // The victim's file is untouched and still reachable by an honest tenant.
  ArckFs reader(*kernel_);
  Result<Fd> rfd = reader.Open("/prize", OpenFlags::ReadOnly());
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  char buffer[4];
  Result<size_t> n = reader.Pread(*rfd, buffer, sizeof(buffer), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buffer, *n), "gold");
  TRIO_CHECK_OK(reader.Close(*rfd));
}

TEST_F(FleetTest, MovedInPermissionLiftDetected) {
  Build(8);
  ArckFs victim(*kernel_);
  Result<Fd> fd = victim.Open("/lifted", OpenFlags::CreateTrunc(), 0644);
  TRIO_CHECK(fd.ok());
  TRIO_CHECK(victim.Pwrite(*fd, "data", 4, 0).ok());
  TRIO_CHECK_OK(victim.Close(*fd));
  TRIO_CHECK_OK(victim.ReleaseFile("/"));
  TRIO_CHECK_OK(victim.ReleaseFile("/lifted"));

  MaliciousLibFs attacker(*kernel_);
  TRIO_CHECK_OK(attacker.Mkdir("/evil2"));
  Result<Fd> pad = attacker.Open("/evil2/pad", OpenFlags::CreateTrunc());
  TRIO_CHECK(pad.ok());
  TRIO_CHECK_OK(attacker.Close(*pad));
  TRIO_CHECK_OK(attacker.ReleaseFile("/"));

  // The attack itself re-acquires root's WRITE map, so the cross-directory move is
  // permitted — the forgery is the mode/uid lift smuggled inside the "rename".
  ASSERT_TRUE(attacker.AttackMovedInPermissionLift("/evil2", "/lifted").ok());
  Status released = attacker.ReleaseTarget("/evil2");
  EXPECT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();

  // Ground truth unchanged: the shadow inode still says 0644.
  ArckFs reader(*kernel_);
  Result<StatInfo> info = reader.Stat("/lifted");
  TRIO_CHECK(info.ok());
  EXPECT_EQ(info->mode & 0777u, 0644u);
}

// ---- Canary: FIFO quarantine eviction skips stale re-quarantine entries ----

TEST_F(FleetTest, RequarantineKeepsEvictionOrder) {
  pool_ = std::make_unique<NvmPool>(1 << 13);
  FormatOptions options;
  options.max_inodes = 4096;
  TRIO_CHECK_OK(Format(*pool_, options));
  KernelConfig config;
  config.controller_shards = 8;
  config.max_quarantined_files = 2;
  kernel_ = std::make_unique<KernelController>(*pool_, config);
  TRIO_CHECK_OK(kernel_->Mount());

  ArckFs victim(*kernel_);
  MaliciousLibFs attacker(*kernel_);
  auto corrupt = [&](const std::string& path) {
    ASSERT_TRUE(attacker.AttackSizeBeyondCapacity(path).ok());
    Status released = attacker.ReleaseTarget(path);
    ASSERT_TRUE(released.Is(ErrorCode::kCorrupted)) << released.ToString();
  };
  std::vector<Ino> inos;
  for (int i = 0; i < 3; ++i) {
    const std::string path = "/q" + std::to_string(i);
    Result<Fd> fd = victim.Open(path, OpenFlags::CreateTrunc());
    TRIO_CHECK(fd.ok());
    TRIO_CHECK(victim.Pwrite(*fd, "data", 4, 0).ok());
    TRIO_CHECK_OK(victim.Close(*fd));
    Result<StatInfo> info = victim.Stat(path);
    TRIO_CHECK(info.ok());
    inos.push_back(info->ino);
    TRIO_CHECK_OK(victim.ReleaseFile(path));
  }
  TRIO_CHECK_OK(victim.ReleaseFile("/"));

  // Quarantine q0 twice: the second impound supersedes the first, leaving a stale
  // sequence entry at the FIFO head. The naive "pop oldest" would evict q0 on the first
  // stale entry and then q0 AGAIN (double-count) or skip a live file, breaking the
  // oldest-first contract the deque-based rewrite must keep.
  corrupt("/q0");
  corrupt("/q0");
  EXPECT_EQ(kernel_->QuarantineCount(), 1u);
  corrupt("/q1");  // Count 2 == capacity, no eviction yet.
  EXPECT_EQ(kernel_->QuarantineCount(), 2u);
  corrupt("/q2");  // Evicts exactly one file: q0 (its LIVE entry, not the stale one).
  EXPECT_EQ(kernel_->QuarantineCount(), 2u);
  EXPECT_EQ(kernel_->stats().quarantine_evictions.load(), 1u);
  EXPECT_TRUE(kernel_->QuarantineErrorOf(inos[0]).Is(ErrorCode::kNotFound));
  EXPECT_FALSE(kernel_->QuarantineErrorOf(inos[1]).Is(ErrorCode::kNotFound));
  EXPECT_FALSE(kernel_->QuarantineErrorOf(inos[2]).Is(ErrorCode::kNotFound));
}

}  // namespace
}  // namespace trio
