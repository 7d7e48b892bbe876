// Fleet: FleetWorkload's 16 tenants (LibFS instances) on one kernel controller, driven
// by the client threads, each owning a fixed, disjoint set of tenants. The op mix is
// FleetConfig's: 88% Zipfian(0.99) reads of shared files, 10% synchronous private writes,
// 2% renames of the private file across the shared/private (and shard) boundary.
//
// FleetWorkload owns its tenants, so the benchmark sees each op as one call. It tells the
// op's kind from the tenant's WorkloadStats delta (read bytes, written bytes, or neither:
// a rename), which is also how the oracle learns where each successful rename left the
// tenant's private file.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/nvm/nvm.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

using trio::Fd;
using trio::OpenFlags;
using trio::Result;

constexpr int kClients = 4;
constexpr int kTenants = 16;
constexpr size_t kPoolPages = 1 << 14;  // 64 MiB.
constexpr char kProvisionFill = 'w';    // WriteWhole's payload byte.
constexpr char kPrivateWriteFill = 'F';  // FleetWorkload's private-write payload byte.

class FleetBench : public Workload {
 public:
  explicit FleetBench(uint64_t seed) : seed_(seed) {}
  ~FleetBench() override { Teardown(); }

  const char* name() const override { return "fleet"; }
  int clients() const override { return kClients; }
  std::string Describe() const override {
    const trio::FleetConfig c = Config();
    return "clients=" + std::to_string(kClients) + " tenants=" + std::to_string(c.tenants) +
           " (client k drives tenants k, k+" + std::to_string(kClients) + ", ...)" +
           " shared_files=" + std::to_string(c.shared_files) +
           " file_size=" + std::to_string(c.file_size) + "B io=" + std::to_string(c.io_size) +
           "B write_permille=" + std::to_string(c.write_permille) +
           " rename_permille=" + std::to_string(c.rename_permille) +
           " pool_pages=" + std::to_string(kPoolPages);
  }

  Status Setup() override {
    pool_ = std::make_unique<trio::NvmPool>(kPoolPages, trio::NvmMode::kFast);
    TRIO_RETURN_IF_ERROR(trio::Format(*pool_, trio::FormatOptions{}));
    kernel_ = std::make_unique<trio::KernelController>(*pool_, trio::KernelConfig{});
    TRIO_RETURN_IF_ERROR(kernel_->Mount());
    fleet_ = std::make_unique<trio::FleetWorkload>(*kernel_, Config());
    in_shared_.assign(kTenants, 0);
    return fleet_->Prepare();
  }

  void Teardown() override {
    fleet_.reset();
    kernel_.reset();
    pool_.reset();
  }

  Status Op(Client& c) override {
    const int tenant =
        c.id() + kClients * static_cast<int>(c.op_index() % (kTenants / kClients));
    const trio::WorkloadStats before = fleet_->stats(tenant);
    Status s = c.Time(Call::kFleetOp, [&] { return fleet_->Op(tenant, c.op_index()); });
    if (!s.ok()) {
      return s;
    }
    const trio::WorkloadStats& after = fleet_->stats(tenant);
    if (after.bytes_written > before.bytes_written) {
      c.set_kind(OpKind::kWrite);
      c.AddWrittenBytes(after.bytes_written - before.bytes_written);
    } else if (after.bytes_read > before.bytes_read) {
      c.set_kind(OpKind::kRead);
    } else {
      in_shared_[static_cast<size_t>(tenant)] ^= 1;
    }
    return s;
  }

  trio::KernelController& kernel() override { return *kernel_; }
  uint64_t SyncRefills() override {
    uint64_t total = 0;
    for (int t = 0; t < kTenants; ++t) {
      total += fleet_->tenant(t).leases().sync_refills();
    }
    return total;
  }

  void Check(std::vector<std::string>* problems) override {
    const trio::FleetConfig config = Config();
    trio::ArckFs& reader = fleet_->tenant(0);
    for (int f = 0; f < config.shared_files; ++f) {
      CheckFile(reader, "/fleet_shared/f" + std::to_string(f), /*private_file=*/false,
                problems);
    }
    for (int t = 0; t < kTenants; ++t) {
      const std::string home = "/fleet_t" + std::to_string(t) + "/work";
      const std::string away = "/fleet_shared/t" + std::to_string(t) + "_work";
      const bool shared = in_shared_[static_cast<size_t>(t)] != 0;
      trio::ArckFs& owner = fleet_->tenant(t);
      CheckFile(owner, shared ? away : home, /*private_file=*/true, problems);
      Result<trio::StatInfo> gone = owner.Stat(shared ? home : away);
      if (gone.ok() || !gone.status().Is(trio::ErrorCode::kNotFound)) {
        problems->push_back("tenant " + std::to_string(t) +
                            ": private file also resolves where its last successful rename "
                            "moved it from");
      }
    }
    fleet_.reset();
    kernel_.reset();
    const uint64_t files = static_cast<uint64_t>(config.shared_files + kTenants);
    CheckFinalPool(*pool_, nullptr, files, files * config.file_size, problems);
    pool_.reset();
  }

 private:
  trio::FleetConfig Config() const {
    trio::FleetConfig config;
    config.tenants = kTenants;
    config.seed = seed_;
    return config;
  }

  // A shared file holds only the provisioning payload; a private file holds, block by
  // block, either that or the private-write payload.
  void CheckFile(trio::ArckFs& fs, const std::string& path, bool private_file,
                 std::vector<std::string>* problems) {
    const trio::FleetConfig config = Config();
    std::vector<char> data(config.file_size);
    Result<Fd> fd = fs.Open(path, OpenFlags::ReadOnly());
    if (!fd.ok()) {
      problems->push_back(path + ": open failed: " + fd.status().ToString());
      return;
    }
    Result<size_t> n = fs.Pread(*fd, data.data(), data.size(), 0);
    Result<trio::StatInfo> info = fs.Stat(path);
    (void)fs.Close(*fd);
    if (!n.ok() || *n != config.file_size || !info.ok() || info->size != config.file_size) {
      problems->push_back(path + ": size or read differs from " +
                          std::to_string(config.file_size) + " bytes");
      return;
    }
    for (size_t off = 0; off < data.size(); off += config.io_size) {
      const char* block = data.data() + off;
      if (!AllBytesAre(block, config.io_size, kProvisionFill) &&
          !(private_file && AllBytesAre(block, config.io_size, kPrivateWriteFill))) {
        problems->push_back(path + ": unexpected contents at offset " + std::to_string(off));
        return;
      }
    }
  }

  const uint64_t seed_;
  std::unique_ptr<trio::NvmPool> pool_;
  std::unique_ptr<trio::KernelController> kernel_;
  std::unique_ptr<trio::FleetWorkload> fleet_;
  // Where each tenant's last successful rename left its private file. Written only by
  // the client that owns the tenant.
  std::vector<char> in_shared_;
};

}  // namespace

std::unique_ptr<Workload> MakeFleet(uint64_t seed) {
  return std::make_unique<FleetBench>(seed);
}

}  // namespace perfbench
