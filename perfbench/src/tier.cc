// Tier: the NVM absorb tier with a dataset 4x the NVM pool, background digestion to the
// simulated slow backend, and the LibFS promote cache (the bench_tier configuration).
// Two clients share one LibFS. Each op is a Zipfian(0.99) 4 KiB read over a hot set
// strided across the whole dataset (every 8th page), so every hot page sits behind a
// tier entry at start; one op in five is instead a 4 KiB write to such a page, which
// promotes a digested page back to NVM, and the file is then released so digestion can
// take it again.
//
// Each client owns the files of its parity and draws its ops from their hot pages only.
// Two threads of one LibFS reading a file while the other writes and releases it abort
// in ArckFs::LinkDataPage ("index chain does not cover page"), a defect of src/libfs
// this benchmark leaves visible by name rather than by crashing every run.
//
// The oracle holds each page's last acknowledged fill byte; only the owning client
// writes a page, so the oracle's order is the file system's, and every read, promote
// cache hit or not, is checked against it.

#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/core/core_state.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"
#include "src/nvm/nvm.h"
#include "src/sim/backend.h"

namespace perfbench {
namespace {

using trio::Fd;
using trio::OpenFlags;
using trio::Result;
using trio::kPageSize;

constexpr int kClients = 2;
constexpr size_t kPoolPages = 1 << 12;  // 16 MiB of NVM.
constexpr int kFiles = 256;
constexpr uint64_t kFilePages = 64;     // 256 KiB per file: 16384 pages, 4x the pool.
constexpr uint64_t kDatasetPages = kFiles * kFilePages;
constexpr uint64_t kHotPages = 2048;    // Every 8th dataset page.
constexpr uint64_t kHotPagesPerFile = kFilePages * kHotPages / kDatasetPages;
constexpr uint64_t kHotStride = kDatasetPages / kHotPages;
constexpr int kWriteOneIn = 5;
constexpr size_t kPromoteCacheSlots = 1536;
constexpr double kHighWatermark = 0.55;
constexpr double kLowWatermark = 0.35;
constexpr char kInitialFill = 'T';

class TierBench : public Workload {
 public:
  TierBench() : zipf_(kHotPages / kClients, 0.99) {
    for (int f = 0; f < kFiles; ++f) {
      paths_.push_back("/tier/f" + std::to_string(f));
    }
  }
  ~TierBench() override { Teardown(); }

  const char* name() const override { return "tier"; }
  int clients() const override { return kClients; }
  std::string Describe() const override {
    return "clients=" + std::to_string(kClients) + " libfs=1 pool_pages=" +
           std::to_string(kPoolPages) + " dataset_pages=" + std::to_string(kDatasetPages) +
           " hot_pages=" + std::to_string(kHotPages) + " (stride " +
           std::to_string(kHotStride) + ", client k owns files f%" + std::to_string(kClients) +
           "==k) write=1/" + std::to_string(kWriteOneIn) +
           " promote_cache_slots=" + std::to_string(kPromoteCacheSlots) +
           " watermarks=" + std::to_string(kHighWatermark) + "/" +
           std::to_string(kLowWatermark) + " backend_ns_per_page=1500r/3000w";
  }

  Status Setup() override {
    pool_ = std::make_unique<trio::NvmPool>(kPoolPages, trio::NvmMode::kFast);
    trio::FormatOptions format;
    format.max_inodes = 4096;
    TRIO_RETURN_IF_ERROR(trio::Format(*pool_, format));
    backend_ = std::make_unique<trio::SlowBackend>(
        trio::BackendCostModel{/*read_ns_per_page=*/1500, /*write_ns_per_page=*/3000});
    trio::KernelConfig config;
    config.tier.backend = backend_.get();
    config.tier.high_watermark = kHighWatermark;
    config.tier.low_watermark = kLowWatermark;
    config.tier.batch_pages = 64;
    config.tier.start_digestion = true;
    config.tier.scan_interval_ms = 1;
    kernel_ = std::make_unique<trio::KernelController>(*pool_, config);
    TRIO_RETURN_IF_ERROR(kernel_->Mount());
    trio::ArckFsConfig fs_config;
    fs_config.promote_cache_slots = kPromoteCacheSlots;
    fs_ = std::make_unique<trio::ArckFs>(*kernel_, fs_config);

    TRIO_RETURN_IF_ERROR(fs_->Mkdir("/tier"));
    // Register /tier with the kernel first: a file's release reconciles it through its
    // parent, and unreconciled files are invisible to digestion.
    TRIO_RETURN_IF_ERROR(fs_->Commit("/tier"));
    const std::vector<char> block(kPageSize, kInitialFill);
    for (const std::string& path : paths_) {
      TRIO_ASSIGN_OR_RETURN(Fd fd, fs_->Open(path, OpenFlags::CreateRw()));
      for (uint64_t p = 0; p < kFilePages; ++p) {
        Result<size_t> n = fs_->Pwrite(fd, block.data(), kPageSize, p * kPageSize);
        if (!n.ok()) {
          (void)fs_->Close(fd);
          return n.status();
        }
      }
      TRIO_RETURN_IF_ERROR(fs_->Close(fd));
      TRIO_RETURN_IF_ERROR(fs_->ReleaseFile(path));
    }
    // Start from the steady state the background thread maintains, not mid-stall.
    while (kernel_->NvmOccupancy() > kLowWatermark && kernel_->DigestNow(64) > 0) {
    }
    page_fill_.assign(kDatasetPages, kInitialFill);
    buffers_.assign(kClients, std::vector<char>(kPageSize));
    return trio::OkStatus();
  }

  void Teardown() override {
    fs_.reset();
    kernel_.reset();
    backend_.reset();
    pool_.reset();
  }

  Status Op(Client& c) override {
    trio::Rng& rng = c.rng();
    const bool write = rng.Below(kWriteOneIn) == 0;
    // The client's rank-th hottest page: hot pages fill the client's files in order.
    const uint64_t rank = zipf_.Next(rng);
    const uint64_t file = (rank / kHotPagesPerFile) * kClients + static_cast<uint64_t>(c.id());
    const uint64_t page = (rank % kHotPagesPerFile) * kHotStride;
    const uint64_t global = file * kFilePages + page;
    const std::string& path = paths_[file];
    const uint64_t offset = page * kPageSize;
    char* buf = buffers_[static_cast<size_t>(c.id())].data();

    if (!write) {
      c.set_kind(OpKind::kRead);
      const char want = page_fill_[global];
      Result<Fd> fd =
          c.Time(Call::kOpen, [&] { return fs_->Open(path, OpenFlags::ReadOnly()); });
      if (!fd.ok()) {
        return fd.status();
      }
      Result<size_t> n =
          c.Time(Call::kRead, [&] { return fs_->Pread(*fd, buf, kPageSize, offset); });
      Status closed = c.Time(Call::kClose, [&] { return fs_->Close(*fd); });
      if (!n.ok()) {
        return n.status();
      }
      if (*n != kPageSize) {
        c.WrongResult(path + ": short read of a dataset page");
      } else if (!AllBytesAre(buf, kPageSize, want)) {
        c.WrongResult(path + ": page " + std::to_string(page) +
                      " read back other bytes than its last acknowledged write");
      }
      return closed;
    }

    c.set_kind(OpKind::kWrite);
    const char fill = static_cast<char>(1 + rng.Below(255));
    std::memset(buf, fill, kPageSize);
    Result<Fd> fd =
        c.Time(Call::kOpen, [&] { return fs_->Open(path, OpenFlags::ReadWrite()); });
    if (!fd.ok()) {
      return fd.status();
    }
    Result<size_t> n =
        c.Time(Call::kWrite, [&] { return fs_->Pwrite(*fd, buf, kPageSize, offset); });
    if (n.ok() && *n == kPageSize) {
      page_fill_[global] = fill;
    }
    Status closed = c.Time(Call::kClose, [&] { return fs_->Close(*fd); });
    if (!n.ok()) {
      return n.status();
    }
    if (*n != kPageSize) {
      return Status(trio::ErrorCode::kIo, "short write");
    }
    c.AddWrittenBytes(kPageSize);
    if (!closed.ok()) {
      return closed;
    }
    return c.Time(Call::kRelease, [&] { return fs_->ReleaseFile(path); });
  }

  trio::KernelController& kernel() override { return *kernel_; }
  uint64_t SyncRefills() override { return fs_->leases().sync_refills(); }

  void Check(std::vector<std::string>* problems) override {
    std::vector<char> data(kFilePages * kPageSize);
    for (int f = 0; f < kFiles; ++f) {
      const std::string& path = paths_[static_cast<size_t>(f)];
      Result<Fd> fd = fs_->Open(path, OpenFlags::ReadOnly());
      if (!fd.ok()) {
        problems->push_back(path + ": open failed: " + fd.status().ToString());
        continue;
      }
      Result<size_t> n = fs_->Pread(*fd, data.data(), data.size(), 0);
      (void)fs_->Close(*fd);
      if (!n.ok() || *n != data.size()) {
        problems->push_back(path + ": whole-file read failed or came back short");
        continue;
      }
      for (uint64_t p = 0; p < kFilePages; ++p) {
        const char want = page_fill_[static_cast<uint64_t>(f) * kFilePages + p];
        if (!AllBytesAre(data.data() + p * kPageSize, kPageSize, want)) {
          problems->push_back(path + ": page " + std::to_string(p) +
                              " differs from its last acknowledged write");
          break;
        }
      }
    }
    fs_.reset();
    kernel_.reset();
    const std::unordered_map<uint64_t, trio::Ino> owners = backend_->SlotOwners();
    CheckFinalPool(*pool_, &owners, kFiles, kDatasetPages * kPageSize, problems);
    backend_.reset();
    pool_.reset();
  }

 private:
  trio::Zipfian zipf_;  // Read-only after construction; shared by the clients.
  std::vector<std::string> paths_;
  std::unique_ptr<trio::NvmPool> pool_;
  std::unique_ptr<trio::SlowBackend> backend_;
  std::unique_ptr<trio::KernelController> kernel_;
  std::unique_ptr<trio::ArckFs> fs_;
  std::vector<char> page_fill_;  // Last acknowledged fill byte of every dataset page.
  std::vector<std::vector<char>> buffers_;
};

}  // namespace

std::unique_ptr<Workload> MakeTier() { return std::make_unique<TierBench>(); }

}  // namespace perfbench
