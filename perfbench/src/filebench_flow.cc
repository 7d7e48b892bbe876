// Filebench's Varmail and Fileserver flows, driven through one ArckFS LibFS by several
// client threads, each on a private fileset (the paper's fix for Filebench's fileset
// lock, §6.6).
//
// The traffic is the paper's Table 4 as src/workloads' FilebenchConfig encodes it, at
// its default scale: FileCount() files per fileset (Filebench preallocates 80% of them),
// AvgFileSize() bytes a file, written in WriteIoSize() calls, and WriteIoSize()-byte
// appends. Fileserver: 100 files of 2 MiB, 512 KiB writes and appends; Varmail: 1000
// files of 16 KiB, 16 KiB appends.
//
// Unlike FilebenchWorkload, whose appends grow the fileset until the pool fills, these
// flows follow Filebench's delete-then-recreate cycle: a create picks an absent slot and
// a delete an existing one, so the file count stays fixed, and an append picks a file
// that has absorbed fewer than kMaxAppends appends, so the bytes are bounded too. The
// pool is sized for that bound, so no op can run out of space.
//
// Each fileset keeps an oracle of every acknowledged write (segments of fill bytes) and
// checks each whole-file read against it during the run and every file at the end.

#include <algorithm>
#include <cstring>
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

using trio::ArckFs;
using trio::Fd;
using trio::FilebenchConfig;
using trio::FilebenchPersonality;
using trio::OpenFlags;
using trio::Result;

constexpr size_t kReadIo = 1 << 20;  // Filebench iosize: whole-file reads in 1 MiB calls.
// Appends a file absorbs before the flows stop picking it. A file lives about as many
// ops as its fileset has files and takes about one append in that time, so few files
// reach the cap; it bounds the pool, 0.5 GiB for Fileserver.
constexpr int kMaxAppends = 2;

struct FlowShape {
  FlowShape(const char* name, int clients, bool delegation, FilebenchPersonality personality)
      : name(name), clients(clients), delegation(delegation) {
    FilebenchConfig config;
    config.personality = personality;
    slots = config.FileCount();
    prealloc = slots * 4 / 5;
    create_bytes = config.AvgFileSize();
    io_bytes = config.WriteIoSize();
  }

  const char* name;
  int clients;
  bool delegation;
  int slots;            // Fileset slots per client.
  int prealloc;         // Slots holding a file at start.
  size_t create_bytes;  // Size of a freshly created file.
  size_t io_bytes;      // Size of one write call, and of an append.
};

// Varmail: fsync after every write; no delegation.
FlowShape VarmailShape() { return FlowShape("varmail", 4, false, FilebenchPersonality::kVarmail); }
// Fileserver: no fsync; the whole-file writes and reads cross the delegation thresholds
// (writes >= 256 B, reads >= 32 KiB).
FlowShape FileserverShape() {
  return FlowShape("fileserver", 2, true, FilebenchPersonality::kFileserver);
}

size_t MaxFileBytes(const FlowShape& shape) {
  return shape.create_bytes + kMaxAppends * shape.io_bytes;
}

// Random-pick set of slot indices with O(1) insert and erase.
class SlotSet {
 public:
  explicit SlotSet(int slots) : pos_(static_cast<size_t>(slots), -1) {}
  bool empty() const { return members_.empty(); }
  int Pick(trio::Rng& rng) const { return members_[rng.Below(members_.size())]; }
  void Add(int slot) {
    pos_[static_cast<size_t>(slot)] = static_cast<int>(members_.size());
    members_.push_back(slot);
  }
  void Remove(int slot) {
    const int at = pos_[static_cast<size_t>(slot)];
    if (at < 0) {
      return;
    }
    const int last = members_.back();
    members_[static_cast<size_t>(at)] = last;
    pos_[static_cast<size_t>(last)] = at;
    members_.pop_back();
    pos_[static_cast<size_t>(slot)] = -1;
  }

 private:
  std::vector<int> members_;
  std::vector<int> pos_;
};

// What the file system acknowledged for one slot.
struct FileOracle {
  bool exists = false;
  uint64_t size = 0;
  int appends = 0;
  std::vector<std::pair<uint32_t, char>> segments;  // (bytes, fill), in file order.
};

struct Fileset {
  explicit Fileset(int slots) : files(static_cast<size_t>(slots)), present(slots), absent(slots) {}
  std::vector<std::string> paths;
  std::vector<FileOracle> files;
  SlotSet present;
  SlotSet absent;
  // Slots a failed op left in an unknown state: never picked again, and the end check
  // takes whatever the file system holds for them.
  std::vector<int> unknown;
  std::vector<char> write_buf;
  std::vector<char> read_buf;
};

char FillByte(trio::Rng& rng) { return static_cast<char>(1 + rng.Below(255)); }

class FlowWorkload : public Workload {
 public:
  FlowWorkload(const FlowShape& shape, uint64_t seed) : shape_(shape), seed_(seed) {}
  ~FlowWorkload() override { Teardown(); }

  const char* name() const override { return shape_.name; }
  int clients() const override { return shape_.clients; }
  std::string Describe() const override {
    return std::string("clients=") + std::to_string(shape_.clients) +
           " libfs=1 delegation=" + (shape_.delegation ? "2 workers on 1 node" : "off") +
           " fileset/client=" + std::to_string(shape_.prealloc) + " of " +
           std::to_string(shape_.slots) + " slots create=" +
           std::to_string(shape_.create_bytes) + "B write_io=append=" +
           std::to_string(shape_.io_bytes) + "B max_appends=" +
           std::to_string(kMaxAppends) + " pool_pages=" + std::to_string(PoolPages());
  }

  Status Setup() override {
    trio::NumaTopology topology;
    topology.num_nodes = 1;
    topology.delegation_threads_per_node = 2;
    pool_ = std::make_unique<trio::NvmPool>(PoolPages(), trio::NvmMode::kFast, topology);
    TRIO_RETURN_IF_ERROR(trio::Format(*pool_, trio::FormatOptions{}));
    kernel_ = std::make_unique<trio::KernelController>(*pool_, trio::KernelConfig{});
    TRIO_RETURN_IF_ERROR(kernel_->Mount());
    trio::ArckFsConfig config;
    if (shape_.delegation) {
      kernel_->StartDelegation();
      config.use_delegation = true;
    }
    fs_ = std::make_unique<ArckFs>(*kernel_, config);

    trio::Rng rng(seed_ ^ 0x5eedf11e5e7ull);
    sets_.clear();
    for (int c = 0; c < shape_.clients; ++c) {
      const std::string dir = "/c" + std::to_string(c);
      TRIO_RETURN_IF_ERROR(fs_->Mkdir(dir));
      Fileset& set = sets_.emplace_back(shape_.slots);
      set.write_buf.resize(std::max(shape_.create_bytes, shape_.io_bytes));
      set.read_buf.resize(MaxFileBytes(shape_) + kReadIo);
      std::vector<int> order;
      for (int s = 0; s < shape_.slots; ++s) {
        set.paths.push_back(dir + "/f" + std::to_string(s));
        order.push_back(s);
      }
      for (int i = shape_.slots - 1; i > 0; --i) {
        std::swap(order[static_cast<size_t>(i)], order[rng.Below(static_cast<uint64_t>(i) + 1)]);
      }
      for (int i = 0; i < shape_.slots; ++i) {
        const int slot = order[static_cast<size_t>(i)];
        if (i >= shape_.prealloc) {
          set.absent.Add(slot);
          continue;
        }
        const char fill = FillByte(rng);
        std::fill(set.write_buf.begin(), set.write_buf.end(), fill);
        TRIO_ASSIGN_OR_RETURN(Fd fd, fs_->Open(set.paths[static_cast<size_t>(slot)],
                                               OpenFlags::CreateTrunc()));
        Status written = trio::OkStatus();
        for (size_t done = 0; written.ok() && done < shape_.create_bytes;
             done += shape_.io_bytes) {
          const size_t len = std::min(shape_.io_bytes, shape_.create_bytes - done);
          written = fs_->Write(fd, set.write_buf.data() + done, len).status();
        }
        TRIO_RETURN_IF_ERROR(fs_->Close(fd));
        TRIO_RETURN_IF_ERROR(written);
        set.files[static_cast<size_t>(slot)] =
            FileOracle{true, shape_.create_bytes, 0,
                       {{static_cast<uint32_t>(shape_.create_bytes), fill}}};
        set.present.Add(slot);
      }
    }
    return trio::OkStatus();
  }

  void Teardown() override {
    fs_.reset();
    kernel_.reset();
    pool_.reset();
  }

  Status Op(Client& c) override {
    Fileset& set = sets_[static_cast<size_t>(c.id())];
    if (set.present.empty() || set.absent.empty()) {
      return Status(trio::ErrorCode::kInternal, "fileset exhausted by earlier failures");
    }
    trio::Rng& rng = c.rng();
    if (!shape_.delegation) {
      // Varmail: deletefile; createfile + appendfilerand + fsync; openfile + readwholefile
      // + appendfilerand + fsync; openfile + readwholefile.
      TRIO_RETURN_IF_ERROR(Delete(c, set, set.present.Pick(rng)));
      const int fresh = set.absent.Pick(rng);
      TRIO_RETURN_IF_ERROR(Create(c, set, fresh, /*fsync=*/true));
      TRIO_RETURN_IF_ERROR(ReadThenAppend(c, set, Appendable(set, rng, fresh)));
      return ReadWhole(c, set, set.present.Pick(rng));
    }
    // Fileserver: createfile + writewholefile; openfile + appendfilerand; openfile +
    // readwholefile; deletefile; statfile.
    const int fresh = set.absent.Pick(rng);
    TRIO_RETURN_IF_ERROR(Create(c, set, fresh, /*fsync=*/false));
    TRIO_RETURN_IF_ERROR(Append(c, set, Appendable(set, rng, fresh)));
    TRIO_RETURN_IF_ERROR(ReadWhole(c, set, set.present.Pick(rng)));
    TRIO_RETURN_IF_ERROR(Delete(c, set, set.present.Pick(rng)));
    return StatFile(c, set, set.present.Pick(rng));
  }

  trio::KernelController& kernel() override { return *kernel_; }
  uint64_t SyncRefills() override { return fs_->leases().sync_refills(); }

  void Check(std::vector<std::string>* problems) override {
    uint64_t files = 0;
    uint64_t bytes = 0;
    for (Fileset& set : sets_) {
      for (int slot : set.unknown) {
        Result<trio::StatInfo> info = fs_->Stat(set.paths[static_cast<size_t>(slot)]);
        if (info.ok()) {
          ++files;
          bytes += info->size;
        }
      }
      for (size_t slot = 0; slot < set.files.size(); ++slot) {
        const FileOracle& file = set.files[slot];
        const std::string& path = set.paths[slot];
        if (std::find(set.unknown.begin(), set.unknown.end(), static_cast<int>(slot)) !=
            set.unknown.end()) {
          continue;
        }
        Result<trio::StatInfo> info = fs_->Stat(path);
        if (!file.exists) {
          if (info.ok() || !info.status().Is(trio::ErrorCode::kNotFound)) {
            problems->push_back(path + ": deleted file still resolves");
          }
          continue;
        }
        ++files;
        bytes += file.size;
        if (!info.ok() || info->size != file.size) {
          problems->push_back(path + ": stat disagrees with the acknowledged size");
          continue;
        }
        std::string wrong = ReadAndCompare(set, static_cast<int>(slot));
        if (!wrong.empty()) {
          problems->push_back(wrong);
        }
      }
    }
    fs_.reset();
    kernel_.reset();
    CheckFinalPool(*pool_, nullptr, files, bytes, problems);
    pool_.reset();
  }

 private:
  size_t PoolPages() const {
    // Every fileset at its bound (the file count can exceed prealloc by one between a
    // fileserver create and its delete), an index page per file, plus room for the
    // metadata region and the LibFS lease caches.
    const size_t files = static_cast<size_t>(shape_.clients) * (shape_.prealloc + 1);
    const size_t pages_per_file = (MaxFileBytes(shape_) + trio::kPageSize - 1) / trio::kPageSize;
    return files * (pages_per_file + 2) + 8192;
  }

  void MarkUnknown(Fileset& set, int slot) {
    set.present.Remove(slot);
    set.absent.Remove(slot);
    set.unknown.push_back(slot);
  }

  // A present file that may still grow; falls back to the file this op just created.
  int Appendable(Fileset& set, trio::Rng& rng, int fallback) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const int slot = set.present.Pick(rng);
      if (set.files[static_cast<size_t>(slot)].appends < kMaxAppends) {
        return slot;
      }
    }
    return fallback;
  }

  Status Delete(Client& c, Fileset& set, int slot) {
    Status s = c.Time(Call::kUnlink, [&] { return fs_->Unlink(set.paths[slot]); });
    if (!s.ok()) {
      MarkUnknown(set, slot);
      return s;
    }
    set.files[static_cast<size_t>(slot)] = FileOracle{};
    set.present.Remove(slot);
    set.absent.Add(slot);
    return s;
  }

  // Writes `bytes` of one fill byte at the end of the open file in io_bytes calls
  // (fsync after, for Varmail), timed as one write step.
  Status WriteStep(Client& c, Fileset& set, int slot, Fd fd, size_t bytes, bool fsync) {
    const char fill = FillByte(c.rng());
    std::memset(set.write_buf.data(), fill, bytes);
    const int64_t start = NowNs();
    Status s = trio::OkStatus();
    for (size_t done = 0; s.ok() && done < bytes; done += shape_.io_bytes) {
      const size_t len = std::min(shape_.io_bytes, bytes - done);
      Result<size_t> n = c.Time(
          Call::kWrite, [&] { return fs_->Write(fd, set.write_buf.data() + done, len); });
      s = n.status();
      if (s.ok() && *n != len) {
        s = Status(trio::ErrorCode::kIo, "short write");
      }
    }
    if (s.ok() && fsync) {
      s = c.Time(Call::kFsync, [&] { return fs_->Fsync(fd); });
    }
    if (!s.ok()) {
      return s;
    }
    c.RecordWrite(NowNs() - start);
    c.AddWrittenBytes(bytes);
    FileOracle& file = set.files[static_cast<size_t>(slot)];
    file.size += bytes;
    file.segments.emplace_back(static_cast<uint32_t>(bytes), fill);
    return s;
  }

  Status CloseFile(Client& c, Fd fd) {
    return c.Time(Call::kClose, [&] { return fs_->Close(fd); });
  }

  Status Create(Client& c, Fileset& set, int slot, bool fsync) {
    OpenFlags flags = OpenFlags::CreateRw();
    flags.exclusive = true;
    Result<Fd> fd = c.Time(Call::kCreate, [&] { return fs_->Open(set.paths[slot], flags); });
    if (!fd.ok()) {
      MarkUnknown(set, slot);
      return fd.status();
    }
    set.files[static_cast<size_t>(slot)] = FileOracle{true, 0, 0, {}};
    Status s = WriteStep(c, set, slot, *fd, shape_.create_bytes, fsync);
    Status closed = CloseFile(c, *fd);
    if (!s.ok() || !closed.ok()) {
      MarkUnknown(set, slot);
      return s.ok() ? closed : s;
    }
    set.absent.Remove(slot);
    set.present.Add(slot);
    return s;
  }

  // Reads the whole open file in kReadIo calls into read_buf, timed as one read step,
  // and checks it against the oracle.
  Status ReadStep(Client& c, Fileset& set, int slot, Fd fd) {
    const int64_t start = NowNs();
    uint64_t offset = 0;
    while (true) {
      Result<size_t> n = c.Time(Call::kRead, [&] {
        return fs_->Pread(fd, set.read_buf.data() + offset, kReadIo, offset);
      });
      if (!n.ok()) {
        return n.status();
      }
      offset += *n;
      if (*n < kReadIo) {
        break;
      }
    }
    c.RecordRead(NowNs() - start);
    std::string wrong = Compare(set, slot, offset);
    if (!wrong.empty()) {
      c.WrongResult(wrong);
    }
    return trio::OkStatus();
  }

  Status ReadThenAppend(Client& c, Fileset& set, int slot) {
    OpenFlags flags = OpenFlags::ReadWrite();
    flags.append = true;
    Result<Fd> fd = c.Time(Call::kOpen, [&] { return fs_->Open(set.paths[slot], flags); });
    if (!fd.ok()) {
      MarkUnknown(set, slot);
      return fd.status();
    }
    Status s = ReadStep(c, set, slot, *fd);
    if (s.ok()) {
      s = WriteStep(c, set, slot, *fd, shape_.io_bytes, /*fsync=*/true);
    }
    Status closed = CloseFile(c, *fd);
    if (!s.ok() || !closed.ok()) {
      MarkUnknown(set, slot);
      return s.ok() ? closed : s;
    }
    ++set.files[static_cast<size_t>(slot)].appends;
    return s;
  }

  Status Append(Client& c, Fileset& set, int slot) {
    OpenFlags flags = OpenFlags::ReadWrite();
    flags.append = true;
    Result<Fd> fd = c.Time(Call::kOpen, [&] { return fs_->Open(set.paths[slot], flags); });
    if (!fd.ok()) {
      MarkUnknown(set, slot);
      return fd.status();
    }
    Status s = WriteStep(c, set, slot, *fd, shape_.io_bytes, /*fsync=*/false);
    Status closed = CloseFile(c, *fd);
    if (!s.ok() || !closed.ok()) {
      MarkUnknown(set, slot);
      return s.ok() ? closed : s;
    }
    ++set.files[static_cast<size_t>(slot)].appends;
    return s;
  }

  Status ReadWhole(Client& c, Fileset& set, int slot) {
    Result<Fd> fd = c.Time(Call::kOpen, [&] {
      return fs_->Open(set.paths[slot], OpenFlags::ReadOnly());
    });
    if (!fd.ok()) {
      return fd.status();
    }
    Status s = ReadStep(c, set, slot, *fd);
    Status closed = CloseFile(c, *fd);
    return s.ok() ? closed : s;
  }

  Status StatFile(Client& c, Fileset& set, int slot) {
    Result<trio::StatInfo> info =
        c.Time(Call::kStat, [&] { return fs_->Stat(set.paths[slot]); });
    if (!info.ok()) {
      return info.status();
    }
    if (info->size != set.files[static_cast<size_t>(slot)].size) {
      c.WrongResult(set.paths[static_cast<size_t>(slot)] + ": stat size " +
                    std::to_string(info->size) + " != acknowledged " +
                    std::to_string(set.files[static_cast<size_t>(slot)].size));
    }
    return trio::OkStatus();
  }

  // Empty when the first `got` bytes of read_buf are exactly the slot's acknowledged
  // contents.
  std::string Compare(Fileset& set, int slot, uint64_t got) {
    const FileOracle& file = set.files[static_cast<size_t>(slot)];
    const std::string& path = set.paths[static_cast<size_t>(slot)];
    if (got != file.size) {
      return path + ": read " + std::to_string(got) + " bytes, acknowledged " +
             std::to_string(file.size);
    }
    uint64_t offset = 0;
    for (const auto& [len, fill] : file.segments) {
      if (!AllBytesAre(set.read_buf.data() + offset, len, fill)) {
        return path + ": contents differ at segment offset " + std::to_string(offset);
      }
      offset += len;
    }
    return "";
  }

  std::string ReadAndCompare(Fileset& set, int slot) {
    const std::string& path = set.paths[static_cast<size_t>(slot)];
    Result<Fd> fd = fs_->Open(path, OpenFlags::ReadOnly());
    if (!fd.ok()) {
      return path + ": open failed: " + fd.status().ToString();
    }
    Result<size_t> n = fs_->Pread(*fd, set.read_buf.data(), set.read_buf.size(), 0);
    (void)fs_->Close(*fd);
    if (!n.ok()) {
      return path + ": read failed: " + n.status().ToString();
    }
    return Compare(set, slot, *n);
  }

  const FlowShape shape_;
  const uint64_t seed_;
  std::unique_ptr<trio::NvmPool> pool_;
  std::unique_ptr<trio::KernelController> kernel_;
  std::unique_ptr<ArckFs> fs_;
  std::vector<Fileset> sets_;
};

}  // namespace

std::unique_ptr<Workload> MakeVarmail(uint64_t seed) {
  return std::make_unique<FlowWorkload>(VarmailShape(), seed);
}

std::unique_ptr<Workload> MakeFileserver(uint64_t seed) {
  return std::make_unique<FlowWorkload>(FileserverShape(), seed);
}

}  // namespace perfbench
