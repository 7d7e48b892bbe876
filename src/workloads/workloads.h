// Workload generators reproducing the paper's benchmarks (§6.1):
//
//   FioWorkload       — fio [8]: per-thread private file, sequential/random 4 KiB or
//                       2 MiB reads/writes ("each thread accesses a 1 GiB private file").
//   FxMarkWorkload    — FxMark [39] microbenchmarks; Table 2's metadata set (DWTL,
//                       MRP{L,M,H}, MRD{L,M}, MWC{L,M}, MWU{L,M}, MWRL, MWRM) plus the
//                       DRBL/DRBM data ops used in §6.4's data-scalability summary.
//   FilebenchWorkload — Filebench [7] personalities with Table 4's configurations:
//                       Fileserver, Webserver, Webproxy, Varmail (+ the Webproxy KV
//                       variant for KVFS and the depth-20 Varmail variant for FPFS).
//
// Every generator runs real operations against any FsInterface; sizes scale down by
// `scale` so functional runs fit the emulated pool (the sim layer uses the paper's full
// parameters — see bench/).

#ifndef SRC_WORKLOADS_WORKLOADS_H_
#define SRC_WORKLOADS_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/libfs/fs_interface.h"

namespace trio {

class OpRingEngine;
class ArckFs;
class KernelController;

struct WorkloadStats {
  uint64_t ops = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

// ---------------------------------------------------------------------------
// fio
// ---------------------------------------------------------------------------

struct FioConfig {
  uint64_t file_size = 4 << 20;  // Paper: 1 GiB; scaled for the emulated pool.
  size_t block_size = 4096;      // 4 KiB or 2 MiB.
  bool is_read = true;
  bool random = false;
  uint64_t seed = 1;
  // Route writes through the async op ring in bursts of `ring_burst` SQEs (one drainer
  // wake per burst). Reads stay synchronous — the ring has no read op. `ring` must be
  // the engine of the same LibFS instance as `fs_` and outlive the workload.
  bool use_ring = false;
  size_t ring_burst = 16;
  OpRingEngine* ring = nullptr;
};

class FioWorkload {
 public:
  FioWorkload(FsInterface& fs, FioConfig config) : fs_(fs), config_(config) {}

  // Creates and fills each thread's private file.
  Status Prepare(int threads);
  // Executes `ops` block operations on thread `thread`'s file.
  Result<WorkloadStats> Run(int thread, uint64_t ops);

 private:
  std::string PathFor(int thread) const { return "/fio_t" + std::to_string(thread); }

  FsInterface& fs_;
  FioConfig config_;
};

// ---------------------------------------------------------------------------
// FxMark
// ---------------------------------------------------------------------------

enum class FxMarkBench {
  kDWTL,  // Reduce a private file's size by 4K.
  kMRPL,  // Open a private file in five-depth dirs.
  kMRPM,  // Open a random file in a shared five-depth dir.
  kMRPH,  // Open the same file.
  kMRDL,  // Enumerate a private directory.
  kMRDM,  // Enumerate a shared directory.
  kMWCL,  // Create an empty file in a private dir.
  kMWCM,  // Create in a shared dir.
  kMWUL,  // Unlink in a private dir.
  kMWUM,  // Unlink in a shared dir.
  kMWRL,  // Rename a private file in a private dir.
  kMWRM,  // Move a private file to a shared dir.
  kDRBL,  // Read a private block (data scalability).
  kDRBM,  // Read a block of a shared file.
};

const char* FxMarkBenchName(FxMarkBench bench);
// Is this a "shared resource" benchmark (the -M/-H variants)?
bool FxMarkShared(FxMarkBench bench);

class FxMarkWorkload {
 public:
  FxMarkWorkload(FsInterface& fs, FxMarkBench bench, uint64_t seed = 7)
      : fs_(fs), bench_(bench), seed_(seed) {}

  Status Prepare(int threads);
  // One benchmark iteration on behalf of `thread`; `i` is the iteration number.
  Status Op(int thread, uint64_t i);

 private:
  std::string PrivateDir(int thread) const { return "/fx_p" + std::to_string(thread); }

  FsInterface& fs_;
  FxMarkBench bench_;
  uint64_t seed_;
  int threads_ = 0;
  std::vector<uint64_t> truncate_sizes_;   // DWTL state per thread.
  std::vector<std::string> deep_private_;  // Per-thread five-depth target (MRPL).
  std::string shared_deep_;                // Shared five-depth directory (MRPM/MRPH).
};

// ---------------------------------------------------------------------------
// Filebench
// ---------------------------------------------------------------------------

enum class FilebenchPersonality { kFileserver, kWebserver, kWebproxy, kVarmail };

const char* FilebenchName(FilebenchPersonality personality);

// Table 4 configuration, with a linear scale factor applied to file counts and sizes so
// functional runs fit the pool. Paper values (scale = 1.0): Fileserver 10K x 2MB 1:2 R/W;
// Webserver 20K x 4MB(sic; modeled as 64KB medium files) 10:1; Webproxy 100K small files
// 5:1; Varmail 100K x 16KB 1:1 with fsync.
struct FilebenchConfig {
  FilebenchPersonality personality = FilebenchPersonality::kFileserver;
  double scale = 0.01;
  int dir_depth = 1;  // Varmail's FPFS variant uses 20 (§6.6).
  uint64_t seed = 11;

  int FileCount() const;
  uint64_t AvgFileSize() const;
  size_t ReadIoSize() const;
  size_t WriteIoSize() const;
};

class FilebenchWorkload {
 public:
  // Each thread gets a private fileset (the paper's fix for Filebench's fileset-lock
  // scalability bug, §6.6).
  FilebenchWorkload(FsInterface& fs, FilebenchConfig config) : fs_(fs), config_(config) {}

  Status Prepare(int threads);
  // One personality "transaction" for `thread`. Returns bytes moved.
  Result<WorkloadStats> Op(int thread, uint64_t i);

 private:
  std::string FilesetDir(int thread) const;
  std::string FilePath(int thread, uint64_t index) const;

  FsInterface& fs_;
  FilebenchConfig config_;
  int threads_ = 0;
  std::vector<Rng> rngs_;
  std::vector<uint64_t> next_new_file_;
  std::vector<std::string> deep_dirs_;  // dir_depth > 1 variant.
};

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

// Multi-tenant fleet over ONE kernel controller: `tenants` LibFS instances sharing a
// Zipfian-skewed pool of read-mostly files, each tenant also owning a private working
// file, with occasional renames between the private and shared namespaces. Built to
// drive the sharded controller: shared-file reads hit the lock-free grant fast path,
// private writes churn leases in the owner's shard, and the renames force two-phase
// cross-shard acquisitions plus write-map revocation of every reader of the shared
// directory.
struct FleetConfig {
  int tenants = 64;
  int shared_files = 128;   // Zipfian-shared pool under /fleet_shared.
  double zipf_theta = 0.99;
  uint64_t file_size = 8192;  // Bytes per file (shared and private).
  size_t io_size = 4096;
  // Op mix, per mille: remainder is Zipfian shared-file reads.
  int write_permille = 100;   // Pwrite into the tenant's private file.
  int rename_permille = 20;   // Move the private file across the shared/private boundary.
  uint64_t seed = 17;
  uint32_t uid = 0;           // All tenants share a uid so shared files stay readable.
  // Route private writes through each tenant's op ring (SubmitBurst of ring_burst
  // pwrites per op) instead of synchronous Pwrite.
  bool use_ring = false;
  size_t ring_burst = 8;
};

class FleetWorkload {
 public:
  FleetWorkload(KernelController& kernel, FleetConfig config = {});
  ~FleetWorkload();  // Unregisters every tenant.

  // Registers the tenants and builds the shared + private trees.
  Status Prepare();
  // One fleet operation on behalf of `tenant` (0-based). Thread-safe across distinct
  // tenants; a single tenant must be driven from one thread at a time.
  Status Op(int tenant, uint64_t i);

  int tenants() const { return config_.tenants; }
  ArckFs& tenant(int t) { return *tenants_[static_cast<size_t>(t)]; }
  const WorkloadStats& stats(int t) const { return per_tenant_[static_cast<size_t>(t)].stats; }

 private:
  struct TenantState {
    Rng rng{0};
    WorkloadStats stats;
    bool private_in_shared = false;  // Where the rename left the private file.
  };

  std::string SharedPath(uint64_t rank) const;
  std::string PrivateHome(int tenant) const;

  KernelController& kernel_;
  FleetConfig config_;
  std::vector<std::unique_ptr<ArckFs>> tenants_;
  std::vector<TenantState> per_tenant_;
  std::unique_ptr<Zipfian> zipf_;
};

}  // namespace trio

#endif  // SRC_WORKLOADS_WORKLOADS_H_
