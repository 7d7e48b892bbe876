// Builds any of the evaluated file systems over a fresh pool — the single entry point the
// conformance tests, workload generators, and benchmark binaries share, so every system
// runs the same calls on the same substrate.

#ifndef SRC_BASELINES_FS_FACTORY_H_
#define SRC_BASELINES_FS_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/baselines.h"
#include "src/kernel/controller.h"
#include "src/libfs/arckfs.h"

namespace trio {

struct FsInstance {
  std::unique_ptr<NvmPool> pool;
  std::unique_ptr<KernelController> kernel;  // Trio-based systems only.
  std::unique_ptr<FsInterface> fs;

  // Extra LibFS attached to the same kernel (sharing experiments). Trio systems only.
  std::unique_ptr<FsInterface> MakeSecondLibFs();
};

struct FsFactoryOptions {
  size_t pool_pages = 1 << 15;  // 128 MiB.
  int numa_nodes = 1;
  int delegation_threads_per_node = 2;
  bool arckfs_delegation = false;  // "ArckFS" vs "ArckFS-nd" configurations.
  // 0 = DelegationConfig default (§4.5). Nonzero values let benches sweep the threshold.
  size_t delegate_write_threshold = 0;
  uint64_t vfs_trap_cost_ns = 0;   // Modeled syscall cost for kernel baselines.
};

// Names: "ArckFS", "ArckFS-nd", "KVFS", "FPFS",
//        "ext4", "PMFS", "NOVA", "WineFS", "OdinFS", "SplitFS", "Strata".
FsInstance MakeFs(const std::string& name, const FsFactoryOptions& options = {});

// Every evaluated generic POSIX-like system (excludes KVFS, whose interface differs).
std::vector<std::string> AllPosixFsNames();
// The kernel-FS baselines only.
std::vector<std::string> BaselineFsNames();

}  // namespace trio

#endif  // SRC_BASELINES_FS_FACTORY_H_
