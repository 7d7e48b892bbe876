#include "src/baselines/fs_factory.h"

#include "src/core/core_state.h"
#include "src/fpfs/fpfs.h"
#include "src/kvfs/kvfs.h"

namespace trio {

std::unique_ptr<FsInterface> FsInstance::MakeSecondLibFs() {
  TRIO_CHECK(kernel != nullptr) << "second LibFS requires a Trio-based instance";
  return std::make_unique<ArckFs>(*kernel);
}

namespace {

FsInstance MakeTrio(const std::string& name, const FsFactoryOptions& options) {
  FsInstance out;
  NumaTopology topology;
  topology.num_nodes = options.numa_nodes;
  topology.delegation_threads_per_node = options.delegation_threads_per_node;
  out.pool = std::make_unique<NvmPool>(options.pool_pages, NvmMode::kFast, topology);
  FormatOptions format;
  format.max_inodes = 1 << 18;
  format.num_nodes = options.numa_nodes;
  TRIO_CHECK_OK(Format(*out.pool, format));
  KernelConfig config;
  if (options.delegate_write_threshold != 0) {
    config.delegation.write_threshold = options.delegate_write_threshold;
  }
  out.kernel = std::make_unique<KernelController>(*out.pool, config);
  TRIO_CHECK_OK(out.kernel->Mount());

  ArckFsConfig fs_config;
  if (name == "ArckFS" && options.arckfs_delegation) {
    out.kernel->StartDelegation();
    fs_config.use_delegation = true;
  }
  if (name == "ArckFS" || name == "ArckFS-nd") {
    out.fs = std::make_unique<ArckFs>(*out.kernel, fs_config);
  } else if (name == "FPFS") {
    out.fs = std::make_unique<FpFs>(*out.kernel, fs_config);
  } else if (name == "KVFS") {
    out.fs = std::make_unique<KvFs>(*out.kernel, fs_config);
  } else {
    TRIO_CHECK(false) << "unknown Trio fs " << name;
  }
  return out;
}

FsInstance MakeBaseline(const std::string& name, const FsFactoryOptions& options) {
  FsInstance out;
  NumaTopology topology;
  topology.num_nodes = options.numa_nodes;
  topology.delegation_threads_per_node = options.delegation_threads_per_node;
  out.pool = std::make_unique<NvmPool>(options.pool_pages, NvmMode::kFast, topology);
  KernelFsOptions engine_options;
  engine_options.max_inodes = 1 << 18;
  VfsConfig vfs;
  vfs.trap_cost_ns = options.vfs_trap_cost_ns;

  if (name == "SplitFS") {
    engine_options = BaselineOptions(BaselineKind::kExt4);
    engine_options.max_inodes = 1 << 18;
    TRIO_CHECK_OK(SimpleKernelFs::Format(*out.pool, engine_options));
    out.fs = std::make_unique<SplitFsLike>(*out.pool, vfs);
    return out;
  }
  if (name == "Strata") {
    engine_options = BaselineOptions(BaselineKind::kExt4);
    engine_options.max_inodes = 1 << 18;
    TRIO_CHECK_OK(SimpleKernelFs::Format(*out.pool, engine_options));
    out.fs = std::make_unique<StrataLike>(*out.pool, vfs);
    return out;
  }

  BaselineKind kind;
  if (name == "ext4") {
    kind = BaselineKind::kExt4;
  } else if (name == "PMFS") {
    kind = BaselineKind::kPmfs;
  } else if (name == "NOVA") {
    kind = BaselineKind::kNova;
  } else if (name == "WineFS") {
    kind = BaselineKind::kWinefs;
  } else if (name == "OdinFS") {
    kind = BaselineKind::kOdinfs;
  } else {
    TRIO_CHECK(false) << "unknown baseline " << name;
    kind = BaselineKind::kExt4;
  }
  engine_options = BaselineOptions(kind);
  engine_options.max_inodes = 1 << 18;
  TRIO_CHECK_OK(SimpleKernelFs::Format(*out.pool, engine_options));
  out.fs = std::make_unique<KernelFsAdapter>(*out.pool, kind, vfs);
  return out;
}

}  // namespace

FsInstance MakeFs(const std::string& name, const FsFactoryOptions& options) {
  if (name == "ArckFS" || name == "ArckFS-nd" || name == "FPFS" || name == "KVFS") {
    return MakeTrio(name, options);
  }
  return MakeBaseline(name, options);
}

std::vector<std::string> AllPosixFsNames() {
  return {"ArckFS", "ArckFS-nd", "FPFS",   "ext4",  "PMFS",
          "NOVA",   "WineFS",    "OdinFS", "SplitFS", "Strata"};
}

std::vector<std::string> BaselineFsNames() {
  return {"ext4", "PMFS", "NOVA", "WineFS", "OdinFS", "SplitFS", "Strata"};
}

}  // namespace trio
