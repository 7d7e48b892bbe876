#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/verifier/fsck.h"

namespace perfbench {

void CheckFinalPool(trio::NvmPool& pool,
                    const std::unordered_map<uint64_t, trio::Ino>* tier_owners,
                    uint64_t files, uint64_t bytes, std::vector<std::string>* problems) {
  trio::Result<trio::FsckReport> report = trio::RunFsck(pool, tier_owners);
  if (!report.ok()) {
    problems->push_back("fsck failed to run: " + report.status().ToString());
    return;
  }
  // The first few problems name the damage; the count says how much there is.
  for (size_t i = 0; i < report->problems.size() && i < 3; ++i) {
    const trio::FsckProblem& p = report->problems[i];
    problems->push_back("fsck " + p.invariant + " ino " + std::to_string(p.ino) + ": " +
                        p.detail + " (" + std::to_string(report->problems.size()) +
                        " problems in all)");
  }
  if (report->regular_files != files || report->bytes_in_files != bytes) {
    problems->push_back("fsck found " + std::to_string(report->regular_files) + " files / " +
                        std::to_string(report->bytes_in_files) + " bytes, acknowledged " +
                        std::to_string(files) + " / " + std::to_string(bytes));
  }
}

}  // namespace perfbench
