// The four benchmark workloads (README.md says why each was chosen). A workload builds its
// inputs from the seed alone: here, or through the clients' generators, which main seeds.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/core/format.h"
#include "src/nvm/nvm.h"

namespace perfbench {

std::unique_ptr<Workload> MakeVarmail(uint64_t seed);
std::unique_ptr<Workload> MakeFileserver(uint64_t seed);
std::unique_ptr<Workload> MakeFleet(uint64_t seed);
std::unique_ptr<Workload> MakeTier();

// Runs fsck on the final pool, after every LibFS and the kernel are torn down, and checks
// that it is clean and holds exactly the acknowledged `files` regular files of `bytes`
// bytes in all. `tier_owners` is the slow backend's slot-owner table (enables G7).
void CheckFinalPool(trio::NvmPool& pool,
                    const std::unordered_map<uint64_t, trio::Ino>* tier_owners,
                    uint64_t files, uint64_t bytes, std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
