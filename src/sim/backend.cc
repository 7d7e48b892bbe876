#include "src/sim/backend.h"

#include <chrono>
#include <cstring>
#include <utility>

namespace trio {

namespace {
// Same busy-wait the NVM cost model uses: sleeping would let the OS batch wakeups and
// erase exactly the latency the model exists to expose.
void SpinDelayNs(uint64_t ns) {
  if (ns == 0) {
    return;
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < deadline) {
  }
}
}  // namespace

uint64_t SlowBackend::WritePage(const void* src, Ino owner) {
  auto copy = std::make_unique<char[]>(kPageSize);
  std::memcpy(copy.get(), src, kPageSize);
  uint64_t slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot = next_slot_++;
    data_.emplace(slot, std::move(copy));
    owners_.emplace(slot, owner);
  }
  stats_.backend_pages_written.fetch_add(1, std::memory_order_relaxed);
  stats_.backend_bytes_written.fetch_add(kPageSize, std::memory_order_relaxed);
  SpinDelayNs(cost_model_.write_ns_per_page);
  return slot;
}

Status SlowBackend::ReadPage(uint64_t slot, void* dst) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = data_.find(slot);
    if (it == data_.end()) {
      return NotFound("backend slot was never written");
    }
    std::memcpy(dst, it->second.get(), kPageSize);
  }
  stats_.backend_pages_read.fetch_add(1, std::memory_order_relaxed);
  stats_.backend_bytes_read.fetch_add(kPageSize, std::memory_order_relaxed);
  SpinDelayNs(cost_model_.read_ns_per_page);
  return OkStatus();
}

Status SlowBackend::Free(uint64_t slot, Ino owner) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = owners_.find(slot);
  if (it == owners_.end() || it->second != owner) {
    return InvalidArgument("backend slot not owned by caller");
  }
  owners_.erase(it);  // Data stays: write-once media contract.
  return OkStatus();
}

bool SlowBackend::OwnsAll(Ino owner, const std::vector<uint64_t>& slots) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t slot : slots) {
    auto it = owners_.find(slot);
    if (it == owners_.end() || it->second != owner) {
      return false;
    }
  }
  return true;
}

void SlowBackend::BeginRebuild() {
  std::lock_guard<std::mutex> lock(mu_);
  owners_.clear();
}

Status SlowBackend::Adopt(uint64_t slot, Ino owner) {
  std::lock_guard<std::mutex> lock(mu_);
  if (data_.find(slot) == data_.end()) {
    return Corrupted("tier entry references a backend slot that was never written");
  }
  auto [it, inserted] = owners_.emplace(slot, owner);
  if (!inserted && it->second != owner) {
    return Corrupted("backend slot referenced by two files");
  }
  if (!inserted) {
    return Corrupted("backend slot referenced twice");
  }
  return OkStatus();
}

std::unordered_map<uint64_t, Ino> SlowBackend::SlotOwners() const {
  std::lock_guard<std::mutex> lock(mu_);
  return owners_;
}

size_t SlowBackend::OwnedSlotCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return owners_.size();
}

}  // namespace trio
