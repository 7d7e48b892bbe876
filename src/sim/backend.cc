#include "src/sim/backend.h"

#include <algorithm>
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
    slot = data_.size();
    data_.push_back(std::move(copy));
    owners_.push_back(owner);
    ++owned_;
  }
  stats_.backend_pages_written.fetch_add(1, std::memory_order_relaxed);
  stats_.backend_bytes_written.fetch_add(kPageSize, std::memory_order_relaxed);
  SpinDelayNs(cost_model_.write_ns_per_page);
  return slot;
}

Status SlowBackend::ReadPage(uint64_t slot, void* dst) const {
  const char* src;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!WrittenLocked(slot)) {
      return NotFound("backend slot was never written");
    }
    src = data_[slot].get();  // Stable: the vector moves pointers, never the pages.
  }
  std::memcpy(dst, src, kPageSize);  // Write-once: no writer can race the copy.
  stats_.backend_pages_read.fetch_add(1, std::memory_order_relaxed);
  stats_.backend_bytes_read.fetch_add(kPageSize, std::memory_order_relaxed);
  SpinDelayNs(cost_model_.read_ns_per_page);
  return OkStatus();
}

Status SlowBackend::Free(uint64_t slot, Ino owner) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!OwnedByLocked(slot, owner)) {
    return InvalidArgument("backend slot not owned by caller");
  }
  owners_[slot] = kInvalidIno;  // Data stays: write-once media contract.
  --owned_;
  return OkStatus();
}

bool SlowBackend::OwnsAll(Ino owner, const std::vector<uint64_t>& slots) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t slot : slots) {
    if (!OwnedByLocked(slot, owner)) {
      return false;
    }
  }
  return true;
}

void SlowBackend::BeginRebuild() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(owners_.begin(), owners_.end(), kInvalidIno);
  owned_ = 0;
}

Status SlowBackend::Adopt(uint64_t slot, Ino owner) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!WrittenLocked(slot)) {
    return Corrupted("tier entry references a backend slot that was never written");
  }
  if (owners_[slot] != kInvalidIno) {
    return Corrupted(owners_[slot] != owner ? "backend slot referenced by two files"
                                            : "backend slot referenced twice");
  }
  owners_[slot] = owner;
  ++owned_;
  return OkStatus();
}

std::unordered_map<uint64_t, Ino> SlowBackend::SlotOwners() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, Ino> owners;
  owners.reserve(owned_);
  for (uint64_t slot = 1; slot < owners_.size(); ++slot) {
    if (owners_[slot] != kInvalidIno) {
      owners.emplace(slot, owners_[slot]);
    }
  }
  return owners;
}

size_t SlowBackend::OwnedSlotCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return owned_;
}

}  // namespace trio
