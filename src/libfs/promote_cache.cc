#include "src/libfs/promote_cache.h"

#include <cstring>

namespace trio {

namespace {

// Shards the slots are split across (a power of two: the top hash bits pick the shard).
constexpr size_t kShards = 8;
static_assert((kShards & (kShards - 1)) == 0, "shard count must be a power of two");

}  // namespace

size_t PromoteCache::Shard::PickVictim() {
  const size_t count = slots.size();
  for (size_t step = 0; step < 2 * count; ++step) {
    const size_t i = hand;
    hand = (hand + 1) % count;
    if (slots[i].key.load(std::memory_order_relaxed) == 0 ||
        slots[i].referenced.exchange(0, std::memory_order_relaxed) == 0) {
      return i;
    }
  }
  return hand;  // Unreachable; keeps the contract total.
}

PromoteCache::PromoteCache(NvmPool& pool, size_t total_slots) : pool_(pool) {
  shards_ = std::vector<Shard>(kShards);
  shift_ = 64;
  for (size_t s = kShards; s > 1; s >>= 1) {
    --shift_;
  }
  slots_per_shard_ = total_slots == 0 ? 0 : (total_slots + kShards - 1) / kShards;
  for (Shard& shard : shards_) {
    shard.slots = std::vector<Slot>(slots_per_shard_);
  }
}

bool PromoteCache::ReadHit(Ino ino, uint64_t page_index, uint64_t in_page, void* dst,
                           size_t len) {
  const uint64_t key = PackKey(ino, page_index);
  if (key == 0 || !enabled()) {
    stats_.promote_misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Shard& shard = ShardFor(ino);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t seq0 = shard.seq.load(std::memory_order_acquire);
    if (seq0 & 1) {
      continue;  // Writer in flight; one retry is usually enough.
    }
    PageNumber page = 0;
    Slot* found = nullptr;
    for (Slot& slot : shard.slots) {
      if (slot.key.load(std::memory_order_relaxed) == key) {
        page = slot.page;
        found = &slot;
        break;
      }
    }
    if (found == nullptr) {
      // Key-absence is only trustworthy if no writer raced the scan.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (shard.seq.load(std::memory_order_relaxed) == seq0) {
        break;
      }
      continue;
    }
    found->referenced.store(1, std::memory_order_relaxed);
    // Copy the bytes, then revalidate: if a writer evicted this slot mid-copy the page
    // may already be recycled and rewritten, so the copy is discarded and retried.
    pool_.Read(dst, pool_.PageAddress(page) + in_page, len);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (shard.seq.load(std::memory_order_relaxed) == seq0) {
      stats_.promote_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  stats_.promote_misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

PageNumber PromoteCache::Insert(Ino ino, uint64_t page_index, PageNumber page) {
  const uint64_t key = PackKey(ino, page_index);
  if (key == 0 || !enabled()) {
    return page;  // Uncacheable: hand the promoted page straight back.
  }
  Shard& shard = ShardFor(ino);
  std::lock_guard<SpinLock> guard(shard.lock);
  // Duplicate promote (two readers missed concurrently): keep the incumbent copy — it
  // is byte-identical (backend slots are write-once) — and recycle the newcomer.
  for (Slot& slot : shard.slots) {
    if (slot.key.load(std::memory_order_relaxed) == key) {
      return page;
    }
  }
  Slot& slot = shard.slots[shard.PickVictim()];
  const PageNumber evicted = slot.key.load(std::memory_order_relaxed) != 0 ? slot.page : 0;
  shard.seq.fetch_add(1, std::memory_order_acq_rel);  // Odd: readers stand back.
  slot.key.store(key, std::memory_order_relaxed);
  slot.page = page;
  slot.referenced.store(1, std::memory_order_relaxed);
  shard.seq.fetch_add(1, std::memory_order_release);  // Even again.
  if (evicted != 0) {
    stats_.promote_evictions.fetch_add(1, std::memory_order_relaxed);
  }
  return evicted;
}

PageNumber PromoteCache::Erase(Ino ino, uint64_t page_index) {
  const uint64_t key = PackKey(ino, page_index);
  if (key == 0 || !enabled()) {
    return 0;
  }
  Shard& shard = ShardFor(ino);
  std::lock_guard<SpinLock> guard(shard.lock);
  for (Slot& slot : shard.slots) {
    if (slot.key.load(std::memory_order_relaxed) == key) {
      const PageNumber page = slot.page;
      shard.seq.fetch_add(1, std::memory_order_acq_rel);
      slot.key.store(0, std::memory_order_relaxed);
      slot.page = 0;
      slot.referenced.store(0, std::memory_order_relaxed);
      shard.seq.fetch_add(1, std::memory_order_release);
      return page;
    }
  }
  return 0;
}

void PromoteCache::EraseFile(Ino ino, std::vector<PageNumber>* recycled) {
  if (!enabled()) {
    return;
  }
  Shard& shard = ShardFor(ino);
  std::lock_guard<SpinLock> guard(shard.lock);
  bool bumped = false;
  for (Slot& slot : shard.slots) {
    const uint64_t key = slot.key.load(std::memory_order_relaxed);
    if (key == 0 || (key >> kIndexKeyBits) != ino) {
      continue;
    }
    if (!bumped) {
      shard.seq.fetch_add(1, std::memory_order_acq_rel);
      bumped = true;
    }
    recycled->push_back(slot.page);
    slot.key.store(0, std::memory_order_relaxed);
    slot.page = 0;
    slot.referenced.store(0, std::memory_order_relaxed);
  }
  if (bumped) {
    shard.seq.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace trio
