// Per-directory resizable chained hash table (§4.2): auxiliary state mapping a file name to
// the location of its DirentBlock in the directory's core state. Per-bucket readers-writer
// locks give fine-grained concurrency; a table-wide rwlock is taken exclusively only while
// doubling the bucket array.

#ifndef SRC_LIBFS_DIR_INDEX_H_
#define SRC_LIBFS_DIR_INDEX_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rwlock.h"
#include "src/nvm/nvm.h"
#include "src/core/format.h"

namespace trio {

struct DirSlot {
  PageNumber page = 0;
  uint32_t slot = 0;
  Ino ino = kInvalidIno;
  bool is_dir = false;
};

class DirIndex {
 public:
  explicit DirIndex(size_t initial_buckets = 16) {
    table_ = std::make_unique<Table>(initial_buckets);
  }
  DirIndex(const DirIndex&) = delete;
  DirIndex& operator=(const DirIndex&) = delete;
  ~DirIndex() {
    for (size_t i = 0; i <= table_->mask; ++i) {
      Entry* entry = table_->buckets[i].head;
      while (entry != nullptr) {
        Entry* next = entry->next;
        delete entry;
        entry = next;
      }
    }
  }

  bool Lookup(std::string_view name, DirSlot* out) const {
    const uint64_t hash = HashString(name);
    ReadGuard<RwLock> table_guard(table_lock_);
    const Table& table = *table_;
    Bucket& bucket = table.buckets[hash & table.mask];
    ReadGuard<RwLock> bucket_guard(bucket.lock);
    for (const Entry* entry = bucket.head; entry != nullptr; entry = entry->next) {
      if (entry->hash == hash && entry->name == name) {
        *out = entry->value;
        return true;
      }
    }
    return false;
  }

  // Returns false if the name already exists.
  bool Insert(std::string_view name, const DirSlot& value) {
    const uint64_t hash = HashString(name);
    size_t buckets = 0;
    size_t size = 0;
    {
      ReadGuard<RwLock> table_guard(table_lock_);
      Table& table = *table_;
      Bucket& bucket = table.buckets[hash & table.mask];
      WriteGuard<RwLock> bucket_guard(bucket.lock);
      for (Entry* entry = bucket.head; entry != nullptr; entry = entry->next) {
        if (entry->hash == hash && entry->name == name) {
          return false;
        }
      }
      auto* entry = new Entry{hash, std::string(name), value, bucket.head};
      bucket.head = entry;
      size = size_.fetch_add(1, std::memory_order_relaxed) + 1;
      buckets = table.mask + 1;  // Read under the table lock: a resize frees the table.
    }
    if (size > 4 * buckets) {
      Grow();
    }
    return true;
  }

  bool Erase(std::string_view name) {
    const uint64_t hash = HashString(name);
    ReadGuard<RwLock> table_guard(table_lock_);
    Table& table = *table_;
    Bucket& bucket = table.buckets[hash & table.mask];
    WriteGuard<RwLock> bucket_guard(bucket.lock);
    Entry** link = &bucket.head;
    while (*link != nullptr) {
      Entry* entry = *link;
      if (entry->hash == hash && entry->name == name) {
        *link = entry->next;
        delete entry;
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
      link = &entry->next;
    }
    return false;
  }

  size_t Size() const { return size_.load(std::memory_order_relaxed); }

  // Snapshot of all entries (readdir). Buckets are read-locked one at a time.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ReadGuard<RwLock> table_guard(table_lock_);
    const Table& table = *table_;
    for (size_t i = 0; i <= table.mask; ++i) {
      Bucket& bucket = table.buckets[i];
      ReadGuard<RwLock> bucket_guard(bucket.lock);
      for (const Entry* entry = bucket.head; entry != nullptr; entry = entry->next) {
        fn(entry->name, entry->value);
      }
    }
  }

  void Clear() {
    WriteGuard<RwLock> table_guard(table_lock_);
    for (size_t i = 0; i <= table_->mask; ++i) {
      Entry* entry = table_->buckets[i].head;
      while (entry != nullptr) {
        Entry* next = entry->next;
        delete entry;
        entry = next;
      }
      table_->buckets[i].head = nullptr;
    }
    size_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uint64_t hash;
    std::string name;
    DirSlot value;
    Entry* next;
  };
  struct Bucket {
    mutable RwLock lock;
    Entry* head = nullptr;
  };
  struct Table {
    explicit Table(size_t n) : buckets(new Bucket[n]), mask(n - 1) {}
    std::unique_ptr<Bucket[]> buckets;
    size_t mask;
  };

  // Doubles the bucket array once the load factor exceeds 4 entries per bucket.
  void Grow() {
    WriteGuard<RwLock> table_guard(table_lock_);
    const size_t old_buckets = table_->mask + 1;
    if (size_.load(std::memory_order_relaxed) <= 4 * old_buckets) {
      return;  // Someone resized before us.
    }
    auto grown = std::make_unique<Table>(old_buckets * 2);
    for (size_t i = 0; i < old_buckets; ++i) {
      Entry* entry = table_->buckets[i].head;
      while (entry != nullptr) {
        Entry* next = entry->next;
        Bucket& target = grown->buckets[entry->hash & grown->mask];
        entry->next = target.head;
        target.head = entry;
        entry = next;
      }
      table_->buckets[i].head = nullptr;
    }
    table_ = std::move(grown);
  }

  mutable RwLock table_lock_;
  std::unique_ptr<Table> table_;
  std::atomic<size_t> size_{0};
};

}  // namespace trio

#endif  // SRC_LIBFS_DIR_INDEX_H_
