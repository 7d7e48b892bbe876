#include "src/kvfs/kvfs.h"

#include <cstring>

#include "src/obs/persist_span.h"

namespace trio {

KvFs::KvFs(KernelController& kernel, ArckFsConfig config, std::string base_dir)
    : ArckFs(kernel, std::move(config)), base_dir_(std::move(base_dir)) {
  Status made = Mkdir(base_dir_);
  TRIO_CHECK(made.ok() || made.Is(ErrorCode::kExists)) << made.ToString();
  Result<std::vector<std::string>> components = SplitPath(base_dir_);
  TRIO_CHECK(components.ok());
  Result<NodePtr> dir = ArckFs::ResolveDir(*components);
  TRIO_CHECK(dir.ok()) << dir.status().ToString();
  dir_node_ = *dir;
}

KvFs::~KvFs() = default;

Result<KvFs::KvNode*> KvFs::GetKvNode(const std::string& key, bool create) {
  if (!ValidFileName(key)) {
    return InvalidArgument("bad key");
  }
  {
    std::lock_guard<std::mutex> guard(kv_nodes_mutex_);
    auto it = kv_nodes_.find(key);
    if (it != kv_nodes_.end()) {
      // Revoked since we cached it? Rebuild below.
      if (MappedAt(it->second->node.get(), 2)) {
        return it->second.get();
      }
      kv_nodes_.erase(it);
    }
  }

  // Resolve or create through the shared directory machinery; the customization is the
  // per-file fast path, not the directory format.
  TRIO_RETURN_IF_ERROR(LockForOp(dir_node_.get(), 2));
  Result<DirSlot> slot = FindEntry(dir_node_.get(), key);
  bool created = false;
  if (!slot.ok() && slot.status().Is(ErrorCode::kNotFound) && create) {
    slot = CreateEntry(dir_node_.get(), key, kModeRegular | 0644, /*exclusive=*/false);
    created = slot.ok();
  }
  UnlockOp(dir_node_.get());
  if (!slot.ok()) {
    return slot.status();
  }

  auto kv = std::make_unique<KvNode>();
  kv->node = GetOrCreateNode(slot->ino, dir_node_->ino, /*is_dir=*/false,
                             SlotPointer(*slot));
  kv->node->dirent = SlotPointer(*slot);
  if (created) {
    AdoptCreated(kv->node.get());
  } else {
    TRIO_RETURN_IF_ERROR(EnsureMapped(kv->node.get(), /*write=*/true));
  }
  TRIO_RETURN_IF_ERROR(BuildKvNode(kv.get()));

  std::lock_guard<std::mutex> guard(kv_nodes_mutex_);
  auto [it, inserted] = kv_nodes_.emplace(key, std::move(kv));
  return it->second.get();
}

Status KvFs::BuildKvNode(KvNode* kv) {
  // Rebuild the fixed array from core state — the KVFS analogue of §4.2's
  // "building auxiliary state from core state".
  kv->index_page = kv->node->dirent->first_index_page;
  std::memset(kv->pages, 0, sizeof(kv->pages));
  if (kv->index_page == 0) {
    return OkStatus();
  }
  const auto* index = reinterpret_cast<const IndexPage*>(pool_.PageAddress(kv->index_page));
  for (size_t i = 0; i < kMaxValuePages; ++i) {
    kv->pages[i] = index->entries[i];
  }
  return OkStatus();
}

Status KvFs::Set(const std::string& key, const void* data, size_t len) {
  if (len > kMaxValueSize) {
    return TooLarge("value exceeds KVFS maximum");
  }
  TRIO_ASSIGN_OR_RETURN(KvNode * kv, GetKvNode(key, /*create=*/true));
  std::lock_guard<SpinLock> guard(kv->lock);
  DirentBlock* dirent = kv->node->dirent;
  const char* src = static_cast<const char*>(data);

  obs::PersistSpan span(pool_, &persist_stats_);
  // One index page covers the whole value (8 entries needed, 511 available).
  if (kv->index_page == 0 && len > 0) {
    TRIO_ASSIGN_OR_RETURN(PageNumber index_page, leases_.AllocPage(0));
    pool_.Set(pool_.PageAddress(index_page), 0, kPageSize);
    span.PersistNow(pool_.PageAddress(index_page), kPageSize);
    span.CommitStore64(&dirent->first_index_page, index_page);
    kv->index_page = index_page;
  }
  auto* index = kv->index_page != 0
                    ? reinterpret_cast<IndexPage*>(pool_.PageAddress(kv->index_page))
                    : nullptr;

  size_t new_links = 0;
  PageNumber fresh[kMaxValuePages] = {};
  for (size_t i = 0; i * kPageSize < len; ++i) {
    const size_t chunk = std::min(kPageSize, len - i * kPageSize);
    PageNumber page = kv->pages[i];
    if (page == 0) {
      TRIO_ASSIGN_OR_RETURN(page, leases_.AllocPage(0));
      if (chunk < kPageSize) {
        pool_.Set(pool_.PageAddress(page), 0, kPageSize);
      }
      fresh[i] = page;
      ++new_links;
    }
    pool_.Write(pool_.PageAddress(page), src + i * kPageSize, chunk);
    span.Persist(pool_.PageAddress(page), chunk);
  }
  span.Fence();  // Data durable before links and size (§4.4 ordering).
  if (new_links > 0) {
    for (size_t i = 0; i < kMaxValuePages; ++i) {
      if (fresh[i] != 0) {
        span.CommitStore64(&index->entries[i], fresh[i]);
        kv->pages[i] = fresh[i];
      }
    }
  }
  span.CommitStore64(&dirent->size, len);
  return OkStatus();
}

Result<size_t> KvFs::Get(const std::string& key, void* buf, size_t capacity) {
  TRIO_ASSIGN_OR_RETURN(KvNode * kv, GetKvNode(key, /*create=*/false));
  std::lock_guard<SpinLock> guard(kv->lock);
  const uint64_t size = pool_.Load64(&kv->node->dirent->size);
  const size_t want = std::min<uint64_t>(size, capacity);
  char* dst = static_cast<char*>(buf);
  for (size_t i = 0; i * kPageSize < want; ++i) {
    const size_t chunk = std::min(kPageSize, want - i * kPageSize);
    if (kv->pages[i] == 0) {
      std::memset(dst + i * kPageSize, 0, chunk);
    } else {
      pool_.Read(dst + i * kPageSize, pool_.PageAddress(kv->pages[i]), chunk);
    }
  }
  return want;
}

Status KvFs::Delete(const std::string& key) {
  {
    std::lock_guard<std::mutex> guard(kv_nodes_mutex_);
    kv_nodes_.erase(key);
  }
  TRIO_RETURN_IF_ERROR(LockForOp(dir_node_.get(), 2));
  Status status = RemoveEntry(dir_node_.get(), key, /*must_be_dir=*/false,
                              /*must_be_file=*/true);
  UnlockOp(dir_node_.get());
  return status;
}

Result<uint64_t> KvFs::SizeOf(const std::string& key) {
  TRIO_ASSIGN_OR_RETURN(KvNode * kv, GetKvNode(key, /*create=*/false));
  return pool_.Load64(&kv->node->dirent->size);
}

Result<std::vector<std::string>> KvFs::Keys() {
  TRIO_RETURN_IF_ERROR(LockForOp(dir_node_.get(), 1));
  std::vector<std::string> keys;
  dir_node_->dir_index->ForEach([&](const std::string& name, const DirSlot& slot) {
    if (!slot.is_dir) {
      keys.push_back(name);
    }
  });
  UnlockOp(dir_node_.get());
  return keys;
}

bool KvFs::Contains(const std::string& key) {
  if (LockForOp(dir_node_.get(), 1).ok()) {
    DirSlot slot;
    const bool found = dir_node_->dir_index->Lookup(key, &slot);
    UnlockOp(dir_node_.get());
    return found;
  }
  return false;
}

}  // namespace trio
