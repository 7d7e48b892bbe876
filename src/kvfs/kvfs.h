// KVFS (§5): a LibFS customized for applications that operate on many small files (mail
// clients, HPC checkpointing). It layers get/set interfaces over ArckFS's core state:
//
//  * get/set always operate from the beginning of a file, so there are no file
//    descriptors (and none of their allocation overhead);
//  * files are at most 32 KiB, so ArckFS's per-file index-chain vector is replaced with
//    a fixed-size array of page numbers — one lookup, no chain to rebuild;
//  * with many files, per-file contention is rare, so the readers-writer inode lock and
//    the range lock collapse into one spinlock per file.
//
// Everything here is auxiliary state: the core state stays ArckFS's (§4.1), which is why
// this customization needs no privilege and cannot affect other applications — the Trio
// property §5 demonstrates. KVFS still speaks full POSIX through its ArckFs base for
// anything outside the hot path.

#ifndef SRC_KVFS_KVFS_H_
#define SRC_KVFS_KVFS_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "src/libfs/arckfs.h"

namespace trio {

class KvFs : public ArckFs {
 public:
  static constexpr size_t kMaxValueSize = 32 * 1024;  // §5: 32 KiB maximal file size.
  static constexpr size_t kMaxValuePages = kMaxValueSize / kPageSize;  // 8.

  // Keys become files under `base_dir` (created if missing).
  KvFs(KernelController& kernel, ArckFsConfig config = {}, std::string base_dir = "/kv");
  ~KvFs() override;

  std::string Name() const override { return "KVFS"; }

  // Creates the file if needed and (over)writes [0, len). len <= kMaxValueSize.
  Status Set(const std::string& key, const void* data, size_t len);
  // Reads from offset 0 into buf; returns bytes read (min(file size, capacity)).
  Result<size_t> Get(const std::string& key, void* buf, size_t capacity);
  Status Delete(const std::string& key);
  Result<uint64_t> SizeOf(const std::string& key);
  // Enumerates every key in the store (order unspecified).
  Result<std::vector<std::string>> Keys();
  bool Contains(const std::string& key);

 private:
  // The customized per-file auxiliary state (§5): fixed array + one spinlock.
  struct KvNode {
    SpinLock lock;
    NodePtr node;                             // Underlying mapping bookkeeping.
    PageNumber index_page = 0;                // Small files have exactly one index page.
    PageNumber pages[kMaxValuePages] = {};    // The fixed-size per-file page map.
  };

  Result<KvNode*> GetKvNode(const std::string& key, bool create);
  Status BuildKvNode(KvNode* kv);

  std::string base_dir_;
  NodePtr dir_node_;
  std::mutex kv_nodes_mutex_;
  std::unordered_map<std::string, std::unique_ptr<KvNode>> kv_nodes_;
};

}  // namespace trio

#endif  // SRC_KVFS_KVFS_H_
