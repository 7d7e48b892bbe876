// String hashing for directory hash tables and the FPFS full-path index: FNV-1a with a
// 64->64 finalizer, fast, decent distribution, dependency-free. Also the Fibonacci hash
// that ino- and page-keyed tables pick a shard or slot with.

#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace trio {

inline uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0xcbf29ce484222325ull) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  // Murmur-style finalizer to break up FNV's weak low bits (bucket index uses low bits).
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

inline uint64_t HashString(std::string_view s) { return HashBytes(s.data(), s.size()); }

// Combine two hashes (used to chain parent-ino with name hash).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}

// Fibonacci hashing: the index of `key`'s shard among mask + 1 (a power of two). Spreads
// sequential inos and page numbers evenly across shards.
inline size_t FibonacciShard(uint64_t key, size_t mask) {
  return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
}

}  // namespace trio

#endif  // SRC_COMMON_HASH_H_
