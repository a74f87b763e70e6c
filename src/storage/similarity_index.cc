#include "storage/similarity_index.h"

#include <algorithm>
#include <stdexcept>

#include "common/hash_util.h"

namespace sigma {

SimilarityIndex::SimilarityIndex(std::size_t num_locks)
    : shards_(std::max<std::size_t>(1, num_locks)) {}

SimilarityIndex::Shard& SimilarityIndex::shard_of(const Fingerprint& rfp) {
  return shards_[mix64(rfp.prefix64()) % shards_.size()];
}

const SimilarityIndex::Shard& SimilarityIndex::shard_of(
    const Fingerprint& rfp) const {
  return shards_[mix64(rfp.prefix64()) % shards_.size()];
}

void SimilarityIndex::put(const Fingerprint& rfp, ContainerId container) {
  Shard& s = shard_of(rfp);
  MutexLock lock(s.mu);
  s.map[rfp.prefix64()] = container;
}

std::optional<ContainerId> SimilarityIndex::get(const Fingerprint& rfp) const {
  const Shard& s = shard_of(rfp);
  MutexLock lock(s.mu);
  auto it = s.map.find(rfp.prefix64());
  if (it == s.map.end()) return std::nullopt;
  return it->second;
}

std::size_t SimilarityIndex::count_matches(
    const std::vector<Fingerprint>& handprint) const {
  std::size_t count = 0;
  for (const auto& rfp : handprint) {
    if (get(rfp)) ++count;
  }
  return count;
}

std::vector<ContainerId> SimilarityIndex::match_containers(
    const std::vector<Fingerprint>& handprint) const {
  std::vector<ContainerId> out;
  out.reserve(handprint.size());
  for (const auto& rfp : handprint) {
    if (auto cid = get(rfp)) out.push_back(*cid);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t SimilarityIndex::size() const {
  std::size_t total = 0;
  for (const auto& s : shards_) {
    MutexLock lock(s.mu);
    total += s.map.size();
  }
  return total;
}

std::uint64_t SimilarityIndex::estimated_ram_bytes() const {
  // 8 B short key + 8 B container id + ~2x hash-table overhead.
  return static_cast<std::uint64_t>(size()) * 32;
}

}  // namespace sigma
