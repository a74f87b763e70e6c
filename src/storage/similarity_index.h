// The similarity index (paper Section 3.3): an in-RAM hash table mapping a
// representative fingerprint (RFP — a member of some stored super-chunk's
// handprint) to the container that stores that chunk. It serves two roles:
//   1. answering pre-routing resemblance probes from clients
//      (Algorithm 1 step 2: count how many RFPs of an incoming handprint
//      are already present on this node), and
//   2. driving locality prefetch: an RFP hit names a container whose whole
//      fingerprint list is pulled into the chunk-fingerprint cache.
//
// Concurrency: the table is partitioned into lock stripes; the stripe
// count is a tunable studied in the paper's Fig. 4(b).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/container.h"

namespace sigma {

class SimilarityIndex {
 public:
  /// `num_locks` — number of lock stripes guarding the table (>= 1).
  explicit SimilarityIndex(std::size_t num_locks = 1024);

  /// Insert or update the container mapping for an RFP.
  void put(const Fingerprint& rfp, ContainerId container);

  /// Lookup one RFP.
  std::optional<ContainerId> get(const Fingerprint& rfp) const;

  /// Count how many of `handprint`'s fingerprints are present — the
  /// resemblance count r_i returned to routing clients.
  std::size_t count_matches(const std::vector<Fingerprint>& handprint) const;

  /// Distinct containers mapped by the present members of `handprint`
  /// (the prefetch targets for a super-chunk write).
  std::vector<ContainerId> match_containers(
      const std::vector<Fingerprint>& handprint) const;

  std::size_t size() const;
  std::size_t num_locks() const { return shards_.size(); }

  /// Estimated RAM footprint: entries * (8-byte short key + 8-byte CID +
  /// table overhead). Used to reproduce the paper's RAM-usage comparison.
  std::uint64_t estimated_ram_bytes() const;

 private:
  struct Shard {
    // All shards share one rank: no operation ever holds two at once.
    mutable Mutex mu{LockRank::kSimilarityShard};
    // Keyed by the fingerprint's 64-bit prefix: the index stores a short
    // key to keep RAM low (full fingerprints stay in container metadata;
    // false sharing of a prefix is resolved by the container compare).
    std::unordered_map<std::uint64_t, ContainerId> map SIGMA_GUARDED_BY(mu);
  };

  Shard& shard_of(const Fingerprint& rfp);
  const Shard& shard_of(const Fingerprint& rfp) const;

  std::vector<Shard> shards_;
};

}  // namespace sigma
