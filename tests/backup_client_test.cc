// Backup client: the source-dedup pipeline end to end — chunking,
// fingerprinting, routing, transfer accounting, recipes and restore.
#include <gtest/gtest.h>

#include "cluster/backup_client.h"
#include "common/random.h"
#include "storage/backend.h"
#include "storage/container.h"
#include "storage/container_store.h"

namespace sigma {
namespace {

Buffer random_data(std::size_t n, std::uint64_t seed) {
  Buffer out;
  out.reserve(n);
  Rng rng(seed);
  while (out.size() < n) {
    const std::uint64_t v = rng.next();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  return out;
}

ContentBackup make_session(const std::string& name, std::uint64_t seed,
                           int files, std::size_t file_size) {
  ContentBackup b;
  b.session = name;
  for (int f = 0; f < files; ++f) {
    b.files.push_back({"dir/f" + std::to_string(f),
                       random_data(file_size, seed + f)});
  }
  return b;
}

struct ClientRig {
  explicit ClientRig(RoutingScheme scheme = RoutingScheme::kSigma,
                     std::size_t nodes = 4) {
    ClusterConfig cc;
    cc.num_nodes = nodes;
    cc.scheme = scheme;
    cc.super_chunk_bytes = 64 * 1024;
    cluster = std::make_unique<Cluster>(cc);
    BackupClientConfig bc;
    bc.super_chunk_bytes = 64 * 1024;
    client = std::make_unique<BackupClient>(bc, *cluster, director);
  }
  Director director;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<BackupClient> client;
};

TEST(BackupClientTest, ParallelHashingMatchesSerial) {
  // Chunking + fingerprinting sharded across the hash pool must produce
  // the identical backup — same chunks in the same stream order, so same
  // routing, placement, transfer accounting and restores.
  auto run = [&](std::size_t hash_threads) {
    ClusterConfig cc;
    cc.num_nodes = 4;
    cc.scheme = RoutingScheme::kSigma;
    cc.super_chunk_bytes = 64 * 1024;
    Cluster cluster(cc);
    Director director;
    BackupClientConfig bc;
    bc.super_chunk_bytes = 64 * 1024;
    bc.chunking = ChunkingScheme::kCdc;  // content-defined: order-sensitive
    bc.hash_threads = hash_threads;
    BackupClient client(bc, cluster, director);
    const auto summary = client.backup(make_session("s", 77, 5, 150000));
    const auto report = cluster.report();
    return std::tuple{summary.chunk_count, summary.super_chunk_count,
                      summary.transferred_bytes, report.physical_bytes,
                      report.node_usage};
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(BackupClientTest, BackupAccountsLogicalBytes) {
  ClientRig rig;
  const auto session = make_session("s1", 1, 3, 100000);
  const auto summary = rig.client->backup(session);
  EXPECT_EQ(summary.logical_bytes, 3u * 100000);
  EXPECT_GT(summary.chunk_count, 0u);
  EXPECT_GT(summary.super_chunk_count, 0u);
  EXPECT_EQ(summary.transferred_bytes, summary.logical_bytes);  // all new
}

TEST(BackupClientTest, SecondIdenticalBackupTransfersNothing) {
  ClientRig rig;
  const auto session1 = make_session("s1", 1, 3, 100000);
  auto session2 = session1;
  session2.session = "s2";
  rig.client->backup(session1);
  const auto summary = rig.client->backup(session2);
  EXPECT_EQ(summary.transferred_bytes, 0u);
  EXPECT_EQ(summary.logical_bytes, 3u * 100000);
}

TEST(BackupClientTest, RestoreBitExact) {
  ClientRig rig;
  const auto session = make_session("s1", 7, 4, 50000);
  rig.client->backup(session);
  for (const auto& file : session.files) {
    EXPECT_EQ(rig.client->restore("s1", file.path), file.data)
        << file.path;
  }
}

TEST(BackupClientTest, RestoreAfterDedupedSecondSession) {
  ClientRig rig;
  auto s1 = make_session("s1", 3, 2, 80000);
  rig.client->backup(s1);
  // Second session shares one file, modifies the other.
  ContentBackup s2;
  s2.session = "s2";
  s2.files.push_back(s1.files[0]);  // identical
  Buffer modified = s1.files[1].data;
  for (std::size_t i = 0; i < modified.size(); i += 5000) modified[i] ^= 0xFF;
  s2.files.push_back({s1.files[1].path, modified});
  rig.client->backup(s2);

  EXPECT_EQ(rig.client->restore("s2", s1.files[0].path), s1.files[0].data);
  EXPECT_EQ(rig.client->restore("s2", s1.files[1].path), modified);
  // The first session remains restorable too.
  EXPECT_EQ(rig.client->restore("s1", s1.files[1].path), s1.files[1].data);
}

TEST(BackupClientTest, RestoreUnknownThrows) {
  ClientRig rig;
  rig.client->backup(make_session("s1", 1, 1, 10000));
  EXPECT_THROW(rig.client->restore("s1", "ghost"), std::runtime_error);
  EXPECT_THROW(rig.client->restore("ghost", "dir/f0"), std::runtime_error);
}

TEST(BackupClientTest, RecipesRecordedPerFile) {
  ClientRig rig;
  const auto session = make_session("s1", 9, 5, 20000);
  rig.client->backup(session);
  EXPECT_EQ(rig.director.file_count("s1"), 5u);
  const auto recipe = rig.director.find("s1", "dir/f2");
  ASSERT_TRUE(recipe.has_value());
  EXPECT_EQ(recipe->logical_bytes(), 20000u);
}

TEST(BackupClientTest, EmptyFileHandled) {
  ClientRig rig;
  ContentBackup b;
  b.session = "s";
  b.files.push_back({"empty", Buffer{}});
  b.files.push_back({"small", random_data(10, 5)});
  rig.client->backup(b);
  EXPECT_EQ(rig.client->restore("s", "empty"), Buffer{});
  EXPECT_EQ(rig.client->restore("s", "small").size(), 10u);
}

TEST(BackupClientTest, EmptySessionHandled) {
  ClientRig rig;
  ContentBackup b;
  b.session = "nothing";
  const auto summary = rig.client->backup(b);
  EXPECT_EQ(summary.logical_bytes, 0u);
  EXPECT_EQ(summary.chunk_count, 0u);
}

TEST(BackupClientTest, CdcChunkingRoundTrips) {
  ClusterConfig cc;
  cc.num_nodes = 4;
  Cluster cluster(cc);
  Director director;
  BackupClientConfig bc;
  bc.chunking = ChunkingScheme::kCdc;
  BackupClient client(bc, cluster, director);
  const auto session = make_session("s", 11, 2, 120000);
  client.backup(session);
  for (const auto& file : session.files) {
    EXPECT_EQ(client.restore("s", file.path), file.data);
  }
}

TEST(BackupClientTest, Md5FingerprintingRoundTrips) {
  ClusterConfig cc;
  cc.num_nodes = 2;
  Cluster cluster(cc);
  Director director;
  BackupClientConfig bc;
  bc.hash = HashAlgorithm::kMd5;
  BackupClient client(bc, cluster, director);
  const auto session = make_session("s", 13, 2, 60000);
  client.backup(session);
  for (const auto& file : session.files) {
    EXPECT_EQ(client.restore("s", file.path), file.data);
  }
}

/// A node store that hands back every sealed container with one byte
/// flipped. Raw, the flip breaks the container's own checksum; resealed,
/// the flip lands in each chunk's payload of a container whose checksum
/// still holds — corruption from before the seal, which only the
/// restore-side fingerprint check can see.
class CorruptingBackend final : public StorageBackend {
 public:
  explicit CorruptingBackend(bool reseal) : reseal_(reseal) {}

  void put(const std::string& key, ByteView data) override {
    inner_.put(key, data);
  }
  std::optional<Buffer> get(const std::string& key) override {
    auto blob = inner_.get(key);
    if (!blob || !ContainerStore::parse_container_key(key)) return blob;
    if (!reseal_) {
      (*blob)[blob->size() / 2] ^= 0x01;
      return blob;
    }
    const Container in = Container::deserialize(*blob);
    Container out(in.id());
    for (std::size_t i = 0; i < in.chunk_count(); ++i) {
      const ByteView data = in.chunk_data(i);
      Buffer flipped(data.begin(), data.end());
      if (!flipped.empty()) flipped[flipped.size() / 2] ^= 0x01;
      out.append(in.metadata()[i].fp, flipped);
    }
    return out.serialize();
  }
  bool exists(const std::string& key) override { return inner_.exists(key); }
  void remove(const std::string& key) override { inner_.remove(key); }
  std::vector<std::string> keys() override { return inner_.keys(); }

 private:
  const bool reseal_;
  MemoryBackend inner_;
};

TEST(BackupClientTest, CorruptChunksFailRestoreInsteadOfReturningBytes) {
  for (const bool reseal : {false, true}) {
    for (const HashAlgorithm hash :
         {HashAlgorithm::kSha1, HashAlgorithm::kMd5}) {
      ClusterConfig cc;
      cc.num_nodes = 3;
      cc.super_chunk_bytes = 64 * 1024;
      cc.backend_factory = [reseal](NodeId) {
        return std::make_unique<CorruptingBackend>(reseal);
      };
      Cluster cluster(cc);
      Director director;
      BackupClientConfig bc;
      bc.hash = hash;
      bc.super_chunk_bytes = 64 * 1024;
      BackupClient client(bc, cluster, director);
      const auto session = make_session("s", 17, 4, 50000);
      client.backup(session);
      cluster.flush();  // seal: every read now goes through get()

      for (const auto& file : session.files) {
        const auto recipe = director.find("s", file.path);
        ASSERT_TRUE(recipe.has_value());
        ASSERT_FALSE(recipe->chunks.empty());
        try {
          const Buffer got = client.restore("s", file.path);
          ADD_FAILURE() << file.path << " restored "
                        << (got == file.data ? "intact" : "wrong")
                        << " bytes from a corrupt store (reseal=" << reseal
                        << ")";
        } catch (const std::runtime_error& e) {
          if (reseal) {
            // Only the fingerprint check sees this; it names the chunk
            // and the node that served it.
            const auto& first = recipe->chunks.front();
            const std::string what = e.what();
            EXPECT_NE(what.find(first.fp.hex()), std::string::npos) << what;
            EXPECT_NE(what.find("node " + std::to_string(first.node)),
                      std::string::npos)
                << what;
          }
        }
      }
    }
  }
}

// Every routing scheme must round-trip backup/restore bit-exactly.
class ClientSchemeSweep : public ::testing::TestWithParam<RoutingScheme> {};

TEST_P(ClientSchemeSweep, BackupRestoreRoundTrip) {
  ClientRig rig(GetParam(), 4);
  const auto session = make_session("s", 17, 3, 70000);
  rig.client->backup(session);
  for (const auto& file : session.files) {
    EXPECT_EQ(rig.client->restore("s", file.path), file.data) << file.path;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, ClientSchemeSweep,
                         ::testing::Values(RoutingScheme::kSigma,
                                           RoutingScheme::kStateless,
                                           RoutingScheme::kStateful));

}  // namespace
}  // namespace sigma
