// Exactness of the engine's two-pass leaf scan (table LBD filter, then
// the refine pass with its live-BSF re-check) against a brute
// force that runs no engine code. Two generated sets: high-frequency
// LenDB, where the summary LBD prunes least and the refine pass does the
// most work, and low-frequency SALD, where the LBD is tight enough that
// a re-check pruning on a wrong bound loses true neighbors.
//
// The matrix covers the branches where the refine pass's re-check can
// differ from a per-series inline check: one and four engine workers
// (a BSF that tightens between the two passes, also from other workers),
// the rowq tier on and off (the re-check runs before it), and ε = 0 and
// 0.5 (the stored LBD is compared inflated).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datasets.h"
#include "harness/oracle.h"
#include "index/query_engine.h"
#include "index/tree_index.h"
#include "quant/rowq.h"
#include "util/thread_pool.h"

namespace sofa {
namespace {

constexpr std::size_t kK = 10;

ThreadPool* Pool() {
  static ThreadPool* pool = new ThreadPool(4);
  return pool;
}

LabeledDataset MakeSet(const std::string& name) {
  datagen::GenerateOptions gen;
  gen.count = 6000;
  gen.num_queries = 24;
  gen.seed = 15;
  return datagen::MakeDatasetByName(name, gen, Pool());
}

struct ScanFixture {
  LabeledDataset ds;
  std::shared_ptr<const quant::SummaryScheme> scheme;
  std::unique_ptr<index::TreeIndex> tree;
  std::shared_ptr<const quant::RowQuant> rowq;

  explicit ScanFixture(const std::string& name) : ds(MakeSet(name)) {
    scheme = testing_harness::TrainTestScheme(ds.data, Pool());
    index::IndexConfig config;
    config.leaf_capacity = 100;
    tree = std::make_unique<index::TreeIndex>(&ds.data, scheme.get(), config,
                                              Pool());
    rowq = quant::RowQuant::Build(ds.data);
  }
};

// One fixture per dataset, built on first use.
ScanFixture& Fixture(const std::string& name) {
  static auto* fixtures =
      new std::map<std::string, std::unique_ptr<ScanFixture>>();
  std::unique_ptr<ScanFixture>& fixture = (*fixtures)[name];
  if (fixture == nullptr) {
    fixture = std::make_unique<ScanFixture>(name);
  }
  return *fixture;
}

class EngineExactnessTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineExactnessTest, TwoPassScanMatchesBruteForceBitForBit) {
  ScanFixture& fx = Fixture(GetParam());
  for (const bool with_rowq : {false, true}) {
    fx.tree->AttachRowQuant(with_rowq ? fx.rowq : nullptr);
    const index::QueryEngine engine(fx.tree.get());
    for (const std::size_t threads : {1, 4}) {
      std::uint64_t rowq_checked = 0;
      for (std::size_t q = 0; q < fx.ds.queries.size(); ++q) {
        SCOPED_TRACE(::testing::Message() << "rowq=" << with_rowq
                                          << " threads=" << threads
                                          << " query=" << q);
        const float* query = fx.ds.queries.row(q);
        index::QueryProfile profile;
        const std::vector<Neighbor> actual =
            engine.Search(query, kK, 0.0, &profile, threads);
        ASSERT_TRUE(testing_harness::BitIdentical(
            actual, testing_harness::BruteForceWithEngineKernel(
                        fx.ds.data, query, kK)));
        rowq_checked += profile.rowq_checked;
      }
      // The rowq tier really ran between the re-check and the exact
      // kernel (or was really off).
      EXPECT_EQ(rowq_checked > 0, with_rowq);
    }
  }
  fx.tree->AttachRowQuant(nullptr);
}

TEST_P(EngineExactnessTest, ApproximateTwoPassScanKeepsTheEpsilonGuarantee) {
  ScanFixture& fx = Fixture(GetParam());
  constexpr double kEpsilon = 0.5;
  for (const bool with_rowq : {false, true}) {
    fx.tree->AttachRowQuant(with_rowq ? fx.rowq : nullptr);
    const index::QueryEngine engine(fx.tree.get());
    for (const std::size_t threads : {1, 4}) {
      for (std::size_t q = 0; q < fx.ds.queries.size(); ++q) {
        SCOPED_TRACE(::testing::Message() << "rowq=" << with_rowq
                                          << " threads=" << threads
                                          << " query=" << q);
        const float* query = fx.ds.queries.row(q);
        const std::vector<Neighbor> actual =
            engine.Search(query, kK, kEpsilon, nullptr, threads);
        const std::vector<Neighbor> exact =
            testing_harness::BruteForceWithEngineKernel(fx.ds.data, query,
                                                        fx.ds.data.size());
        ASSERT_EQ(actual.size(), kK);
        std::vector<bool> seen(fx.ds.data.size(), false);
        for (std::size_t rank = 0; rank < kK; ++rank) {
          const Neighbor& got = actual[rank];
          ASSERT_LT(got.id, fx.ds.data.size());
          EXPECT_FALSE(seen[got.id]) << "id " << got.id << " reported twice";
          seen[got.id] = true;
          // Every reported distance is the true one of its id, bit for
          // bit, and within (1+ε) of the exact distance at its rank.
          float true_distance = -1.0f;
          for (const Neighbor& nb : exact) {
            if (nb.id == got.id) {
              true_distance = nb.distance;
              break;
            }
          }
          EXPECT_EQ(got.distance, true_distance) << "rank " << rank;
          // (The guarantee holds on squared floats; allow their rounding.)
          EXPECT_LE(got.distance, static_cast<float>(1.0 + kEpsilon) *
                                      exact[rank].distance * (1.0f + 1e-6f))
              << "rank " << rank;
          if (rank > 0) {
            EXPECT_LE(actual[rank - 1].distance, got.distance);
          }
        }
      }
    }
  }
  fx.tree->AttachRowQuant(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Datasets, EngineExactnessTest,
                         ::testing::Values("LenDB", "SALD"));

}  // namespace
}  // namespace sofa
