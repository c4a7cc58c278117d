// Tests for the quantization substrate: binning rules, normal quantiles,
// breakpoint tables with hierarchical cardinality, and the LBD kernels
// (scalar vs AVX2, early abandoning, node-level prefixes).

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance.h"  // CpuSupportsAvx512
#include "quant/binning.h"
#include "quant/breakpoint_table.h"
#include "quant/lbd.h"
#include "quant/normal_quantiles.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sofa {
namespace quant {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------- binning

TEST(BinningTest, EquiWidthEdgesAreEquallySpaced) {
  const std::vector<float> values = {0.0f, 10.0f};
  const auto edges = EquiWidthBreakpoints(values, 4);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_FLOAT_EQ(edges[0], 2.5f);
  EXPECT_FLOAT_EQ(edges[1], 5.0f);
  EXPECT_FLOAT_EQ(edges[2], 7.5f);
}

TEST(BinningTest, EquiDepthBalancesMass) {
  // 1000 uniform values: each of 4 bins should get ~250.
  Rng rng(1);
  std::vector<float> values(1000);
  for (auto& v : values) {
    v = static_cast<float>(rng.Uniform());
  }
  const auto edges = EquiDepthBreakpoints(values, 4);
  ASSERT_EQ(edges.size(), 3u);
  std::vector<int> counts(4, 0);
  for (float v : values) {
    counts[Quantize(v, edges.data(), 4)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 250, 20);
  }
}

TEST(BinningTest, EquiDepthEdgesAreMonotone) {
  Rng rng(2);
  std::vector<float> values(500);
  for (auto& v : values) {
    v = static_cast<float>(rng.Gaussian());
  }
  const auto edges = EquiDepthBreakpoints(values, 256);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    ASSERT_LE(edges[i - 1], edges[i]);
  }
}

TEST(BinningTest, EquiWidthDegenerateSampleYieldsEqualEdges) {
  const std::vector<float> values(10, 3.0f);
  const auto edges = EquiWidthBreakpoints(values, 8);
  for (float e : edges) {
    EXPECT_FLOAT_EQ(e, 3.0f);
  }
  // Everything still quantizes into a valid symbol.
  EXPECT_LT(Quantize(2.0f, edges.data(), 8), 8);
  EXPECT_LT(Quantize(3.0f, edges.data(), 8), 8);
  EXPECT_LT(Quantize(4.0f, edges.data(), 8), 8);
}

TEST(BinningTest, QuantizeHalfOpenIntervalConvention) {
  // Bin b covers [edge[b-1], edge[b]).
  const std::vector<float> edges = {1.0f, 2.0f, 3.0f};
  EXPECT_EQ(Quantize(0.5f, edges.data(), 4), 0);
  EXPECT_EQ(Quantize(1.0f, edges.data(), 4), 1);  // on edge -> upper bin
  EXPECT_EQ(Quantize(1.5f, edges.data(), 4), 1);
  EXPECT_EQ(Quantize(2.0f, edges.data(), 4), 2);
  EXPECT_EQ(Quantize(2.999f, edges.data(), 4), 2);
  EXPECT_EQ(Quantize(3.0f, edges.data(), 4), 3);
  EXPECT_EQ(Quantize(100.0f, edges.data(), 4), 3);
}

TEST(BinningTest, QuantizeMatchesLinearScanForRandomInput) {
  Rng rng(3);
  std::vector<float> sample(300);
  for (auto& v : sample) {
    v = static_cast<float>(rng.Gaussian());
  }
  for (const std::size_t alphabet : {2u, 8u, 64u, 256u}) {
    const auto edges = EquiDepthBreakpoints(sample, alphabet);
    for (int trial = 0; trial < 500; ++trial) {
      const float v = static_cast<float>(rng.Gaussian(0.0, 2.0));
      std::size_t expected = 0;
      while (expected < alphabet - 1 && edges[expected] <= v) {
        ++expected;
      }
      ASSERT_EQ(Quantize(v, edges.data(), alphabet), expected)
          << "value " << v << " alphabet " << alphabet;
    }
  }
}

TEST(BinningTest, LearnBreakpointsDispatches) {
  const std::vector<float> values = {0.0f, 1.0f, 2.0f, 3.0f, 4.0f,
                                     5.0f, 6.0f, 7.0f, 8.0f, 10.0f};
  const auto ew = LearnBreakpoints(values, 2, BinningMethod::kEquiWidth);
  const auto ed = LearnBreakpoints(values, 2, BinningMethod::kEquiDepth);
  ASSERT_EQ(ew.size(), 1u);
  ASSERT_EQ(ed.size(), 1u);
  EXPECT_FLOAT_EQ(ew[0], 5.0f);   // midpoint of range
  EXPECT_NEAR(ed[0], 4.5f, 0.1f); // median
}

TEST(BinningTest, MethodNames) {
  EXPECT_STREQ(BinningMethodName(BinningMethod::kEquiDepth), "equi-depth");
  EXPECT_STREQ(BinningMethodName(BinningMethod::kEquiWidth), "equi-width");
}

// ------------------------------------------------------- normal quantiles

TEST(NormalQuantilesTest, KnownQuantiles) {
  EXPECT_NEAR(InverseStdNormalCdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(InverseStdNormalCdf(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(InverseStdNormalCdf(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(InverseStdNormalCdf(0.8413447461), 1.0, 1e-6);
}

TEST(NormalQuantilesTest, RoundTripsThroughCdf) {
  for (double p = 0.001; p < 1.0; p += 0.013) {
    const double x = InverseStdNormalCdf(p);
    EXPECT_NEAR(stats::StdNormalCdf(x), p, 1e-9) << "p=" << p;
  }
}

TEST(NormalQuantilesTest, BreakpointsSymmetricAndMonotone) {
  for (const std::size_t alphabet : {2u, 4u, 8u, 256u}) {
    const auto edges = NormalBreakpoints(alphabet);
    ASSERT_EQ(edges.size(), alphabet - 1);
    for (std::size_t i = 1; i < edges.size(); ++i) {
      ASSERT_LT(edges[i - 1], edges[i]);
    }
    // Symmetry around 0.
    for (std::size_t i = 0; i < edges.size(); ++i) {
      ASSERT_NEAR(edges[i], -edges[edges.size() - 1 - i], 1e-5);
    }
  }
}

TEST(NormalQuantilesTest, ClassicSaxBreakpointsAlphabet4) {
  // The textbook SAX table for |Σ|=4: {-0.6745, 0, 0.6745}.
  const auto edges = NormalBreakpoints(4);
  EXPECT_NEAR(edges[0], -0.6745f, 1e-3f);
  EXPECT_NEAR(edges[1], 0.0f, 1e-6f);
  EXPECT_NEAR(edges[2], 0.6745f, 1e-3f);
}

// ---------------------------------------------------- breakpoint table

BreakpointTable MakeTestTable(std::size_t dims, std::size_t alphabet,
                              std::uint64_t seed) {
  Rng rng(seed);
  BreakpointTable table(dims, alphabet);
  for (std::size_t d = 0; d < dims; ++d) {
    std::vector<float> sample(400);
    for (auto& v : sample) {
      v = static_cast<float>(rng.Gaussian(0.0, 1.0 + d));
    }
    table.SetDimension(d, EquiDepthBreakpoints(sample, alphabet));
  }
  return table;
}

TEST(BreakpointTableTest, BitsComputed) {
  EXPECT_EQ(BreakpointTable(4, 256).bits(), 8u);
  EXPECT_EQ(BreakpointTable(4, 2).bits(), 1u);
  EXPECT_EQ(BreakpointTable(4, 16).bits(), 4u);
}

TEST(BreakpointTableTest, FullCardinalityBoundsBracketValue) {
  const auto table = MakeTestTable(4, 256, 11);
  Rng rng(12);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t dim = rng.Below(4);
    const float v = static_cast<float>(rng.Gaussian(0.0, 3.0));
    const std::uint8_t s = table.Quantize(dim, v);
    EXPECT_LE(table.PrefixLower(dim, s, 8), v);
    EXPECT_GT(table.PrefixUpper(dim, s, 8), v);
  }
}

TEST(BreakpointTableTest, OuterBinsExtendToInfinity) {
  const auto table = MakeTestTable(2, 16, 13);
  EXPECT_EQ(table.PrefixLower(0, 0, 4), -kInf);
  EXPECT_EQ(table.PrefixUpper(0, 15, 4), kInf);
  EXPECT_EQ(table.PrefixLower(1, 0, 1), -kInf);
  EXPECT_EQ(table.PrefixUpper(1, 1, 1), kInf);
}

TEST(BreakpointTableTest, PrefixIntervalsNestProperly) {
  // The interval of a prefix at cardinality c contains the intervals of
  // both its cardinality-(c+1) children.
  const auto table = MakeTestTable(1, 256, 14);
  for (std::uint32_t c = 1; c < 8; ++c) {
    for (std::uint32_t p = 0; p < (1u << c); ++p) {
      const float lo = table.PrefixLower(0, p, c);
      const float hi = table.PrefixUpper(0, p, c);
      const float child0_lo = table.PrefixLower(0, 2 * p, c + 1);
      const float child1_hi = table.PrefixUpper(0, 2 * p + 1, c + 1);
      ASSERT_EQ(lo, child0_lo);
      ASSERT_EQ(hi, child1_hi);
      ASSERT_LE(table.PrefixUpper(0, 2 * p, c + 1),
                table.PrefixLower(0, 2 * p + 1, c + 1) + 1e-20f);
    }
  }
}

TEST(BreakpointTableTest, MinDistZeroInsideInterval) {
  const auto table = MakeTestTable(2, 64, 15);
  Rng rng(16);
  for (int trial = 0; trial < 500; ++trial) {
    const float v = static_cast<float>(rng.Gaussian());
    const std::uint8_t s = table.Quantize(0, v);
    EXPECT_EQ(table.MinDist(0, s, v), 0.0f);
  }
}

TEST(BreakpointTableTest, MinDistIsDistanceToNearestBreakpoint) {
  BreakpointTable table(1, 4);
  table.SetDimension(0, {-1.0f, 0.0f, 1.0f});
  // Symbol 1 covers [-1, 0).
  EXPECT_FLOAT_EQ(table.MinDist(0, 1, -2.0f), 1.0f);   // below
  EXPECT_FLOAT_EQ(table.MinDist(0, 1, -0.5f), 0.0f);   // inside
  EXPECT_FLOAT_EQ(table.MinDist(0, 1, 0.75f), 0.75f);  // above
}

TEST(BreakpointTableTest, MinDistPrefixNeverExceedsFullCardinality) {
  // Coarser intervals are supersets: mindist must be monotonically
  // non-increasing as cardinality decreases.
  const auto table = MakeTestTable(1, 256, 17);
  Rng rng(18);
  for (int trial = 0; trial < 1000; ++trial) {
    const float word_value = static_cast<float>(rng.Gaussian());
    const float query = static_cast<float>(rng.Gaussian(0.0, 2.0));
    const std::uint8_t s = table.Quantize(0, word_value);
    float previous = table.MinDist(0, s, query);
    for (std::uint32_t c = 7; c >= 1; --c) {
      const std::uint32_t prefix = s >> (8 - c);
      const float d = table.MinDistPrefix(0, prefix, c, query);
      ASSERT_LE(d, previous + 1e-6f);
      previous = d;
    }
  }
}

TEST(BreakpointTableTest, GatherArraysMatchPrefixBounds) {
  const auto table = MakeTestTable(3, 32, 19);
  for (std::size_t dim = 0; dim < 3; ++dim) {
    for (std::uint32_t s = 0; s < 32; ++s) {
      EXPECT_EQ(table.lower_bounds()[dim * 32 + s],
                table.PrefixLower(dim, s, 5));
      EXPECT_EQ(table.upper_bounds()[dim * 32 + s],
                table.PrefixUpper(dim, s, 5));
    }
  }
}

// ---------------------------------------------------------------- LBD

struct LbdFixture {
  BreakpointTable table;
  std::vector<float> weights;

  LbdFixture(std::size_t dims, std::size_t alphabet, std::uint64_t seed)
      : table(MakeTestTable(dims, alphabet, seed)), weights(dims) {
    Rng rng(seed + 1);
    for (auto& w : weights) {
      w = static_cast<float>(rng.Uniform(0.5, 3.0));
    }
  }
};

class LbdDimsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LbdDimsTest, ScalarMatchesDirectEvaluation) {
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 256, 21);
  Rng rng(22);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    double expected = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
      const double m = fx.table.MinDist(d, word[d], query[d]);
      expected += fx.weights[d] * m * m;
    }
    const float actual = scalar::LbdSquared(fx.table, fx.weights.data(),
                                            query.data(), word.data());
    ASSERT_NEAR(actual, expected, 1e-4 * (expected + 1.0));
  }
}

#if defined(SOFA_HAVE_AVX2)
TEST_P(LbdDimsTest, Avx2MatchesScalar) {
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 256, 23);
  Rng rng(24);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    const float s = scalar::LbdSquared(fx.table, fx.weights.data(),
                                       query.data(), word.data());
    const float v = avx2::LbdSquared(fx.table, fx.weights.data(),
                                     query.data(), word.data());
    ASSERT_NEAR(v, s, 1e-4f * (s + 1.0f));
  }
}

TEST_P(LbdDimsTest, Avx2EarlyAbandonDecisionsMatchScalarExact) {
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 64, 25);
  Rng rng(26);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    const float exact = scalar::LbdSquared(fx.table, fx.weights.data(),
                                           query.data(), word.data());
    const float bound = static_cast<float>(rng.Uniform(0.0, exact + 1.0));
    const float result = avx2::LbdSquaredEarlyAbandon(
        fx.table, fx.weights.data(), query.data(), word.data(), bound);
    if (result > bound) {
      ASSERT_GT(exact, bound * (1.0f - 1e-4f));
    } else {
      ASSERT_NEAR(result, exact, 1e-4f * (exact + 1.0f));
    }
  }
}
#endif  // SOFA_HAVE_AVX2

#if defined(SOFA_COMPILE_AVX512)
TEST_P(LbdDimsTest, Avx512MatchesScalar) {
  if (!CpuSupportsAvx512()) {
    GTEST_SKIP() << "AVX512 not available on this machine";
  }
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 256, 41);
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    const float s = scalar::LbdSquared(fx.table, fx.weights.data(),
                                       query.data(), word.data());
    const float v = avx512::LbdSquared(fx.table, fx.weights.data(),
                                       query.data(), word.data());
    ASSERT_NEAR(v, s, 1e-4f * (s + 1.0f));
  }
}

TEST_P(LbdDimsTest, Avx512EarlyAbandonDecisionsMatchScalarExact) {
  if (!CpuSupportsAvx512()) {
    GTEST_SKIP() << "AVX512 not available on this machine";
  }
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 64, 43);
  Rng rng(44);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> query(dims);
    std::vector<std::uint8_t> word(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
    }
    const float exact = scalar::LbdSquared(fx.table, fx.weights.data(),
                                           query.data(), word.data());
    const float bound = static_cast<float>(rng.Uniform(0.0, exact + 1.0));
    const float result = avx512::LbdSquaredEarlyAbandon(
        fx.table, fx.weights.data(), query.data(), word.data(), bound);
    if (result > bound) {
      ASSERT_GT(exact, bound * (1.0f - 1e-4f));
    } else {
      ASSERT_NEAR(result, exact, 1e-4f * (exact + 1.0f));
    }
  }
}
#endif  // SOFA_COMPILE_AVX512

TEST_P(LbdDimsTest, EarlyAbandonWithInfiniteBoundIsExact) {
  const std::size_t dims = GetParam();
  LbdFixture fx(dims, 128, 27);
  Rng rng(28);
  std::vector<float> query(dims);
  std::vector<std::uint8_t> word(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
    word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
  }
  const float exact =
      LbdSquared(fx.table, fx.weights.data(), query.data(), word.data());
  const float ea = LbdSquaredEarlyAbandon(fx.table, fx.weights.data(),
                                          query.data(), word.data(), kInf);
  EXPECT_NEAR(ea, exact, 1e-4f * (exact + 1.0f));
}

INSTANTIATE_TEST_SUITE_P(Dims, LbdDimsTest,
                         ::testing::Values(1, 4, 7, 8, 9, 15, 16, 17, 24, 32));

TEST(LbdTest, ZeroForWordOfSameValues) {
  // A query whose projection falls inside every interval of the word has
  // LBD 0 — in particular the word of the query itself.
  LbdFixture fx(16, 256, 29);
  Rng rng(30);
  std::vector<float> query(16);
  std::vector<std::uint8_t> word(16);
  for (std::size_t d = 0; d < 16; ++d) {
    query[d] = static_cast<float>(rng.Gaussian());
    word[d] = fx.table.Quantize(d, query[d]);
  }
  EXPECT_EQ(LbdSquared(fx.table, fx.weights.data(), query.data(),
                       word.data()),
            0.0f);
}

TEST(LbdTest, NodeLbdUnconstrainedDimsContributeNothing) {
  LbdFixture fx(8, 256, 31);
  std::vector<float> query(8, 100.0f);  // far outside everything
  std::vector<std::uint8_t> prefixes(8, 0);
  std::vector<std::uint8_t> cards(8, 0);  // all unconstrained
  EXPECT_EQ(NodeLbdSquared(fx.table, fx.weights.data(), query.data(),
                           prefixes.data(), cards.data()),
            0.0f);
}

TEST(LbdTest, NodeLbdNeverExceedsLeafLbd) {
  // Node prefixes are coarser than full-cardinality words, so the node LBD
  // must lower-bound the word LBD for any contained word.
  LbdFixture fx(16, 256, 32);
  Rng rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<float> query(16);
    std::vector<std::uint8_t> word(16);
    std::vector<std::uint8_t> prefixes(16);
    std::vector<std::uint8_t> cards(16);
    for (std::size_t d = 0; d < 16; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
      word[d] = fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
      cards[d] = static_cast<std::uint8_t>(rng.Below(9));  // 0..8
      prefixes[d] =
          cards[d] == 0 ? 0 : static_cast<std::uint8_t>(word[d] >> (8 - cards[d]));
    }
    const float node = NodeLbdSquared(fx.table, fx.weights.data(),
                                      query.data(), prefixes.data(),
                                      cards.data());
    const float leaf = LbdSquared(fx.table, fx.weights.data(), query.data(),
                                  word.data());
    ASSERT_LE(node, leaf * (1.0f + 1e-5f) + 1e-5f);
  }
}

// Pinned numeric outputs for a hand-built table: the values below are
// exact in float arithmetic (small integers), so every ISA — and every
// future refactor — must reproduce them bit for bit. A regression here
// means the mindist semantics changed, not just its rounding.
TEST(LbdGoldenTest, PinnedVectorsMatchEveryIsa) {
  const std::size_t dims = 16;
  BreakpointTable table(dims, 4);
  for (std::size_t d = 0; d < dims; ++d) {
    table.SetDimension(d, {-1.0f, 0.0f, 1.0f});
  }
  // word d%4 cycles the four intervals; query 2.0 sits above all of
  // them, so per-dim mindist² cycles 9 (code 0: 2-(-1)), 4, 1, 0.
  std::vector<float> query(dims, 2.0f);
  std::vector<std::uint8_t> word(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    word[d] = static_cast<std::uint8_t>(d % 4);
  }
  const std::vector<float> unit(dims, 1.0f);
  std::vector<float> alternating(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    alternating[d] = static_cast<float>(d % 2 + 1);  // 1,2,1,2,...
  }
  // 4 · (9 + 4 + 1 + 0) = 56; weighted: 4 · (9 + 8 + 1 + 0) = 72.
  EXPECT_EQ(scalar::LbdSquared(table, unit.data(), query.data(), word.data()),
            56.0f);
  EXPECT_EQ(scalar::LbdSquared(table, alternating.data(), query.data(),
                               word.data()),
            72.0f);
  EXPECT_EQ(LbdSquared(table, unit.data(), query.data(), word.data()), 56.0f);
  EXPECT_EQ(LbdSquaredEarlyAbandon(table, unit.data(), query.data(),
                                   word.data(), kInf),
            56.0f);
#if defined(SOFA_HAVE_AVX2)
  EXPECT_EQ(avx2::LbdSquared(table, unit.data(), query.data(), word.data()),
            56.0f);
  EXPECT_EQ(avx2::LbdSquared(table, alternating.data(), query.data(),
                             word.data()),
            72.0f);
#endif
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    EXPECT_EQ(
        avx512::LbdSquared(table, unit.data(), query.data(), word.data()),
        56.0f);
    EXPECT_EQ(avx512::LbdSquared(table, alternating.data(), query.data(),
                                 word.data()),
              72.0f);
  }
#endif
}

TEST(LbdTest, WeightsScaleContributions) {
  BreakpointTable table(1, 4);
  table.SetDimension(0, {-1.0f, 0.0f, 1.0f});
  const float query[] = {2.0f};
  const std::uint8_t word[] = {0};  // interval (-inf, -1): mindist = 3
  const float w1[] = {1.0f};
  const float w4[] = {4.0f};
  EXPECT_FLOAT_EQ(scalar::LbdSquared(table, w1, query, word), 9.0f);
  EXPECT_FLOAT_EQ(scalar::LbdSquared(table, w4, query, word), 36.0f);
}

// ------------------------------------------------ LBD lookup table

// One compiled LBD tier: its reference kernels and its table kernels.
struct LbdTier {
  const char* name;
  void (*build)(const BreakpointTable&, const float*, const float*, float*);
  float (*table_lbd)(const float*, std::size_t, std::size_t,
                     const std::uint8_t*);
  float (*table_lbd_ea)(const float*, std::size_t, std::size_t,
                        const std::uint8_t*, float);
  std::size_t (*filter)(const float*, std::size_t, std::size_t,
                        const std::uint8_t*, const std::uint32_t*,
                        std::size_t, float, float, LbdCandidate*);
  float (*lbd)(const BreakpointTable&, const float*, const float*,
               const std::uint8_t*);
  float (*lbd_ea)(const BreakpointTable&, const float*, const float*,
                  const std::uint8_t*, float);
};

// Every tier this binary can run on this CPU.
std::vector<LbdTier> RunnableLbdTiers() {
  std::vector<LbdTier> tiers = {
      {"scalar", scalar::BuildLbdTable, scalar::LbdSquaredTable,
       scalar::LbdSquaredTableEarlyAbandon, scalar::LbdTableFilter,
       scalar::LbdSquared, scalar::LbdSquaredEarlyAbandon}};
#if defined(SOFA_HAVE_AVX2)
  tiers.push_back({"avx2", avx2::BuildLbdTable, avx2::LbdSquaredTable,
                   avx2::LbdSquaredTableEarlyAbandon, avx2::LbdTableFilter,
                   avx2::LbdSquared, avx2::LbdSquaredEarlyAbandon});
#endif
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    tiers.push_back({"avx512", avx512::BuildLbdTable,
                     avx512::LbdSquaredTable,
                     avx512::LbdSquaredTableEarlyAbandon,
                     avx512::LbdTableFilter, avx512::LbdSquared,
                     avx512::LbdSquaredEarlyAbandon});
  }
#endif
  return tiers;
}

std::uint32_t Bits(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// A query and word mix for table-vs-reference checks: every third
// dimension's symbol is pinned to 0 or alphabet-1 (the intervals that
// reach ±inf), and a quarter of the query values sit outside the
// outermost breakpoints.
void MakeTableCase(const BreakpointTable& table, Rng* rng,
                   std::vector<float>* query, std::vector<std::uint8_t>* word) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  query->resize(l);
  word->resize(l);
  for (std::size_t d = 0; d < l; ++d) {
    const float first = table.upper_bounds()[d * alphabet];
    const float last = table.lower_bounds()[d * alphabet + alphabet - 1];
    switch (rng->Below(4)) {
      case 0:
        (*query)[d] = first - static_cast<float>(rng->Uniform(0.1, 5.0));
        break;
      case 1:
        (*query)[d] = last + static_cast<float>(rng->Uniform(0.1, 5.0));
        break;
      default:
        (*query)[d] = static_cast<float>(rng->Gaussian(0.0, 2.0 + d));
    }
    switch (rng->Below(3)) {
      case 0:
        (*word)[d] = 0;
        break;
      case 1:
        (*word)[d] = static_cast<std::uint8_t>(alphabet - 1);
        break;
      default:
        (*word)[d] = static_cast<std::uint8_t>(rng->Below(alphabet));
    }
  }
}

// The engine reads only the table form, so it must be the reference
// kernel bit for bit — per tier, for word lengths with and without a
// scalar tail, small and full alphabets, zero weights, edge symbols and
// queries beyond the outermost breakpoints.
TEST(LbdTableTest, EqualsEveryTiersReferenceKernelBitForBit) {
  for (const LbdTier& tier : RunnableLbdTiers()) {
    for (const std::size_t l : {8, 16, 20, 32}) {
      for (const std::size_t alphabet : {4, 16, 256}) {
        SCOPED_TRACE(::testing::Message() << tier.name << " l=" << l
                                          << " alphabet=" << alphabet);
        const BreakpointTable table = MakeTestTable(l, alphabet, 61 + l);
        Rng rng(62 + alphabet);
        std::vector<float> weights(l);
        for (std::size_t d = 0; d < l; ++d) {
          weights[d] = d % 5 == 3 ? 0.0f
                                  : static_cast<float>(rng.Uniform(0.5, 3.0));
        }
        std::vector<float> lut(l * alphabet);
        for (int trial = 0; trial < 40; ++trial) {
          std::vector<float> query;
          std::vector<std::uint8_t> word;
          MakeTableCase(table, &rng, &query, &word);
          tier.build(table, weights.data(), query.data(), lut.data());
          const float exact =
              tier.lbd(table, weights.data(), query.data(), word.data());
          ASSERT_EQ(Bits(tier.table_lbd(lut.data(), l, alphabet,
                                        word.data())),
                    Bits(exact));
          for (const float bound : {kInf, 0.0f, 0.3f * exact, 0.7f * exact,
                                    exact, 2.0f * exact}) {
            ASSERT_EQ(Bits(tier.table_lbd_ea(lut.data(), l, alphabet,
                                             word.data(), bound)),
                      Bits(tier.lbd_ea(table, weights.data(), query.data(),
                                       word.data(), bound)))
                << "bound " << bound;
          }
        }
      }
    }
  }
}

// The leaf filter keeps exactly the words the inline per-series check
// keeps (lbd · inflation < bound, LBD abandoned at bound / inflation),
// in order, with the reference LBD of each.
TEST(LbdTableTest, FilterKeepsWhatTheInlineCheckKeeps) {
  const std::size_t l = 16;
  const std::size_t alphabet = 256;
  const std::size_t n = 300;
  for (const LbdTier& tier : RunnableLbdTiers()) {
    SCOPED_TRACE(tier.name);
    LbdFixture fx(l, alphabet, 71);
    Rng rng(72);
    std::vector<float> query(l);
    for (std::size_t d = 0; d < l; ++d) {
      query[d] = static_cast<float>(rng.Gaussian(0.0, 2.0));
    }
    std::vector<std::uint8_t> words(n * l);
    std::vector<std::uint32_t> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<std::uint32_t>(1000 + 7 * i);
      for (std::size_t d = 0; d < l; ++d) {
        words[i * l + d] =
            fx.table.Quantize(d, static_cast<float>(rng.Gaussian()));
      }
    }
    std::vector<float> lut(l * alphabet);
    tier.build(fx.table, fx.weights.data(), query.data(), lut.data());
    const float median = tier.lbd(fx.table, fx.weights.data(), query.data(),
                                  words.data());
    for (const float inflation : {1.0f, 2.25f}) {
      for (const float bound : {kInf, 0.0f, median, 3.0f * median}) {
        std::vector<LbdCandidate> out(n);
        const std::size_t kept =
            tier.filter(lut.data(), l, alphabet, words.data(), ids.data(), n,
                        bound, inflation, out.data());
        std::size_t expected = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const float lbd =
              tier.lbd_ea(fx.table, fx.weights.data(), query.data(),
                          words.data() + i * l, bound / inflation);
          if (lbd * inflation >= bound) {
            continue;
          }
          ASSERT_LT(expected, kept);
          EXPECT_EQ(out[expected].id, ids[i]);
          EXPECT_EQ(Bits(out[expected].lbd_sq), Bits(lbd));
          ++expected;
        }
        EXPECT_EQ(kept, expected) << "inflation " << inflation << " bound "
                                  << bound;
      }
    }
  }
}

}  // namespace
}  // namespace quant
}  // namespace sofa
