// AVX2 implementation of the SIMD lower-bound kernel (paper Section IV-H,
// Algorithm 3 and Figure 6).
//
// Per 8-dimension chunk:
//   1. "Gather bound": the symbols of the candidate word index two flat
//      [dim][symbol] tables of interval bounds (one vgatherdps each).
//   2. "Caldist": distances to the LOWER and UPPER breakpoints.
//   3. "Genmask": comparison masks for the three branches (query below the
//      interval / above / inside). The ZERO branch needs no explicit mask —
//      masking the two non-zero branches and OR-ing them leaves in-interval
//      lanes at 0, exactly Eq. 2.
//   4. Weighted accumulation, horizontal sum per chunk, early abandon
//      against the best-so-far.
//
// The lookup-table kernels below replace steps 1-3 with one gather of
// precomputed terms. The file builds with -ffp-contract=off: a multiply
// fused into the accumulation would round differently from the stored
// term, and the table form must reproduce this kernel bit for bit.

#include "quant/lbd.h"

#if defined(SOFA_HAVE_AVX2)

#include <immintrin.h>

namespace sofa {
namespace quant {
namespace avx2 {
namespace {

inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_hadd_ps(sum, sum);
  sum = _mm_hadd_ps(sum, sum);
  return _mm_cvtss_f32(sum);
}

// Lane i of the result is i * alphabet.
inline __m256i LaneBase(std::size_t alphabet) {
  return _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                            _mm256_set1_epi32(static_cast<int>(alphabet)));
}

// Gather offsets of the 8-dim chunk starting at `dim`:
// (dim+i)*alphabet + word[dim+i], the flat [dim][symbol] index shared by
// the breakpoint arrays and the lookup table.
inline __m256i ChunkIndex(const std::uint8_t* word, std::size_t dim,
                          std::size_t alphabet, __m256i lane_base) {
  const __m256i symbols = _mm256_cvtepu8_epi32(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(word + dim)));
  return _mm256_add_epi32(
      _mm256_add_epi32(lane_base,
                       _mm256_set1_epi32(static_cast<int>(dim * alphabet))),
      symbols);
}

// Caldist + Genmask + masked combine (Algorithm 3 lines 6-8): distance
// from q to [lo, hi], 0 inside. The ZERO branch needs no mask — the two
// masked non-zero branches OR-ed together leave in-interval lanes at 0.
inline __m256 MinDist(__m256 q, __m256 lo, __m256 hi) {
  const __m256 dist_lower = _mm256_sub_ps(lo, q);  // >0 iff q below interval
  const __m256 dist_upper = _mm256_sub_ps(q, hi);  // >0 iff q above interval
  const __m256 mask_lower = _mm256_cmp_ps(q, lo, _CMP_LT_OQ);
  const __m256 mask_upper = _mm256_cmp_ps(q, hi, _CMP_GT_OQ);
  return _mm256_or_ps(_mm256_and_ps(mask_lower, dist_lower),
                      _mm256_and_ps(mask_upper, dist_upper));
}

// Weighted squared mindist of one 8-dim chunk starting at `dim`.
inline __m256 ChunkTerm(const float* lower, const float* upper,
                        const float* weights, const float* query_values,
                        const std::uint8_t* word, std::size_t dim,
                        std::size_t alphabet) {
  const __m256i idx = ChunkIndex(word, dim, alphabet, LaneBase(alphabet));
  const __m256 q = _mm256_loadu_ps(query_values + dim);
  const __m256 lo = _mm256_i32gather_ps(lower, idx, 4);
  const __m256 hi = _mm256_i32gather_ps(upper, idx, 4);
  const __m256 d = MinDist(q, lo, hi);
  const __m256 w = _mm256_loadu_ps(weights + dim);
  return _mm256_mul_ps(w, _mm256_mul_ps(d, d));
}

// Scalar handling of the last (l mod 8) dimensions.
inline float ScalarTail(const BreakpointTable& table, const float* weights,
                        const float* query_values, const std::uint8_t* word,
                        std::size_t dim) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  float sum = 0.0f;
  for (; dim < l; ++dim) {
    const std::size_t idx = dim * alphabet + word[dim];
    const float q = query_values[dim];
    float d = 0.0f;
    if (q < lower[idx]) {
      d = lower[idx] - q;
    } else if (q > upper[idx]) {
      d = q - upper[idx];
    }
    sum += weights[dim] * d * d;
  }
  return sum;
}

inline float TableTail(const float* lut, std::size_t l, std::size_t alphabet,
                       const std::uint8_t* word, std::size_t dim) {
  float sum = 0.0f;
  for (; dim < l; ++dim) {
    sum += lut[dim * alphabet + word[dim]];
  }
  return sum;
}

}  // namespace

float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  __m256 acc = _mm256_setzero_ps();
  std::size_t dim = 0;
  for (; dim + 8 <= l; dim += 8) {
    acc = _mm256_add_ps(
        acc, ChunkTerm(lower, upper, weights, query_values, word, dim,
                       alphabet));
  }
  return HorizontalSum(acc) +
         ScalarTail(table, weights, query_values, word, dim);
}

float LbdSquaredEarlyAbandon(const BreakpointTable& table,
                             const float* weights, const float* query_values,
                             const std::uint8_t* word, float bound) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  float sum = 0.0f;
  std::size_t dim = 0;
  for (; dim + 8 <= l; dim += 8) {
    sum += HorizontalSum(ChunkTerm(lower, upper, weights, query_values, word,
                                   dim, alphabet));
    if (sum > bound) {
      return sum;
    }
  }
  return sum + ScalarTail(table, weights, query_values, word, dim);
}

void BuildLbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values, float* lut) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const std::size_t simd_dims = l / 8 * 8;  // the rest is the scalar tail
  for (std::size_t dim = 0; dim < l; ++dim) {
    const std::size_t row = dim * alphabet;
    const float* lower = table.lower_bounds() + row;
    const float* upper = table.upper_bounds() + row;
    const float q = query_values[dim];
    const float w = weights[dim];
    const bool chunk_term = dim < simd_dims;
    const __m256 qv = _mm256_set1_ps(q);
    const __m256 wv = _mm256_set1_ps(w);
    std::size_t s = 0;
    for (; s + 8 <= alphabet; s += 8) {
      const __m256 d = MinDist(qv, _mm256_loadu_ps(lower + s),
                               _mm256_loadu_ps(upper + s));
      const __m256 term =
          chunk_term ? _mm256_mul_ps(wv, _mm256_mul_ps(d, d))
                     : _mm256_mul_ps(_mm256_mul_ps(wv, d), d);
      _mm256_storeu_ps(lut + row + s, term);
    }
    for (; s < alphabet; ++s) {
      float d = 0.0f;
      if (q < lower[s]) {
        d = lower[s] - q;
      } else if (q > upper[s]) {
        d = q - upper[s];
      }
      lut[row + s] = chunk_term ? w * (d * d) : w * d * d;
    }
  }
}

float LbdSquaredTable(const float* lut, std::size_t l, std::size_t alphabet,
                      const std::uint8_t* word) {
  const __m256i lane_base = LaneBase(alphabet);
  __m256 acc = _mm256_setzero_ps();
  std::size_t dim = 0;
  for (; dim + 8 <= l; dim += 8) {
    const __m256i idx = ChunkIndex(word, dim, alphabet, lane_base);
    acc = _mm256_add_ps(acc, _mm256_i32gather_ps(lut, idx, 4));
  }
  return HorizontalSum(acc) + TableTail(lut, l, alphabet, word, dim);
}

float LbdSquaredTableEarlyAbandon(const float* lut, std::size_t l,
                                  std::size_t alphabet,
                                  const std::uint8_t* word, float bound) {
  const __m256i lane_base = LaneBase(alphabet);
  float sum = 0.0f;
  std::size_t dim = 0;
  for (; dim + 8 <= l; dim += 8) {
    const __m256i idx = ChunkIndex(word, dim, alphabet, lane_base);
    sum += HorizontalSum(_mm256_i32gather_ps(lut, idx, 4));
    if (sum > bound) {
      return sum;
    }
  }
  return sum + TableTail(lut, l, alphabet, word, dim);
}

std::size_t LbdTableFilter(const float* lut, std::size_t l,
                           std::size_t alphabet, const std::uint8_t* words,
                           const std::uint32_t* ids, std::size_t n,
                           float bound, float inflation, LbdCandidate* out) {
  return internal::LbdTableFilterLoop<LbdSquaredTableEarlyAbandon>(
      lut, l, alphabet, words, ids, n, bound, inflation, out);
}

}  // namespace avx2
}  // namespace quant
}  // namespace sofa

#endif  // SOFA_HAVE_AVX2
