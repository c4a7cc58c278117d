// AVX-512 implementation of the SIMD lower-bound kernel: one 16-lane
// iteration covers the paper's default word length l = 16 entirely —
// gather both interval bounds, mask-select the UPPER/LOWER branches with
// native predicate masks, and reduce.
//
// Compiled with per-file -mavx512* flags; reached only via the runtime
// dispatch in lbd.cc. The lookup-table kernels read one gather of
// precomputed terms per 16 dims; -ffp-contract=off keeps every product
// rounded on its own, so the table form reproduces these kernels bit for
// bit.

#include "quant/lbd.h"

#if defined(SOFA_COMPILE_AVX512)

#include <immintrin.h>

namespace sofa {
namespace quant {
namespace avx512 {
namespace {

// Lane i of the result is i * alphabet.
inline __m512i LaneBase(std::size_t alphabet) {
  return _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(alphabet)));
}

// Gather offsets of the 16-dim chunk starting at `dim`:
// (dim+i)*alphabet + word[dim+i].
inline __m512i ChunkIndex(const std::uint8_t* word, std::size_t dim,
                          std::size_t alphabet, __m512i lane_base) {
  const __m512i symbols = _mm512_cvtepu8_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(word + dim)));
  return _mm512_add_epi32(
      _mm512_add_epi32(lane_base,
                       _mm512_set1_epi32(static_cast<int>(dim * alphabet))),
      symbols);
}

// Distance from q to [lo, hi], 0 inside.
inline __m512 MinDist(__m512 q, __m512 lo, __m512 hi) {
  const __mmask16 below = _mm512_cmp_ps_mask(q, lo, _CMP_LT_OQ);
  const __mmask16 above = _mm512_cmp_ps_mask(q, hi, _CMP_GT_OQ);
  __m512 d = _mm512_setzero_ps();
  d = _mm512_mask_mov_ps(d, below, _mm512_sub_ps(lo, q));
  return _mm512_mask_mov_ps(d, above, _mm512_sub_ps(q, hi));
}

// Weighted squared mindist of one 16-dim chunk starting at `dim`.
inline __m512 ChunkTerm(const float* lower, const float* upper,
                        const float* weights, const float* query_values,
                        const std::uint8_t* word, std::size_t dim,
                        std::size_t alphabet) {
  const __m512i idx = ChunkIndex(word, dim, alphabet, LaneBase(alphabet));
  const __m512 q = _mm512_loadu_ps(query_values + dim);
  const __m512 d = MinDist(q, _mm512_i32gather_ps(idx, lower, 4),
                           _mm512_i32gather_ps(idx, upper, 4));
  const __m512 w = _mm512_loadu_ps(weights + dim);
  return _mm512_mul_ps(w, _mm512_mul_ps(d, d));
}

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
  __m512 acc = _mm512_setzero_ps();
  std::size_t dim = 0;
  for (; dim + 16 <= l; dim += 16) {
    acc = _mm512_add_ps(acc, ChunkTerm(lower, upper, weights, query_values,
                                       word, dim, alphabet));
  }
  return _mm512_reduce_add_ps(acc) +
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
  for (; dim + 16 <= l; dim += 16) {
    sum += _mm512_reduce_add_ps(ChunkTerm(lower, upper, weights,
                                          query_values, word, dim,
                                          alphabet));
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
  const std::size_t simd_dims = l / 16 * 16;  // the rest is the scalar tail
  for (std::size_t dim = 0; dim < l; ++dim) {
    const std::size_t row = dim * alphabet;
    const float* lower = table.lower_bounds() + row;
    const float* upper = table.upper_bounds() + row;
    const float q = query_values[dim];
    const float w = weights[dim];
    const bool chunk_term = dim < simd_dims;
    const __m512 qv = _mm512_set1_ps(q);
    const __m512 wv = _mm512_set1_ps(w);
    std::size_t s = 0;
    for (; s + 16 <= alphabet; s += 16) {
      const __m512 d = MinDist(qv, _mm512_loadu_ps(lower + s),
                               _mm512_loadu_ps(upper + s));
      const __m512 term =
          chunk_term ? _mm512_mul_ps(wv, _mm512_mul_ps(d, d))
                     : _mm512_mul_ps(_mm512_mul_ps(wv, d), d);
      _mm512_storeu_ps(lut + row + s, term);
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
  const __m512i lane_base = LaneBase(alphabet);
  __m512 acc = _mm512_setzero_ps();
  std::size_t dim = 0;
  for (; dim + 16 <= l; dim += 16) {
    const __m512i idx = ChunkIndex(word, dim, alphabet, lane_base);
    acc = _mm512_add_ps(acc, _mm512_i32gather_ps(idx, lut, 4));
  }
  return _mm512_reduce_add_ps(acc) + TableTail(lut, l, alphabet, word, dim);
}

float LbdSquaredTableEarlyAbandon(const float* lut, std::size_t l,
                                  std::size_t alphabet,
                                  const std::uint8_t* word, float bound) {
  const __m512i lane_base = LaneBase(alphabet);
  float sum = 0.0f;
  std::size_t dim = 0;
  for (; dim + 16 <= l; dim += 16) {
    const __m512i idx = ChunkIndex(word, dim, alphabet, lane_base);
    sum += _mm512_reduce_add_ps(_mm512_i32gather_ps(idx, lut, 4));
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

}  // namespace avx512
}  // namespace quant
}  // namespace sofa

#endif  // SOFA_COMPILE_AVX512
