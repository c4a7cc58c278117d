#include "quant/lbd.h"

#include <algorithm>

#include "core/distance.h"  // CpuSupportsAvx512

namespace sofa {
namespace quant {
namespace scalar {

float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  float sum = 0.0f;
  for (std::size_t dim = 0; dim < l; ++dim) {
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

float LbdSquaredEarlyAbandon(const BreakpointTable& table,
                             const float* weights, const float* query_values,
                             const std::uint8_t* word, float bound) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  float sum = 0.0f;
  std::size_t dim = 0;
  while (dim < l) {
    const std::size_t chunk_end = std::min(l, dim + 8);
    for (; dim < chunk_end; ++dim) {
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
    if (sum > bound) {
      return sum;
    }
  }
  return sum;
}

void BuildLbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values, float* lut) {
  const std::size_t l = table.word_length();
  const std::size_t alphabet = table.alphabet();
  const float* lower = table.lower_bounds();
  const float* upper = table.upper_bounds();
  for (std::size_t idx = 0; idx < l * alphabet; ++idx) {
    const std::size_t dim = idx / alphabet;
    const float q = query_values[dim];
    float d = 0.0f;
    if (q < lower[idx]) {
      d = lower[idx] - q;
    } else if (q > upper[idx]) {
      d = q - upper[idx];
    }
    lut[idx] = weights[dim] * d * d;
  }
}

float LbdSquaredTable(const float* lut, std::size_t l, std::size_t alphabet,
                      const std::uint8_t* word) {
  float sum = 0.0f;
  for (std::size_t dim = 0; dim < l; ++dim) {
    sum += lut[dim * alphabet + word[dim]];
  }
  return sum;
}

float LbdSquaredTableEarlyAbandon(const float* lut, std::size_t l,
                                  std::size_t alphabet,
                                  const std::uint8_t* word, float bound) {
  float sum = 0.0f;
  std::size_t dim = 0;
  while (dim < l) {
    const std::size_t chunk_end = std::min(l, dim + 8);
    for (; dim < chunk_end; ++dim) {
      sum += lut[dim * alphabet + word[dim]];
    }
    if (sum > bound) {
      return sum;
    }
  }
  return sum;
}

std::size_t LbdTableFilter(const float* lut, std::size_t l,
                           std::size_t alphabet, const std::uint8_t* words,
                           const std::uint32_t* ids, std::size_t n,
                           float bound, float inflation, LbdCandidate* out) {
  return internal::LbdTableFilterLoop<LbdSquaredTableEarlyAbandon>(
      lut, l, alphabet, words, ids, n, bound, inflation, out);
}

}  // namespace scalar

float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word) {
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    return avx512::LbdSquared(table, weights, query_values, word);
  }
#endif
#if defined(SOFA_HAVE_AVX2)
  return avx2::LbdSquared(table, weights, query_values, word);
#else
  return scalar::LbdSquared(table, weights, query_values, word);
#endif
}

float LbdSquaredEarlyAbandon(const BreakpointTable& table,
                             const float* weights, const float* query_values,
                             const std::uint8_t* word, float bound) {
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    return avx512::LbdSquaredEarlyAbandon(table, weights, query_values, word,
                                          bound);
  }
#endif
#if defined(SOFA_HAVE_AVX2)
  return avx2::LbdSquaredEarlyAbandon(table, weights, query_values, word,
                                      bound);
#else
  return scalar::LbdSquaredEarlyAbandon(table, weights, query_values, word,
                                        bound);
#endif
}

void BuildLbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values, float* lut) {
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    avx512::BuildLbdTable(table, weights, query_values, lut);
    return;
  }
#endif
#if defined(SOFA_HAVE_AVX2)
  avx2::BuildLbdTable(table, weights, query_values, lut);
#else
  scalar::BuildLbdTable(table, weights, query_values, lut);
#endif
}

float LbdSquaredTable(const float* lut, std::size_t l, std::size_t alphabet,
                      const std::uint8_t* word) {
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    return avx512::LbdSquaredTable(lut, l, alphabet, word);
  }
#endif
#if defined(SOFA_HAVE_AVX2)
  return avx2::LbdSquaredTable(lut, l, alphabet, word);
#else
  return scalar::LbdSquaredTable(lut, l, alphabet, word);
#endif
}

std::size_t LbdTableFilter(const float* lut, std::size_t l,
                           std::size_t alphabet, const std::uint8_t* words,
                           const std::uint32_t* ids, std::size_t n,
                           float bound, float inflation, LbdCandidate* out) {
#if defined(SOFA_COMPILE_AVX512)
  if (CpuSupportsAvx512()) {
    return avx512::LbdTableFilter(lut, l, alphabet, words, ids, n, bound,
                                  inflation, out);
  }
#endif
#if defined(SOFA_HAVE_AVX2)
  return avx2::LbdTableFilter(lut, l, alphabet, words, ids, n, bound,
                              inflation, out);
#else
  return scalar::LbdTableFilter(lut, l, alphabet, words, ids, n, bound,
                                inflation, out);
#endif
}

float NodeLbdSquared(const BreakpointTable& table, const float* weights,
                     const float* query_values, const std::uint8_t* prefixes,
                     const std::uint8_t* card_bits) {
  const std::size_t l = table.word_length();
  float sum = 0.0f;
  for (std::size_t dim = 0; dim < l; ++dim) {
    if (card_bits[dim] == 0) {
      continue;  // dimension not yet constrained at this node
    }
    const float d = table.MinDistPrefix(dim, prefixes[dim], card_bits[dim],
                                        query_values[dim]);
    sum += weights[dim] * d * d;
  }
  return sum;
}

}  // namespace quant
}  // namespace sofa
