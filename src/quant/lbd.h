// Lower-bounding distance (LBD) kernels — the pruning workhorse of the
// GEMINI engines (paper Section IV-E3 / IV-H, Algorithm 3).
//
// All functions return the *squared* LBD:
//   LBD² = Σ_i weight_i · mindist(query_value_i, interval(word_i))²
// where mindist is Eq. 2: 0 inside the interval, distance to the nearer
// breakpoint outside. With iSAX inputs this is the classic mindist; with
// SFA inputs it is the SFA lower bound.
//
// Scalar and AVX2 variants are independently callable (tests assert
// equality; benches measure the Section IV-H ablation); unqualified
// functions dispatch to the best compiled-in kernel. The breakpoint-gather
// kernels are the reference form; the query engine reads the per-query
// lookup table below, which reproduces them bit for bit.

#ifndef SOFA_QUANT_LBD_H_
#define SOFA_QUANT_LBD_H_

#include <cstddef>
#include <cstdint>

#include "quant/breakpoint_table.h"

namespace sofa {
namespace quant {

namespace scalar {

/// Squared LBD between a query projection and a full-cardinality word.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

/// Early-abandoning variant: once the partial sum exceeds `bound` (checked
/// every 8 dimensions — the paper's SIMD chunk granularity), returns the
/// partial sum immediately.
float LbdSquaredEarlyAbandon(const BreakpointTable& table,
                             const float* weights, const float* query_values,
                             const std::uint8_t* word, float bound);

}  // namespace scalar

#if defined(SOFA_HAVE_AVX2)
namespace avx2 {

/// SIMD LBD (Algorithm 3): per-8-lane gather of interval bounds, branch-free
/// UPPER/LOWER/ZERO masking, weighted FMA accumulation.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

/// SIMD LBD with per-chunk early abandoning against `bound`.
float LbdSquaredEarlyAbandon(const BreakpointTable& table,
                             const float* weights, const float* query_values,
                             const std::uint8_t* word, float bound);

}  // namespace avx2
#endif  // SOFA_HAVE_AVX2

#if defined(SOFA_COMPILE_AVX512)
namespace avx512 {

/// 16-lane variant: one iteration covers the default word length l = 16.
/// Compiled separately; used only when CpuSupportsAvx512() holds.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

float LbdSquaredEarlyAbandon(const BreakpointTable& table,
                             const float* weights, const float* query_values,
                             const std::uint8_t* word, float bound);

}  // namespace avx512
#endif  // SOFA_COMPILE_AVX512

/// Best-available squared LBD.
float LbdSquared(const BreakpointTable& table, const float* weights,
                 const float* query_values, const std::uint8_t* word);

/// Best-available early-abandoning squared LBD.
float LbdSquaredEarlyAbandon(const BreakpointTable& table,
                             const float* weights, const float* query_values,
                             const std::uint8_t* word, float bound);

// ------------------------------------------------ per-query lookup table
//
// The engine's per-series LBD. `BuildLbdTable` fills l × alphabet floats,
// lut[dim * alphabet + symbol] = the weighted squared mindist term of that
// dimension and symbol for one query projection, computed with the same
// expression the same tier's LbdSquared uses: w·(d·d) for dimensions inside
// a full SIMD chunk, (w·d)·d for the scalar tail (and everywhere in the
// scalar tier). A table LBD is then one gather per SIMD chunk plus the
// tier's own reduction, so it is bit-identical to that tier's
// LbdSquared / LbdSquaredEarlyAbandon — a table is only ever read by the
// tier that built it. 16 KiB at l = 16, alphabet 256.

/// One survivor of a table-LBD filter: a series id and its (possibly
/// early-abandoned) squared LBD.
struct LbdCandidate {
  std::uint32_t id;
  float lbd_sq;
};

namespace internal {

// The body of every tier's LbdTableFilter (see the dispatched one below),
// over that tier's LbdSquaredTableEarlyAbandon; a template argument, so
// the kernel inlines into the loop.
template <float (*TableLbdEarlyAbandon)(const float*, std::size_t,
                                        std::size_t, const std::uint8_t*,
                                        float)>
inline std::size_t LbdTableFilterLoop(const float* lut, std::size_t l,
                                      std::size_t alphabet,
                                      const std::uint8_t* words,
                                      const std::uint32_t* ids, std::size_t n,
                                      float bound, float inflation,
                                      LbdCandidate* out) {
  const float abandon_at = bound / inflation;
  std::size_t survivors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float lbd_sq =
        TableLbdEarlyAbandon(lut, l, alphabet, words + i * l, abandon_at);
    out[survivors] = LbdCandidate{ids[i], lbd_sq};
    survivors += lbd_sq * inflation < bound ? 1 : 0;
  }
  return survivors;
}

}  // namespace internal

namespace scalar {

/// Fills `lut` (word_length × alphabet floats) for `query_values`.
void BuildLbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values, float* lut);

/// Equals scalar::LbdSquared of the query the table was built for.
float LbdSquaredTable(const float* lut, std::size_t l, std::size_t alphabet,
                      const std::uint8_t* word);

/// Equals scalar::LbdSquaredEarlyAbandon of that query.
float LbdSquaredTableEarlyAbandon(const float* lut, std::size_t l,
                                  std::size_t alphabet,
                                  const std::uint8_t* word, float bound);

/// See the dispatched LbdTableFilter below.
std::size_t LbdTableFilter(const float* lut, std::size_t l,
                           std::size_t alphabet, const std::uint8_t* words,
                           const std::uint32_t* ids, std::size_t n,
                           float bound, float inflation, LbdCandidate* out);

}  // namespace scalar

#if defined(SOFA_HAVE_AVX2)
namespace avx2 {

void BuildLbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values, float* lut);
float LbdSquaredTable(const float* lut, std::size_t l, std::size_t alphabet,
                      const std::uint8_t* word);
float LbdSquaredTableEarlyAbandon(const float* lut, std::size_t l,
                                  std::size_t alphabet,
                                  const std::uint8_t* word, float bound);
std::size_t LbdTableFilter(const float* lut, std::size_t l,
                           std::size_t alphabet, const std::uint8_t* words,
                           const std::uint32_t* ids, std::size_t n,
                           float bound, float inflation, LbdCandidate* out);

}  // namespace avx2
#endif  // SOFA_HAVE_AVX2

#if defined(SOFA_COMPILE_AVX512)
namespace avx512 {

void BuildLbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values, float* lut);
float LbdSquaredTable(const float* lut, std::size_t l, std::size_t alphabet,
                      const std::uint8_t* word);
float LbdSquaredTableEarlyAbandon(const float* lut, std::size_t l,
                                  std::size_t alphabet,
                                  const std::uint8_t* word, float bound);
std::size_t LbdTableFilter(const float* lut, std::size_t l,
                           std::size_t alphabet, const std::uint8_t* words,
                           const std::uint32_t* ids, std::size_t n,
                           float bound, float inflation, LbdCandidate* out);

}  // namespace avx512
#endif  // SOFA_COMPILE_AVX512

/// Best-available table build; read the table only with the dispatched
/// LbdSquaredTable / LbdTableFilter below.
void BuildLbdTable(const BreakpointTable& table, const float* weights,
                   const float* query_values, float* lut);

float LbdSquaredTable(const float* lut, std::size_t l, std::size_t alphabet,
                      const std::uint8_t* word);

/// Table-LBDs the n words of `words` (row-major, l symbols each) against
/// `bound`: each word's early-abandoning LBD is taken at bound / inflation
/// and the word survives when lbd · inflation < bound — the engine's
/// per-series pruning predicate. Writes {ids[i], lbd} of every survivor to `out` (room for n) in
/// input order and returns their number.
std::size_t LbdTableFilter(const float* lut, std::size_t l,
                           std::size_t alphabet, const std::uint8_t* words,
                           const std::uint32_t* ids, std::size_t n,
                           float bound, float inflation, LbdCandidate* out);

/// Squared LBD between a query projection and a *node* summary: per
/// dimension a symbol prefix at `card_bits[dim]` bits; dimensions with
/// cardinality 0 are unconstrained and contribute nothing. Scalar only —
/// node evaluations are rare compared to per-series LBDs.
float NodeLbdSquared(const BreakpointTable& table, const float* weights,
                     const float* query_values, const std::uint8_t* prefixes,
                     const std::uint8_t* card_bits);

}  // namespace quant
}  // namespace sofa

#endif  // SOFA_QUANT_LBD_H_
