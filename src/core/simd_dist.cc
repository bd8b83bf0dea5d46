#include "core/simd_dist.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "geom/point_set.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define MDS_SIMD_HAVE_X86 1
#endif

namespace mds {

namespace {

// --- scalar reference paths --------------------------------------------------

void DistBatchScalar(const double* p, const float* rows, size_t n, size_t dim,
                     double* d2) {
  for (size_t i = 0; i < n; ++i) {
    d2[i] = SquaredDistance(p, rows + i * dim, dim);
  }
}

template <typename Id>
void DistGatherScalar(const double* p, const float* points, const Id* ids,
                      size_t n, size_t dim, double* d2) {
  for (size_t i = 0; i < n; ++i) {
    d2[i] = SquaredDistance(p, points + static_cast<size_t>(ids[i]) * dim,
                            dim);
  }
}

void BoxScalar(const double* lo, const double* hi, const float* rows,
               size_t n, size_t dim, uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    const float* r = rows + i * dim;
    uint8_t in = 1;
    for (size_t j = 0; j < dim; ++j) {
      const double v = r[j];
      if (v < lo[j] || v > hi[j]) {
        in = 0;
        break;
      }
    }
    mask[i] = in;
  }
}

void HalfspaceScalar(const double* normals, const double* offsets, size_t nh,
                     const float* rows, size_t n, size_t dim, uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    const float* r = rows + i * dim;
    uint8_t in = 1;
    for (size_t h = 0; h < nh && in != 0; ++h) {
      const double* normal = normals + h * dim;
      double s = 0.0;
      for (size_t j = 0; j < dim; ++j) s += normal[j] * r[j];
      in = s <= offsets[h] ? 1 : 0;
    }
    mask[i] = in;
  }
}

#if defined(MDS_SIMD_HAVE_X86)

/// Widest row the vector halfspace kernels hold promoted in registers
/// (the engine's query-dimension cap); wider rows take the scalar path.
constexpr size_t kHalfspaceMaxDim = 16;

// --- SSE2 tier (baseline on x86-64): 2 double lanes --------------------------
//
// Lane-per-row layout: lane l accumulates the full scalar op sequence for
// row i+l. Per dimension the two rows' floats are promoted and combined
// with sub/mul/add in double — the identical IEEE operations, in the
// identical order, as the scalar loop, so every lane is bit-exact. No
// horizontal reduction ever happens.

inline __m128d Promote2(const float* r0, const float* r1, size_t j) {
  return _mm_setr_pd(static_cast<double>(r0[j]), static_cast<double>(r1[j]));
}

void Dist2Rows(const double* p, const float* r0, const float* r1, size_t dim,
               double* out) {
  __m128d acc = _mm_setzero_pd();
  for (size_t j = 0; j < dim; ++j) {
    const __m128d pv = _mm_set1_pd(p[j]);
    const __m128d diff = _mm_sub_pd(pv, Promote2(r0, r1, j));
    acc = _mm_add_pd(acc, _mm_mul_pd(diff, diff));
  }
  _mm_storeu_pd(out, acc);
}

void DistBatchSse2(const double* p, const float* rows, size_t n, size_t dim,
                   double* d2) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    Dist2Rows(p, rows + i * dim, rows + (i + 1) * dim, dim, d2 + i);
  }
  for (; i < n; ++i) d2[i] = SquaredDistance(p, rows + i * dim, dim);
}

template <typename Id>
void DistGatherSse2(const double* p, const float* points, const Id* ids,
                    size_t n, size_t dim, double* d2) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    Dist2Rows(p, points + static_cast<size_t>(ids[i]) * dim,
              points + static_cast<size_t>(ids[i + 1]) * dim, dim, d2 + i);
  }
  for (; i < n; ++i) {
    d2[i] = SquaredDistance(p, points + static_cast<size_t>(ids[i]) * dim,
                            dim);
  }
}

void BoxSse2(const double* lo, const double* hi, const float* rows, size_t n,
             size_t dim, uint8_t* mask) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float* r0 = rows + i * dim;
    const float* r1 = rows + (i + 1) * dim;
    // Box::Contains semantics via unordered-quiet compares: inside on an
    // axis is !(v < lo) && !(v > hi); cmpnlt/cmpnle return true for NaN,
    // so NaN coordinates count as contained, exactly like the scalar.
    __m128d in = _mm_castsi128_pd(_mm_set1_epi64x(-1));
    for (size_t j = 0; j < dim; ++j) {
      const __m128d v = Promote2(r0, r1, j);
      const __m128d ge_lo = _mm_cmpnlt_pd(v, _mm_set1_pd(lo[j]));
      const __m128d le_hi = _mm_cmpngt_pd(v, _mm_set1_pd(hi[j]));
      in = _mm_and_pd(in, _mm_and_pd(ge_lo, le_hi));
    }
    const int bits = _mm_movemask_pd(in);
    mask[i] = static_cast<uint8_t>(bits & 1);
    mask[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
  }
  if (i < n) BoxScalar(lo, hi, rows + i * dim, n - i, dim, mask + i);
}

void HalfspaceSse2(const double* normals, const double* offsets, size_t nh,
                   const float* rows, size_t n, size_t dim, uint8_t* mask) {
  size_t i = 0;
  if (dim <= kHalfspaceMaxDim) {
    for (; i + 2 <= n; i += 2) {
      const float* r0 = rows + i * dim;
      const float* r1 = r0 + dim;
      // Each row's coordinates are promoted once and reused by every
      // halfspace; per lane the sum is the scalar's promote, multiply,
      // add sequence in dimension order.
      __m128d x[kHalfspaceMaxDim];
      for (size_t j = 0; j < dim; ++j) x[j] = Promote2(r0, r1, j);
      int bits = 0x3;
      for (size_t h = 0; h < nh && bits != 0; ++h) {
        const double* normal = normals + h * dim;
        __m128d s = _mm_setzero_pd();
        for (size_t j = 0; j < dim; ++j) {
          s = _mm_add_pd(s, _mm_mul_pd(_mm_set1_pd(normal[j]), x[j]));
        }
        // cmple is an ordered compare: a NaN sum fails, like `s <= offset`.
        bits &= _mm_movemask_pd(_mm_cmple_pd(s, _mm_set1_pd(offsets[h])));
      }
      mask[i] = static_cast<uint8_t>(bits & 1);
      mask[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    }
  }
  if (i < n) {
    HalfspaceScalar(normals, offsets, nh, rows + i * dim, n - i, dim,
                    mask + i);
  }
}

// --- AVX2 tier: 4 double lanes, reached only after a cpuid check -------------

__attribute__((target("avx2"))) inline __m256d Promote4(const float* r0,
                                                        const float* r1,
                                                        const float* r2,
                                                        const float* r3,
                                                        size_t j) {
  return _mm256_setr_pd(static_cast<double>(r0[j]), static_cast<double>(r1[j]),
                        static_cast<double>(r2[j]),
                        static_cast<double>(r3[j]));
}

__attribute__((target("avx2"))) void Dist4Rows(const double* p,
                                               const float* r0,
                                               const float* r1,
                                               const float* r2,
                                               const float* r3, size_t dim,
                                               double* out) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  // Four dimensions per step: load 4 floats of each row, transpose to
  // per-dimension vectors, promote with cvtps_pd (exact, like the scalar
  // float->double promotion) and accumulate in dimension order — the
  // per-lane op sequence is still exactly the scalar one. The transpose
  // replaces 16 scalar loads + inserts per step with 4 loads + shuffles.
  for (; j + 4 <= dim; j += 4) {
    __m128 a0 = _mm_loadu_ps(r0 + j);
    __m128 a1 = _mm_loadu_ps(r1 + j);
    __m128 a2 = _mm_loadu_ps(r2 + j);
    __m128 a3 = _mm_loadu_ps(r3 + j);
    _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
    const __m128 cols[4] = {a0, a1, a2, a3};
    for (int c = 0; c < 4; ++c) {
      const __m256d pv = _mm256_set1_pd(p[j + static_cast<size_t>(c)]);
      const __m256d diff = _mm256_sub_pd(pv, _mm256_cvtps_pd(cols[c]));
      // Explicit mul-then-add (not fmadd): FMA's unrounded intermediate
      // would diverge from the scalar reference in the last ulp.
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
  }
  for (; j < dim; ++j) {
    const __m256d pv = _mm256_set1_pd(p[j]);
    const __m256d diff = _mm256_sub_pd(pv, Promote4(r0, r1, r2, r3, j));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  _mm256_storeu_pd(out, acc);
}

__attribute__((target("avx2"))) void DistBatchAvx2(const double* p,
                                                   const float* rows,
                                                   size_t n, size_t dim,
                                                   double* d2) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* base = rows + i * dim;
    Dist4Rows(p, base, base + dim, base + 2 * dim, base + 3 * dim, dim,
              d2 + i);
  }
  for (; i < n; ++i) d2[i] = SquaredDistance(p, rows + i * dim, dim);
}

template <typename Id>
__attribute__((target("avx2"))) void DistGatherAvx2(const double* p,
                                                    const float* points,
                                                    const Id* ids, size_t n,
                                                    size_t dim, double* d2) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 12 <= n) {
      // Rows land at id-driven (effectively random) addresses; prefetch
      // two iterations ahead so the loads overlap the arithmetic.
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 8]) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 9]) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 10]) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 11]) * dim),
                   _MM_HINT_T0);
    }
    Dist4Rows(p, points + static_cast<size_t>(ids[i]) * dim,
              points + static_cast<size_t>(ids[i + 1]) * dim,
              points + static_cast<size_t>(ids[i + 2]) * dim,
              points + static_cast<size_t>(ids[i + 3]) * dim, dim, d2 + i);
  }
  for (; i < n; ++i) {
    d2[i] = SquaredDistance(p, points + static_cast<size_t>(ids[i]) * dim,
                            dim);
  }
}

__attribute__((target("avx2"))) void BoxAvx2(const double* lo,
                                             const double* hi,
                                             const float* rows, size_t n,
                                             size_t dim, uint8_t* mask) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* r0 = rows + i * dim;
    const float* r1 = r0 + dim;
    const float* r2 = r1 + dim;
    const float* r3 = r2 + dim;
    __m256d in = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (size_t j = 0; j < dim; ++j) {
      const __m256d v = Promote4(r0, r1, r2, r3, j);
      // NLT_UQ / NGT_UQ: true on NaN, matching scalar `!(v<lo) && !(v>hi)`.
      const __m256d ge_lo =
          _mm256_cmp_pd(v, _mm256_set1_pd(lo[j]), _CMP_NLT_UQ);
      const __m256d le_hi =
          _mm256_cmp_pd(v, _mm256_set1_pd(hi[j]), _CMP_NGT_UQ);
      in = _mm256_and_pd(in, _mm256_and_pd(ge_lo, le_hi));
    }
    const int bits = _mm256_movemask_pd(in);
    mask[i] = static_cast<uint8_t>(bits & 1);
    mask[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    mask[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);
    mask[i + 3] = static_cast<uint8_t>((bits >> 3) & 1);
  }
  if (i < n) BoxScalar(lo, hi, rows + i * dim, n - i, dim, mask + i);
}

/// Promotes four consecutive dim-float rows into per-dimension lanes,
/// four dimensions at a time through the same transpose + exact
/// cvtps_pd as Dist4Rows.
__attribute__((target("avx2"))) inline void PromoteRows4(const float* r0,
                                                         size_t dim,
                                                         __m256d* x) {
  const float* r1 = r0 + dim;
  const float* r2 = r1 + dim;
  const float* r3 = r2 + dim;
  size_t j = 0;
  for (; j + 4 <= dim; j += 4) {
    __m128 a0 = _mm_loadu_ps(r0 + j);
    __m128 a1 = _mm_loadu_ps(r1 + j);
    __m128 a2 = _mm_loadu_ps(r2 + j);
    __m128 a3 = _mm_loadu_ps(r3 + j);
    _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
    x[j] = _mm256_cvtps_pd(a0);
    x[j + 1] = _mm256_cvtps_pd(a1);
    x[j + 2] = _mm256_cvtps_pd(a2);
    x[j + 3] = _mm256_cvtps_pd(a3);
  }
  for (; j < dim; ++j) x[j] = Promote4(r0, r1, r2, r3, j);
}

/// Membership bits of 4*kGroups consecutive rows (bit l = row l). The
/// rows are promoted once and every halfspace runs over them; kGroups
/// independent lane groups are interleaved so their dependent add chains
/// overlap. The halfspace loop stops once every lane has failed.
template <int kGroups>
__attribute__((target("avx2"))) inline int HalfspaceRowsAvx2(
    const double* normals, const double* offsets, size_t nh,
    const float* rows, size_t dim) {
  __m256d x[kGroups][kHalfspaceMaxDim];
  int bits[kGroups];
  for (int g = 0; g < kGroups; ++g) {
    PromoteRows4(rows + 4 * g * dim, dim, x[g]);
    bits[g] = 0xF;
  }
  int live = 0xF;
  for (size_t h = 0; h < nh && live != 0; ++h) {
    const double* normal = normals + h * dim;
    __m256d s[kGroups];
    for (int g = 0; g < kGroups; ++g) s[g] = _mm256_setzero_pd();
    for (size_t k = 0; k < dim; ++k) {
      const __m256d n = _mm256_set1_pd(normal[k]);
      // Multiply then add, never fmadd (see Dist4Rows).
      for (int g = 0; g < kGroups; ++g) {
        s[g] = _mm256_add_pd(s[g], _mm256_mul_pd(n, x[g][k]));
      }
    }
    // LE_OQ: false on a NaN sum, exactly like the scalar `s <= offset`.
    const __m256d offset = _mm256_set1_pd(offsets[h]);
    live = 0;
    for (int g = 0; g < kGroups; ++g) {
      bits[g] &= _mm256_movemask_pd(_mm256_cmp_pd(s[g], offset, _CMP_LE_OQ));
      live |= bits[g];
    }
  }
  int out = 0;
  for (int g = 0; g < kGroups; ++g) out |= bits[g] << (4 * g);
  return out;
}

__attribute__((target("avx2"))) void HalfspaceAvx2(const double* normals,
                                                   const double* offsets,
                                                   size_t nh,
                                                   const float* rows,
                                                   size_t n, size_t dim,
                                                   uint8_t* mask) {
  size_t i = 0;
  if (dim <= kHalfspaceMaxDim) {
    for (; i + 8 <= n; i += 8) {
      const int bits =
          HalfspaceRowsAvx2<2>(normals, offsets, nh, rows + i * dim, dim);
      for (int l = 0; l < 8; ++l) mask[i + l] = (bits >> l) & 1;
    }
    for (; i + 4 <= n; i += 4) {
      const int bits =
          HalfspaceRowsAvx2<1>(normals, offsets, nh, rows + i * dim, dim);
      for (int l = 0; l < 4; ++l) mask[i + l] = (bits >> l) & 1;
    }
  }
  if (i < n) {
    HalfspaceScalar(normals, offsets, nh, rows + i * dim, n - i, dim,
                    mask + i);
  }
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#endif  // MDS_SIMD_HAVE_X86

SimdTier HardwareTier() {
#if defined(MDS_SIMD_HAVE_X86)
  return CpuHasAvx2() ? SimdTier::kAvx2 : SimdTier::kSse2;
#else
  return SimdTier::kScalar;
#endif
}

/// Detection ∧ environment cap, computed once.
SimdTier DetectTier() {
  SimdTier tier = HardwareTier();
  const char* no_simd = std::getenv("MDS_NO_SIMD");
  if (no_simd != nullptr && no_simd[0] == '1') return SimdTier::kScalar;
  const char* cap = std::getenv("MDS_SIMD_TIER");
  if (cap != nullptr) {
    const std::string s(cap);
    if (s == "scalar") {
      tier = SimdTier::kScalar;
    } else if (s == "sse2" && tier > SimdTier::kSse2) {
      tier = SimdTier::kSse2;
    }
    // "avx2" (or anything else) never raises past hardware.
  }
  return tier;
}

std::atomic<int>& TierCell() {
  static std::atomic<int> tier{static_cast<int>(DetectTier())};
  return tier;
}

}  // namespace

SimdTier ActiveSimdTier() {
  return static_cast<SimdTier>(TierCell().load(std::memory_order_relaxed));
}

void SetSimdTierForTest(SimdTier tier) {
  // Clamp to the startup tier (hardware ∧ env caps), not raw hardware:
  // MDS_NO_SIMD / MDS_SIMD_TIER promise the process never runs above the
  // capped tier, and a test helper must not be able to break that.
  static const SimdTier kCeiling = DetectTier();
  if (tier > kCeiling) tier = kCeiling;
  TierCell().store(static_cast<int>(tier), std::memory_order_relaxed);
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSse2: return "sse2";
    case SimdTier::kAvx2: return "avx2";
  }
  return "unknown";
}

void SquaredDistanceBatch(const double* p, const float* rows, size_t n,
                          size_t dim, double* d2) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      DistBatchAvx2(p, rows, n, dim, d2);
      return;
    case SimdTier::kSse2:
      DistBatchSse2(p, rows, n, dim, d2);
      return;
#endif
    default:
      DistBatchScalar(p, rows, n, dim, d2);
  }
}

void SquaredDistanceGather(const double* p, const float* points,
                           const uint64_t* ids, size_t n, size_t dim,
                           double* d2) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      DistGatherAvx2(p, points, ids, n, dim, d2);
      return;
    case SimdTier::kSse2:
      DistGatherSse2(p, points, ids, n, dim, d2);
      return;
#endif
    default:
      DistGatherScalar(p, points, ids, n, dim, d2);
  }
}

void SquaredDistanceGather(const double* p, const float* points,
                           const uint32_t* ids, size_t n, size_t dim,
                           double* d2) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      DistGatherAvx2(p, points, ids, n, dim, d2);
      return;
    case SimdTier::kSse2:
      DistGatherSse2(p, points, ids, n, dim, d2);
      return;
#endif
    default:
      DistGatherScalar(p, points, ids, n, dim, d2);
  }
}

void BoxContainsBatch(const double* lo, const double* hi, const float* rows,
                      size_t n, size_t dim, uint8_t* mask) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      BoxAvx2(lo, hi, rows, n, dim, mask);
      return;
    case SimdTier::kSse2:
      BoxSse2(lo, hi, rows, n, dim, mask);
      return;
#endif
    default:
      BoxScalar(lo, hi, rows, n, dim, mask);
  }
}

void HalfspaceContainsBatch(const double* normals, const double* offsets,
                            size_t num_halfspaces, const float* rows,
                            size_t n, size_t dim, uint8_t* mask) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      HalfspaceAvx2(normals, offsets, num_halfspaces, rows, n, dim, mask);
      return;
    case SimdTier::kSse2:
      HalfspaceSse2(normals, offsets, num_halfspaces, rows, n, dim, mask);
      return;
#endif
    default:
      HalfspaceScalar(normals, offsets, num_halfspaces, rows, n, dim, mask);
  }
}

}  // namespace mds
