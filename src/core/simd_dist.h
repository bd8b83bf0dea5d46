#ifndef MDS_CORE_SIMD_DIST_H_
#define MDS_CORE_SIMD_DIST_H_

#include <cstddef>
#include <cstdint>

namespace mds {

/// Runtime-dispatched SIMD kernels for the per-row operations every scan
/// hot loop reduces to:
///  - SquaredDistanceBatch / SquaredDistanceGather: squared Euclidean
///    distance from one probe to many clustered float rows (kd-tree leaf
///    scans, brute-force kNN, the Voronoi walk);
///  - BoxContainsBatch: axis-interval containment of many rows in one box
///    (the box predicate's partial-range filter);
///  - HalfspaceContainsBatch: containment of many rows in an intersection
///    of halfspaces (the polyhedron predicate's partial-range filter, the
///    inner loop of kd-tree, Voronoi and full-scan queries).
///
/// Bit-exactness contract: every kernel produces results BIT-IDENTICAL to
/// the scalar reference (`SquaredDistance` in geom/point_set.h,
/// `Box::Contains` in geom/box.cc, `Halfspace::Contains(const float*)` in
/// geom/polyhedron.h) on every input, including NaN and infinity. The
/// vector kernels achieve this by vectorizing ACROSS rows — one vector
/// lane per row — so each lane performs exactly the scalar op sequence
/// (promote float to double, subtract or multiply, add, in dimension
/// order) in IEEE double with no FMA contraction and no reassociation.
/// Callers may therefore switch tiers freely without changing any
/// observable result: neighbor sets, tie ordering and wire bytes are
/// invariant.
///
/// Dispatch (modeled on common/crc32c.cc): the tier is detected once via
/// cpuid, capped by environment —
///   MDS_NO_SIMD=1            force scalar
///   MDS_SIMD_TIER=scalar|sse2|avx2   cap at the named tier
/// — and can be lowered per-process by tests with SetSimdTierForTest.
/// Binaries are compiled for the baseline target; AVX2 code is emitted
/// with a function-level target attribute and only reached after the
/// cpuid check.
enum class SimdTier {
  kScalar = 0,
  kSse2 = 1,  ///< 2 double lanes (baseline on x86-64)
  kAvx2 = 2,  ///< 4 double lanes
};

/// The tier kernels currently dispatch to (detection ∧ env cap ∧ test cap).
SimdTier ActiveSimdTier();

/// Lowers (never raises beyond hardware) the dispatch tier; pass the value
/// returned by ActiveSimdTier() at startup to restore. Not thread-safe
/// against concurrent kernel calls — test setup only.
void SetSimdTierForTest(SimdTier tier);

const char* SimdTierName(SimdTier tier);

/// d2[i] = squared distance from probe `p` (dim doubles) to the i-th of
/// `n` contiguous float rows at `rows + i*dim`.
void SquaredDistanceBatch(const double* p, const float* rows, size_t n,
                          size_t dim, double* d2);

/// d2[i] = squared distance from `p` to row ids[i] of the row-major float
/// table `points` (the clustered-order gather of a kd-tree leaf scan).
void SquaredDistanceGather(const double* p, const float* points,
                           const uint64_t* ids, size_t n, size_t dim,
                           double* d2);
/// Same with 32-bit ids (Voronoi seed-graph neighbors).
void SquaredDistanceGather(const double* p, const float* points,
                           const uint32_t* ids, size_t n, size_t dim,
                           double* d2);

/// mask[i] = 1 iff row i lies in [lo, hi] on every axis, with exactly
/// Box::Contains semantics: the test is `!(v < lo) && !(v > hi)` per
/// axis, so a NaN coordinate compares false on both sides and the row
/// counts as contained.
void BoxContainsBatch(const double* lo, const double* hi, const float* rows,
                      size_t n, size_t dim, uint8_t* mask);

/// mask[i] = 1 iff row i satisfies every one of `num_halfspaces`
/// constraints normal_h . row <= offsets[h], where normal_h is the dim
/// doubles at `normals + h*dim`: exactly Halfspace::Contains(const
/// float*) applied in order. The dot product accumulates in double from
/// +0.0 in dimension order (multiply, then add), so a NaN sum — from a
/// NaN coordinate, a 0*inf product or inf-inf — fails the ordered
/// `s <= offset` compare, as it does in the scalar. Rows are promoted
/// once and reused by every halfspace; a lane group stops early once
/// every lane has failed. Rows wider than 16 dimensions take the scalar
/// path on every tier.
void HalfspaceContainsBatch(const double* normals, const double* offsets,
                            size_t num_halfspaces, const float* rows,
                            size_t n, size_t dim, uint8_t* mask);

}  // namespace mds

#endif  // MDS_CORE_SIMD_DIST_H_
