// simd_dist: the vector kernels must be BIT-IDENTICAL to the scalar
// reference on every input — that is the whole contract that lets the
// scan loops switch tiers without changing neighbor sets, tie ordering
// or wire bytes. These tests sweep dims 1-8 (1-17 for the halfspace
// filter), unaligned row starts, NaN/infinity probes, coordinates,
// normals and offsets, and exact-tie distances, and compare raw double
// bit patterns (not values, which would let -0.0 or differently-payloaded
// NaNs slip through) on every tier the host can reach. CI re-runs them
// with MDS_NO_SIMD=1 and MDS_SIMD_TIER=sse2.

#include "core/simd_dist.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/kdtree.h"
#include "core/knn.h"
#include "geom/box.h"
#include "geom/point_set.h"
#include "geom/polyhedron.h"

namespace mds {
namespace {

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Every tier reachable on this host, never raising past the startup
/// tier (which already folds in hardware support and the env caps).
std::vector<SimdTier> ReachableTiers() {
  const SimdTier top = ActiveSimdTier();
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (top >= SimdTier::kSse2) tiers.push_back(SimdTier::kSse2);
  if (top >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

/// RAII: run a test body at a forced tier, restore the startup tier.
class TierGuard {
 public:
  explicit TierGuard(SimdTier tier) : restore_(ActiveSimdTier()) {
    SetSimdTierForTest(tier);
  }
  ~TierGuard() { SetSimdTierForTest(restore_); }

 private:
  SimdTier restore_;
};

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

float RandomCoord(uint64_t* state) {
  // Mostly ordinary magnitudes, with occasional specials so every batch
  // exercises the IEEE corner cases.
  const uint64_t r = SplitMix(state);
  switch (r % 37) {
    case 0:
      return std::numeric_limits<float>::quiet_NaN();
    case 1:
      return std::numeric_limits<float>::infinity();
    case 2:
      return -std::numeric_limits<float>::infinity();
    case 3:
      return 0.0f;
    case 4:
      return -0.0f;
    case 5:
      return std::numeric_limits<float>::denorm_min();
    case 6:
      return std::numeric_limits<float>::max();
    default:
      return (static_cast<float>(r % 100000) - 50000.0f) / 317.0f;
  }
}

/// Scalar reference, computed through the same geom/point_set.h routine
/// the row-at-a-time loops used before the kernels existed.
void ReferenceBatch(const double* p, const float* rows, size_t n, size_t dim,
                    double* d2) {
  for (size_t i = 0; i < n; ++i) {
    d2[i] = SquaredDistance(p, rows + i * dim, dim);
  }
}

TEST(SimdDist, TierPlumbing) {
  const SimdTier startup = ActiveSimdTier();
  EXPECT_NE(SimdTierName(startup), nullptr);
  {
    TierGuard guard(SimdTier::kScalar);
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
  }
  EXPECT_EQ(ActiveSimdTier(), startup);
  // SetSimdTierForTest never raises beyond the hardware/env tier.
  SetSimdTierForTest(SimdTier::kAvx2);
  EXPECT_LE(ActiveSimdTier(), startup);
  SetSimdTierForTest(startup);
}

TEST(SimdDist, BatchBitIdenticalAcrossDimsTiersAndLengths) {
  uint64_t state = 1;
  for (SimdTier tier : ReachableTiers()) {
    TierGuard guard(tier);
    for (size_t dim = 1; dim <= 8; ++dim) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{5}, size_t{7}, size_t{8}, size_t{15},
                       size_t{64}, size_t{257}}) {
        std::vector<float> rows(n * dim);
        for (float& v : rows) v = RandomCoord(&state);
        std::vector<double> p(dim);
        for (double& v : p) v = static_cast<double>(RandomCoord(&state));

        std::vector<double> expected(n, -1.0), got(n, -2.0);
        ReferenceBatch(p.data(), rows.data(), n, dim, expected.data());
        SquaredDistanceBatch(p.data(), rows.data(), n, dim, got.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
              << "tier=" << SimdTierName(tier) << " dim=" << dim
              << " n=" << n << " i=" << i << " got=" << got[i]
              << " expected=" << expected[i];
        }
      }
    }
  }
}

TEST(SimdDist, BatchHandlesUnalignedRowStarts) {
  uint64_t state = 2;
  const size_t dim = 5;
  const size_t n = 133;
  // Over-allocate and start the row block at every float offset 0..7:
  // none of 1..7 is 32-byte aligned, so the kernels must not assume
  // aligned loads anywhere.
  std::vector<float> backing(8 + n * dim);
  for (float& v : backing) v = RandomCoord(&state);
  std::vector<double> p(dim);
  for (double& v : p) v = 0.25 * static_cast<double>(SplitMix(&state) % 1000);

  for (SimdTier tier : ReachableTiers()) {
    TierGuard guard(tier);
    for (size_t offset = 0; offset < 8; ++offset) {
      const float* rows = backing.data() + offset;
      std::vector<double> expected(n), got(n);
      ReferenceBatch(p.data(), rows, n, dim, expected.data());
      SquaredDistanceBatch(p.data(), rows, n, dim, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
            << "tier=" << SimdTierName(tier) << " offset=" << offset
            << " i=" << i;
      }
    }
  }
}

TEST(SimdDist, NaNAndInfinityProbesPropagateExactly) {
  const size_t dim = 5;
  const size_t n = 29;
  uint64_t state = 3;
  std::vector<float> rows(n * dim);
  for (float& v : rows) v = RandomCoord(&state);

  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), 0.0};
  for (double special : specials) {
    for (size_t axis = 0; axis < dim; ++axis) {
      std::vector<double> p(dim, 1.5);
      p[axis] = special;
      std::vector<double> expected(n), got(n);
      ReferenceBatch(p.data(), rows.data(), n, dim, expected.data());
      for (SimdTier tier : ReachableTiers()) {
        TierGuard guard(tier);
        SquaredDistanceBatch(p.data(), rows.data(), n, dim, got.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
              << "tier=" << SimdTierName(tier) << " axis=" << axis
              << " special=" << special << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdDist, GatherMatchesBatchOnShuffledIds) {
  uint64_t state = 4;
  const size_t dim = 5;
  const size_t table_rows = 400;
  std::vector<float> table(table_rows * dim);
  for (float& v : table) v = RandomCoord(&state);
  std::vector<double> p(dim);
  for (double& v : p) v = static_cast<double>(RandomCoord(&state));

  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{97}}) {
    std::vector<uint64_t> ids64(n);
    std::vector<uint32_t> ids32(n);
    for (size_t i = 0; i < n; ++i) {
      ids64[i] = SplitMix(&state) % table_rows;
      ids32[i] = static_cast<uint32_t>(ids64[i]);
    }
    std::vector<double> expected(n);
    for (size_t i = 0; i < n; ++i) {
      expected[i] = SquaredDistance(p.data(), table.data() + ids64[i] * dim,
                                    dim);
    }
    for (SimdTier tier : ReachableTiers()) {
      TierGuard guard(tier);
      std::vector<double> got64(n), got32(n);
      SquaredDistanceGather(p.data(), table.data(), ids64.data(), n, dim,
                            got64.data());
      SquaredDistanceGather(p.data(), table.data(), ids32.data(), n, dim,
                            got32.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got64[i]), Bits(expected[i]))
            << "tier=" << SimdTierName(tier) << " n=" << n << " i=" << i;
        ASSERT_EQ(Bits(got32[i]), Bits(expected[i]))
            << "tier=" << SimdTierName(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdDist, BoxContainsBatchMatchesBoxContains) {
  uint64_t state = 5;
  for (size_t dim = 1; dim <= 8; ++dim) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t j = 0; j < dim; ++j) {
      double a = static_cast<double>(SplitMix(&state) % 200) - 100.0;
      double b = static_cast<double>(SplitMix(&state) % 200) - 100.0;
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    Box box(lo, hi);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{8}, size_t{63},
                     size_t{200}}) {
      std::vector<float> rows(n * dim);
      for (size_t i = 0; i < rows.size(); ++i) {
        // Dense coverage of in/out/boundary plus NaN coordinates (which
        // Box::Contains counts as contained: NaN compares false against
        // both bounds).
        const uint64_t r = SplitMix(&state);
        if (r % 23 == 0) {
          rows[i] = std::numeric_limits<float>::quiet_NaN();
        } else if (r % 23 == 1) {
          const size_t j = i % dim;
          rows[i] = static_cast<float>((r & 1) ? lo[j] : hi[j]);  // boundary
        } else {
          rows[i] = static_cast<float>(r % 300) - 150.0f;
        }
      }
      for (SimdTier tier : ReachableTiers()) {
        TierGuard guard(tier);
        std::vector<uint8_t> mask(n, 0xCC);
        BoxContainsBatch(lo.data(), hi.data(), rows.data(), n, dim,
                         mask.data());
        for (size_t i = 0; i < n; ++i) {
          const uint8_t expected =
              box.Contains(rows.data() + i * dim) ? 1 : 0;
          ASSERT_EQ(mask[i], expected)
              << "tier=" << SimdTierName(tier) << " dim=" << dim
              << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

/// Flat normal/offset arrays of `poly`, the layout HalfspaceContainsBatch
/// takes (what PolyhedronPredicate builds at construction).
struct FlatHalfspaces {
  explicit FlatHalfspaces(const Polyhedron& poly) {
    for (const Halfspace& h : poly.halfspaces()) {
      normals.insert(normals.end(), h.normal.begin(), h.normal.end());
      offsets.push_back(h.offset);
    }
  }
  std::vector<double> normals;
  std::vector<double> offsets;
};

/// Runs the batch kernel on every reachable tier and checks each row
/// against the scalar Halfspace::Contains loop (Polyhedron::Contains).
void ExpectHalfspaceParity(const Polyhedron& poly, const float* rows,
                           size_t n, const char* what) {
  const FlatHalfspaces flat(poly);
  const size_t dim = poly.dim();
  for (SimdTier tier : ReachableTiers()) {
    TierGuard guard(tier);
    std::vector<uint8_t> mask(n, 0xCC);
    HalfspaceContainsBatch(flat.normals.data(), flat.offsets.data(),
                           flat.offsets.size(), rows, n, dim, mask.data());
    for (size_t i = 0; i < n; ++i) {
      const uint8_t expected = poly.Contains(rows + i * dim) ? 1 : 0;
      ASSERT_EQ(mask[i], expected)
          << what << " tier=" << SimdTierName(tier) << " dim=" << dim
          << " facets=" << poly.num_halfspaces() << " n=" << n << " i=" << i;
    }
  }
}

double RandomNormalComponent(uint64_t* state) {
  const uint64_t r = SplitMix(state);
  switch (r % 29) {
    case 0:
      return 0.0;  // 0 * inf = NaN when the coordinate is infinite
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::infinity();
    case 3:
      return -std::numeric_limits<double>::infinity();
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
    default:
      return (static_cast<double>(r % 2001) - 1000.0) / 1000.0;
  }
}

double RandomOffset(uint64_t* state) {
  const uint64_t r = SplitMix(state);
  switch (r % 31) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return std::numeric_limits<double>::infinity();
    case 2:
      return -std::numeric_limits<double>::infinity();
    default:
      return static_cast<double>(r % 400) - 100.0;
  }
}

TEST(SimdDist, HalfspaceBatchMatchesHalfspaceContains) {
  uint64_t state = 7;
  // 17: one past the widest row the vector tiers hold in registers, so
  // their scalar fallback is checked too.
  for (size_t dim = 1; dim <= 17; ++dim) {
    for (size_t facets : {size_t{0}, size_t{1}, size_t{2}, size_t{5},
                          size_t{24}}) {
      Polyhedron poly(dim);
      for (size_t f = 0; f < facets; ++f) {
        std::vector<double> normal(dim);
        for (double& v : normal) v = RandomNormalComponent(&state);
        poly.AddHalfspace(std::move(normal), RandomOffset(&state));
      }
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{5}, size_t{7}, size_t{9}, size_t{15},
                       size_t{64}, size_t{257}}) {
        // Row block starts one float past the allocation: never 16- or
        // 32-byte aligned.
        std::vector<float> backing(1 + n * dim);
        for (float& v : backing) v = RandomCoord(&state);
        ExpectHalfspaceParity(poly, backing.data() + 1, n, "random");
      }
    }
  }
}

TEST(SimdDist, HalfspaceBatchSpecialSumsMatchScalarInEveryLane) {
  const double inf = std::numeric_limits<double>::infinity();
  const float finf = std::numeric_limits<float>::infinity();
  const float fnan = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    std::vector<double> normal;
    double offset;
    std::vector<float> row;
    bool inside;  // the scalar verdict, pinned
  };
  const Case cases[] = {
      {{0.0, 1.0}, 10.0, {finf, 0.0f}, false},    // 0*inf = NaN sum
      {{0.0, 1.0}, 10.0, {-finf, 0.0f}, false},   // 0*-inf = NaN sum
      {{0.0, 1.0}, 10.0, {fnan, 0.0f}, false},    // NaN coordinate
      {{0.0, 1.0}, 10.0, {1.0f, -finf}, true},    // -inf <= 10
      {{1.0, -1.0}, 10.0, {finf, finf}, false},   // inf - inf = NaN
      {{1.0, 1.0}, inf, {3.0f, 4.0f}, true},      // finite <= +inf
      {{1.0, 1.0}, -inf, {3.0f, 4.0f}, false},
      {{1.0, 0.0}, -inf, {-finf, 2.0f}, true},    // -inf <= -inf
      {{1.0, 1.0}, std::nan(""), {0.0f, 0.0f}, false},  // NaN offset
      {{std::nan(""), 1.0}, 10.0, {0.0f, 0.0f}, false}, // NaN normal
      {{inf, 1.0}, 10.0, {0.0f, 1.0f}, false},    // inf*0 = NaN
      {{-0.0, 1.0}, 0.0, {0.0f, -0.0f}, true},    // signed zeros: 0 <= 0
  };
  for (const Case& c : cases) {
    Polyhedron poly(2);
    poly.AddHalfspace(c.normal, c.offset);
    ASSERT_EQ(poly.Contains(c.row.data()), c.inside)
        << "scalar reference changed for offset " << c.offset;
    // Put the special row in every lane of a 4-row group and in the
    // scalar tail, among ordinary rows.
    for (size_t lane = 0; lane < 9; ++lane) {
      std::vector<float> rows(9 * 2, 0.5f);
      rows[lane * 2] = c.row[0];
      rows[lane * 2 + 1] = c.row[1];
      ExpectHalfspaceParity(poly, rows.data(), 9, "special");
    }
  }
}

TEST(SimdDist, HalfspaceBatchMatchesBallApproximations) {
  uint64_t state = 8;
  for (size_t dim : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
                     size_t{12}, size_t{16}}) {
    std::vector<double> center(dim);
    for (double& v : center) v = static_cast<double>(SplitMix(&state) % 10);
    const Polyhedron poly = Polyhedron::BallApproximation(center, 2.0, 24);
    const size_t n = 1001;
    std::vector<float> rows(n * dim);
    for (size_t i = 0; i < rows.size(); ++i) {
      // Points within 1.25 radii of the center on every axis: a real
      // in/out mix with many rows near the facets, even at 16 dimensions.
      const double jitter =
          (static_cast<double>(SplitMix(&state) % 5001) - 2500.0) / 1000.0;
      rows[i] = static_cast<float>(center[i % dim] + jitter);
    }
    size_t inside = 0;
    for (size_t i = 0; i < n; ++i) inside += poly.Contains(&rows[i * dim]);
    EXPECT_GT(inside, 0u) << "dim=" << dim;
    EXPECT_LT(inside, n) << "dim=" << dim;
    ExpectHalfspaceParity(poly, rows.data(), n, "ball");
  }
}

TEST(SimdDist, KnnNeighborOrderIdenticalAcrossTiersWithTies) {
  // End-to-end tie regression: a point set full of exact duplicates makes
  // the k-th distance a many-way tie, so any kernel that changed insert
  // order or rounded differently would surface as a different id set or
  // sequence. The (d2, id) sequences must match the scalar tier exactly.
  const size_t dim = 5;
  const uint64_t n = 3000;
  uint64_t state = 6;
  PointSet points(dim, 0);
  points.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    float row[8];
    // Snap coordinates to a coarse lattice: lots of duplicate rows.
    for (size_t j = 0; j < dim; ++j) {
      row[j] = static_cast<float>(SplitMix(&state) % 7);
    }
    points.Append(row);
  }
  auto tree = KdTreeIndex::Build(&points, KdTreeConfig{});
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);

  const double probes[][8] = {{3.1, 2.9, 3.0, 3.2, 2.8},
                              {0.0, 0.0, 0.0, 0.0, 0.0},
                              {6.0, 6.0, 6.0, 6.0, 6.0}};
  for (const double* p : probes) {
    // BestFirst and BruteForce each get their own scalar reference: with
    // heavy ties at the k-th distance the two algorithms may legitimately
    // keep different tied subsets (they insert in different orders), but
    // each must be invariant across tiers.
    std::vector<Neighbor> ref_best, ref_brute;
    {
      TierGuard guard(SimdTier::kScalar);
      ref_best = searcher.BestFirst(p, 25);
      ref_brute = searcher.BruteForce(p, 25);
    }
    ASSERT_EQ(ref_best.size(), 25u);
    for (SimdTier tier : ReachableTiers()) {
      TierGuard guard(tier);
      std::vector<Neighbor> got = searcher.BestFirst(p, 25);
      ASSERT_EQ(got.size(), ref_best.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, ref_best[i].id)
            << "tier=" << SimdTierName(tier) << " i=" << i;
        EXPECT_EQ(Bits(got[i].squared_distance),
                  Bits(ref_best[i].squared_distance))
            << "tier=" << SimdTierName(tier) << " i=" << i;
      }
      std::vector<Neighbor> brute = searcher.BruteForce(p, 25);
      ASSERT_EQ(brute.size(), ref_brute.size());
      for (size_t i = 0; i < brute.size(); ++i) {
        EXPECT_EQ(brute[i].id, ref_brute[i].id)
            << "tier=" << SimdTierName(tier) << " i=" << i;
        EXPECT_EQ(Bits(brute[i].squared_distance),
                  Bits(ref_brute[i].squared_distance))
            << "tier=" << SimdTierName(tier) << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace mds
