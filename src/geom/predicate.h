#ifndef MDS_GEOM_PREDICATE_H_
#define MDS_GEOM_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "geom/box.h"
#include "geom/polyhedron.h"

namespace mds {

/// Uniform query-region interface for the execution layer: every access
/// path plans candidate row ranges against *some* convex region (a box for
/// the layered grid and TABLESAMPLE, a polyhedron for kd-tree / Voronoi /
/// full-scan queries), and the shared scanner only needs two operations on
/// it — per-point membership for `partial` ranges and box classification
/// for planning. Adapters are views: the underlying region must outlive
/// the predicate.
class SpatialPredicate {
 public:
  virtual ~SpatialPredicate() = default;

  virtual size_t dim() const = 0;

  /// Per-row membership test (the scalar reference MatchBatch must equal).
  virtual bool Matches(const float* p) const = 0;

  /// Batch membership over `n` contiguous dim()-float rows:
  /// mask[i] = Matches(rows + i*dim()), bit-for-bit, through a SIMD kernel
  /// (core/simd_dist.h). Scanners call this once per decoded page.
  virtual void MatchBatch(const float* rows, size_t n,
                          uint8_t* mask) const = 0;

  /// Classifies a candidate bounding box against the region, with the same
  /// conservative contract as Polyhedron::Classify: kInside and kOutside
  /// are exact, undecided boxes are reported kPartial.
  virtual BoxClass Classify(const Box& box) const = 0;
};

/// View of a convex Polyhedron as a predicate. The halfspaces are copied
/// into flat normal and offset arrays at construction for the batch
/// kernel, so the polyhedron must not gain halfspaces afterwards.
class PolyhedronPredicate final : public SpatialPredicate {
 public:
  explicit PolyhedronPredicate(const Polyhedron* poly);

  size_t dim() const override { return poly_->dim(); }
  bool Matches(const float* p) const override { return poly_->Contains(p); }
  /// SIMD halfspace test (core/simd_dist.h), bit-identical to
  /// Polyhedron::Contains including NaN sums and 0*inf products.
  void MatchBatch(const float* rows, size_t n, uint8_t* mask) const override;
  BoxClass Classify(const Box& box) const override {
    return poly_->Classify(box);
  }

  const Polyhedron& polyhedron() const { return *poly_; }

 private:
  const Polyhedron* poly_;
  std::vector<double> normals_;  // halfspace h at [h*dim, (h+1)*dim)
  std::vector<double> offsets_;
};

/// View of an axis-aligned Box as a predicate. Box-vs-box classification
/// is exact in all three cases.
class BoxPredicate final : public SpatialPredicate {
 public:
  explicit BoxPredicate(const Box* box) : box_(box) {}

  size_t dim() const override { return box_->dim(); }
  bool Matches(const float* p) const override { return box_->Contains(p); }
  /// SIMD interval test (core/simd_dist.h), bit-identical to
  /// Box::Contains including its NaN-counts-as-inside comparison shape.
  void MatchBatch(const float* rows, size_t n, uint8_t* mask) const override;
  BoxClass Classify(const Box& box) const override;

  const Box& box() const { return *box_; }

 private:
  const Box* box_;
};

}  // namespace mds

#endif  // MDS_GEOM_PREDICATE_H_
