#include "geom/predicate.h"

#include "core/simd_dist.h"

namespace mds {

PolyhedronPredicate::PolyhedronPredicate(const Polyhedron* poly)
    : poly_(poly) {
  normals_.reserve(poly->num_halfspaces() * poly->dim());
  offsets_.reserve(poly->num_halfspaces());
  for (const Halfspace& h : poly->halfspaces()) {
    normals_.insert(normals_.end(), h.normal.begin(), h.normal.end());
    offsets_.push_back(h.offset);
  }
}

void PolyhedronPredicate::MatchBatch(const float* rows, size_t n,
                                     uint8_t* mask) const {
  HalfspaceContainsBatch(normals_.data(), offsets_.data(), offsets_.size(),
                         rows, n, poly_->dim(), mask);
}

void BoxPredicate::MatchBatch(const float* rows, size_t n,
                              uint8_t* mask) const {
  BoxContainsBatch(box_->lo().data(), box_->hi().data(), rows, n,
                   box_->dim(), mask);
}

BoxClass BoxPredicate::Classify(const Box& box) const {
  if (box_->ContainsBox(box)) return BoxClass::kInside;
  if (!box_->Intersects(box)) return BoxClass::kOutside;
  return BoxClass::kPartial;
}

}  // namespace mds
