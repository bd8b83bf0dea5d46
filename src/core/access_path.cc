#include "core/access_path.h"

#include <algorithm>
#include <string>

namespace mds {

namespace {

/// Exact page span of a clustered row interval.
double RangePages(const RowRange& range, uint32_t rows_per_page) {
  if (range.begin >= range.end) return 0.0;
  const uint64_t first_page = range.begin / rows_per_page;
  const uint64_t last_page = (range.end - 1) / rows_per_page;
  return static_cast<double>(last_page - first_page + 1);
}

double PlanPages(const std::vector<RowRange>& ranges,
                 uint32_t rows_per_page) {
  double pages = 0.0;
  for (const RowRange& range : ranges) {
    pages += RangePages(range, rows_per_page);
  }
  return pages;
}

void AppendPairs(const std::vector<std::pair<uint64_t, uint64_t>>& pairs,
                 RangeKind kind, std::vector<RowRange>* out) {
  for (const auto& [begin, end] : pairs) {
    out->push_back(RowRange{begin, end, kind});
  }
}

}  // namespace

Status AccessPath::Validate() const {
  if (binding_.table == nullptr) {
    return Status::InvalidArgument(std::string(name()) + ": no table bound");
  }
  if (binding_.dim != predicate_->dim() || binding_.dim > RangeScanner::kMaxDim) {
    return Status::InvalidArgument(std::string(name()) +
                                   ": dimension mismatch");
  }
  return Status::OK();
}

double AccessPath::PagesSpanned(uint64_t rows) const {
  const uint32_t rows_per_page = binding_.table->rows_per_page();
  return static_cast<double>((rows + rows_per_page - 1) / rows_per_page);
}

// --- FullScanPath ----------------------------------------------------------

FullScanPath::FullScanPath(const PointTableBinding& binding,
                           const Polyhedron& query)
    : AccessPath(binding, nullptr),
      owned_predicate_(std::make_unique<PolyhedronPredicate>(&query)) {
  predicate_ = owned_predicate_.get();
}

FullScanPath::FullScanPath(const PointTableBinding& binding, const Box& query)
    : AccessPath(binding, nullptr),
      owned_predicate_(std::make_unique<BoxPredicate>(&query)) {
  predicate_ = owned_predicate_.get();
}

CostEstimate FullScanPath::Estimate() const {
  CostEstimate estimate;
  estimate.page_fetches = TablePages();
  estimate.ranges = 1;
  estimate.planning = 0;
  return estimate;
}

bool FullScanPath::NextStep(QueryStats* stats, PlanStep* step) {
  (void)stats;
  if (done_) return false;
  done_ = true;
  step->ranges.assign(
      1, RowRange{0, binding_.table->num_rows(), RangeKind::kPartial});
  return true;
}

// --- KdTreePath ------------------------------------------------------------

KdTreePath::KdTreePath(const PointTableBinding& binding,
                       const KdTreeIndex& index, const Polyhedron& query)
    : AccessPath(binding, &polyhedron_predicate_),
      polyhedron_predicate_(&query) {
  std::vector<std::pair<uint64_t, uint64_t>> full;
  std::vector<std::pair<uint64_t, uint64_t>> partial;
  index.PlanPolyhedron(query, &full, &partial, &plan_stats_);
  std::vector<RowRange> full_ranges, partial_ranges;
  AppendPairs(full, RangeKind::kFull, &full_ranges);
  AppendPairs(partial, RangeKind::kPartial, &partial_ranges);
  CoalesceRanges(&full_ranges);
  CoalesceRanges(&partial_ranges);
  ranges_ = std::move(full_ranges);
  ranges_.insert(ranges_.end(), partial_ranges.begin(), partial_ranges.end());
  // Positional order, not full-before-partial: rows then emit in the
  // clustered row order, so TOP(limit) really is the first `limit`
  // matches of the clustered order (client.h's contract) and a
  // kd-subtree shard's reply is a contiguous slice of the full tree's
  // (the mdsc coordinator's concatenation-parity invariant).
  std::sort(ranges_.begin(), ranges_.end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin < b.begin;
            });
  for (const RowRange& range : ranges_) {
    candidate_rows_ += range.end - range.begin;
  }
}

CostEstimate KdTreePath::Estimate() const {
  CostEstimate estimate;
  estimate.page_fetches =
      PlanPages(ranges_, binding_.table->rows_per_page());
  estimate.ranges = static_cast<double>(ranges_.size());
  estimate.planning = static_cast<double>(plan_stats_.nodes_visited);
  return estimate;
}

bool KdTreePath::NextStep(QueryStats* stats, PlanStep* step) {
  if (done_) return false;
  done_ = true;
  stats->cells_full += plan_stats_.leaves_full;
  stats->cells_partial += plan_stats_.leaves_partial;
  step->ranges = ranges_;
  return true;
}

// --- GridSamplePath --------------------------------------------------------

GridSamplePath::GridSamplePath(const PointTableBinding& binding,
                               const LayeredGridIndex& index, const Box& query,
                               uint64_t n)
    : AccessPath(binding, &box_predicate_),
      box_predicate_(&query),
      index_(&index),
      query_(&query),
      n_(n) {}

Box GridSamplePath::CellBox(uint32_t l, int64_t cell) const {
  const uint32_t res = index_->layer(l).resolution;
  const Box& bounds = index_->bounding_box();
  const size_t d = bounds.dim();
  std::vector<double> lo(d), hi(d);
  int64_t c = cell;
  for (size_t j = 0; j < d; ++j) {
    const int64_t coord = c % res;
    c /= res;
    const double width = (bounds.hi(j) - bounds.lo(j)) / res;
    // Inflated by a hair: a point the grid assigned to this cell may sit a
    // rounding error outside the exact cell box, so `full` is only claimed
    // when the query contains the inflated box.
    const double margin = width * 1e-9;
    lo[j] = bounds.lo(j) + coord * width - margin;
    hi[j] = (coord + 1 == static_cast<int64_t>(res)
                 ? bounds.hi(j)
                 : bounds.lo(j) + (coord + 1) * width) +
            margin;
  }
  return Box(std::move(lo), std::move(hi));
}

CostEstimate GridSamplePath::Estimate() const {
  CostEstimate estimate;
  const double query_volume = query_->Volume();
  std::vector<LayeredGridIndex::CellRange> ranges;
  double expected_hits = 0.0;
  for (uint32_t l = 0; l < index_->num_layers(); ++l) {
    ranges.clear();
    index_->CellRangesFor(*query_, l, &ranges);
    estimate.planning += static_cast<double>(ranges.size());
    estimate.ranges += static_cast<double>(ranges.size());
    uint64_t candidate_rows = 0;
    double cell_volume = 1.0;
    const uint32_t res = index_->layer(l).resolution;
    const Box& bounds = index_->bounding_box();
    for (size_t j = 0; j < bounds.dim(); ++j) {
      cell_volume *= (bounds.hi(j) - bounds.lo(j)) / res;
    }
    for (const auto& cr : ranges) candidate_rows += cr.row_end - cr.row_begin;
    estimate.page_fetches += PagesSpanned(candidate_rows);
    const double covered = cell_volume * static_cast<double>(ranges.size());
    const double hit_fraction =
        covered > 0.0 ? std::min(1.0, query_volume / covered) : 0.0;
    expected_hits += static_cast<double>(candidate_rows) * hit_fraction;
    if (expected_hits >= static_cast<double>(n_)) break;
  }
  return estimate;
}

bool GridSamplePath::NextStep(QueryStats* stats, PlanStep* step) {
  if (next_layer_ >= index_->num_layers()) return false;
  // The paper's stop rule: finish the layer during which the n-th point
  // was found, then halt — layers are unbiased samples, so the result
  // follows the data distribution at any size.
  if (next_layer_ > 0 && stats->rows_emitted >= n_) return false;
  const uint32_t l = next_layer_++;
  cell_scratch_.clear();
  index_->CellRangesFor(*query_, l, &cell_scratch_);
  step->ranges.clear();
  step->ranges.reserve(cell_scratch_.size());
  for (const auto& cr : cell_scratch_) {
    const bool full = box_predicate_.Classify(CellBox(l, cr.cell)) ==
                      BoxClass::kInside;
    if (full) {
      ++stats->cells_full;
    } else {
      ++stats->cells_partial;
    }
    step->ranges.push_back(RowRange{
        cr.row_begin, cr.row_end, full ? RangeKind::kFull : RangeKind::kPartial});
  }
  CoalesceRanges(&step->ranges);
  return true;
}

// --- VoronoiPath -----------------------------------------------------------

VoronoiPath::VoronoiPath(const PointTableBinding& binding,
                         const VoronoiIndex& index, const Polyhedron& query)
    : AccessPath(binding, &polyhedron_predicate_),
      polyhedron_predicate_(&query),
      index_(&index) {
  Classify();
}

void VoronoiPath::Classify() {
  std::vector<RowRange> full_ranges, partial_ranges;
  for (uint32_t c = 0; c < index_->num_seeds(); ++c) {
    if (index_->cell_size(c) == 0) {
      ++cells_pruned_;
      continue;
    }
    const BoxClass cls =
        polyhedron_predicate_.Classify(index_->cell_bounds(c));
    if (cls == BoxClass::kOutside) {
      ++cells_pruned_;
      continue;
    }
    const RowRange range{index_->cell_row_begin(c), index_->cell_row_end(c),
                         cls == BoxClass::kInside ? RangeKind::kFull
                                                  : RangeKind::kPartial};
    if (cls == BoxClass::kInside) {
      ++cells_full_;
      full_ranges.push_back(range);
    } else {
      ++cells_partial_;
      partial_ranges.push_back(range);
    }
    candidate_rows_ += range.end - range.begin;
  }
  CoalesceRanges(&full_ranges);
  CoalesceRanges(&partial_ranges);
  ranges_ = std::move(full_ranges);
  ranges_.insert(ranges_.end(), partial_ranges.begin(), partial_ranges.end());
}

CostEstimate VoronoiPath::Estimate() const {
  CostEstimate estimate;
  estimate.page_fetches =
      PlanPages(ranges_, binding_.table->rows_per_page());
  estimate.ranges = static_cast<double>(ranges_.size());
  estimate.planning = static_cast<double>(index_->num_seeds());
  return estimate;
}

bool VoronoiPath::NextStep(QueryStats* stats, PlanStep* step) {
  if (done_) return false;
  done_ = true;
  stats->cells_full += cells_full_;
  stats->cells_partial += cells_partial_;
  stats->cells_pruned += cells_pruned_;
  step->ranges = ranges_;
  return true;
}

// --- TableSamplePath -------------------------------------------------------

TableSamplePath::TableSamplePath(const PointTableBinding& binding,
                                 const Box& query, double percent, uint64_t n,
                                 Rng* rng)
    : AccessPath(binding, &box_predicate_),
      box_predicate_(&query),
      query_(&query),
      percent_(percent),
      n_(n),
      rng_(rng) {}

Status TableSamplePath::Validate() const {
  if (percent_ < 0.0 || percent_ > 100.0) {
    return Status::InvalidArgument("tablesample: bad percentage");
  }
  return AccessPath::Validate();
}

CostEstimate TableSamplePath::Estimate() const {
  CostEstimate estimate;
  estimate.page_fetches = TablePages() * percent_ / 100.0;
  estimate.ranges = estimate.page_fetches;
  estimate.planning = 0;
  return estimate;
}

bool TableSamplePath::NextStep(QueryStats* stats, PlanStep* step) {
  (void)stats;
  const Table& table = *binding_.table;
  const double p = percent_ / 100.0;
  while (next_page_ < table.num_pages()) {
    const uint64_t page = next_page_++;
    if (rng_->NextDouble() >= p) {
      ++stats->cells_pruned;
      continue;
    }
    ++stats->cells_partial;
    const uint64_t begin = page * table.rows_per_page();
    const uint64_t end =
        std::min<uint64_t>(begin + table.rows_per_page(), table.num_rows());
    step->ranges.assign(1, RowRange{begin, end, RangeKind::kPartial});
    return true;
  }
  return false;
}

// --- Executor --------------------------------------------------------------

namespace {

/// The shared plan-drive loop: pulls PlanSteps from the path and hands
/// them to `scanner` (RangeScanner or ParallelRangeScanner — same
/// interface by design).
template <typename Scanner>
Result<StorageQueryResult> DriveAccessPath(AccessPath* path, Scanner* scanner,
                                           QueryStats* st) {
  StorageQueryResult result;
  const uint64_t limit = path->limit();
  PlanStep step;
  while (path->NextStep(st, &step)) {
    ++st->plan_steps;
    MDS_RETURN_NOT_OK(scanner->ScanStep(step, path->predicate(), limit, st,
                                        &result.objids));
    if (limit != 0 && result.objids.size() >= limit) break;
  }
  scanner->AccumulateIo(st);
  result.rows_scanned = st->rows_scanned;
  result.pages_read = st->pages_read;
  result.pages_fetched = st->pages_fetched;
  result.pages_skipped = st->pages_skipped;
  result.degraded = st->degraded;
  return result;
}

RangeScanner::Layout LayoutOf(const AccessPath& path) {
  return RangeScanner::Layout{path.binding().objid_col,
                              path.binding().first_coord_col,
                              path.binding().dim};
}

}  // namespace

Result<StorageQueryResult> ExecuteAccessPath(AccessPath* path,
                                             QueryStats* stats) {
  return ExecuteAccessPath(path, RangeScanner::ScanOptions{}, stats);
}

Result<StorageQueryResult> ExecuteAccessPath(
    AccessPath* path, const RangeScanner::ScanOptions& scan_options,
    QueryStats* stats) {
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats{};
  MDS_RETURN_NOT_OK(path->Validate());
  RangeScanner scanner(path->binding().table, LayoutOf(*path), scan_options);
  return DriveAccessPath(path, &scanner, st);
}

Result<StorageQueryResult> ExecuteAccessPathParallel(AccessPath* path,
                                                     unsigned num_threads,
                                                     QueryStats* stats) {
  return ExecuteAccessPathParallel(path, num_threads,
                                   RangeScanner::ScanOptions{}, stats);
}

Result<StorageQueryResult> ExecuteAccessPathParallel(
    AccessPath* path, unsigned num_threads,
    const RangeScanner::ScanOptions& scan_options, QueryStats* stats) {
  QueryStats local;
  QueryStats* st = stats != nullptr ? stats : &local;
  *st = QueryStats{};
  MDS_RETURN_NOT_OK(path->Validate());
  ParallelRangeScanner scanner(path->binding().table, LayoutOf(*path),
                               num_threads, scan_options);
  return DriveAccessPath(path, &scanner, st);
}

}  // namespace mds
