#include "storage/range_scanner.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace mds {

void CoalesceRanges(std::vector<RowRange>* ranges) {
  if (ranges->empty()) return;
  std::sort(ranges->begin(), ranges->end(),
            [](const RowRange& a, const RowRange& b) {
              return a.begin != b.begin ? a.begin < b.begin : a.kind < b.kind;
            });
  size_t out = 0;
  for (size_t i = 1; i < ranges->size(); ++i) {
    RowRange& prev = (*ranges)[out];
    const RowRange& cur = (*ranges)[i];
    if (cur.kind == prev.kind && cur.begin <= prev.end) {
      prev.end = std::max(prev.end, cur.end);
    } else {
      (*ranges)[++out] = cur;
    }
  }
  ranges->resize(out + 1);
}

namespace {

/// Copies the coordinates of `n` rows, `stride` bytes apart, into
/// contiguous kDim-float rows. The copy width is a compile-time constant,
/// so each row is a couple of plain moves, not a memcpy call.
template <size_t kDim>
void GatherCoords(const uint8_t* src, size_t stride, size_t n, float* dst) {
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(dst + i * kDim, src + i * stride, kDim * sizeof(float));
  }
}

/// GatherCoords<0> .. GatherCoords<kMaxDim>, indexed by dimension.
template <size_t... kDims>
constexpr auto GatherTable(std::index_sequence<kDims...>) {
  return std::array{&GatherCoords<kDims>...};
}

constexpr auto kGathers =
    GatherTable(std::make_index_sequence<RangeScanner::kMaxDim + 1>());

/// Reserves `out` once for a plan step: room for every candidate row,
/// capped by what `limit` still allows, so the scan itself never
/// reallocates. Growth stays geometric across steps, so paths that emit
/// many small steps (TABLESAMPLE pages, grid layers) do not copy the
/// result once per step.
void ReserveForStep(const PlanStep& step, uint64_t limit,
                    std::vector<int64_t>* out) {
  uint64_t rows = 0;
  for (const RowRange& range : step.ranges) rows += range.end - range.begin;
  if (limit != 0) {
    rows = std::min<uint64_t>(rows,
                              limit > out->size() ? limit - out->size() : 0);
  }
  const size_t need = out->size() + rows;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
}

}  // namespace

RangeScanner::RangeScanner(const Table* table, const Layout& layout)
    : RangeScanner(table, layout, ScanOptions{}) {}

RangeScanner::RangeScanner(const Table* table, const Layout& layout,
                           const ScanOptions& options)
    : table_(table), layout_(layout), options_(options) {
  MDS_CHECK(layout.dim <= kMaxDim);
  gather_ = kGathers[layout.dim];
  const size_t rows_per_page = table->rows_per_page();
  coord_batch_.resize(rows_per_page * layout.dim);
  match_mask_.resize(rows_per_page);
  hit_rows_.resize(rows_per_page);
}

Status RangeScanner::ScanStep(const PlanStep& step,
                              const SpatialPredicate& predicate,
                              uint64_t limit, QueryStats* stats,
                              std::vector<int64_t>* out) {
  ReserveForStep(step, limit, out);
  for (const RowRange& range : step.ranges) {
    if (limit != 0 && out->size() >= limit) return Status::OK();
    if (range.kind == RangeKind::kFull) {
      ++stats->ranges_full;
    } else {
      ++stats->ranges_partial;
    }
    MDS_RETURN_NOT_OK(ScanRange(range, predicate, limit, stats, out));
  }
  return Status::OK();
}

Status RangeScanner::ScanRange(const RowRange& range,
                               const SpatialPredicate& predicate,
                               uint64_t limit, QueryStats* stats,
                               std::vector<int64_t>* out) {
  if (range.begin > range.end || range.end > table_->num_rows()) {
    return Status::OutOfRange("RangeScanner: bad row range");
  }
  const Schema& schema = table_->schema();
  const uint32_t row_size = schema.row_size();
  const uint32_t objid_off = schema.offset(layout_.objid_col);
  const uint32_t coord_off = schema.offset(layout_.first_coord_col);
  const uint32_t rows_per_page = table_->rows_per_page();

  uint64_t row = range.begin;
  while (row < range.end) {
    const uint64_t page_index = row / rows_per_page;
    const uint64_t first_in_page = row % rows_per_page;
    const uint64_t rows_here =
        std::min<uint64_t>(range.end - row, rows_per_page - first_in_page);
    bool physical = false;
    Result<BufferPool::PageGuard> fetched =
        table_->pool()->Fetch(table_->page_id(page_index), &physical);
    if (!fetched.ok()) {
      if (options_.skip_corrupt_pages &&
          fetched.status().code() == StatusCode::kCorruption) {
        // Degraded mode: the page is quarantined; drop its rows, say so.
        ++stats->pages_skipped;
        stats->degraded = true;
        row += rows_here;
        continue;
      }
      return fetched.status();
    }
    BufferPool::PageGuard guard = std::move(*fetched);
    ++pages_fetched_;
    if (physical) ++pages_read_;
    const uint8_t* base = guard.page().bytes() + first_in_page * row_size;
    // Rows TOP(limit) still admits; ScanStep and the return below keep
    // out->size() < limit on entry to every page.
    const uint64_t room = limit == 0 ? rows_here : limit - out->size();

    // The page is handled as a whole: rows are counted, cut by the limit
    // and emitted into the step's reservation once per page. A limit that
    // fills part-way through stops at the row that filled it, so the
    // counters equal a row-at-a-time scan's.
    uint64_t consumed = 0;  // rows scanned before the limit (if any) hit
    uint64_t take = 0;      // rows emitted from this page
    const size_t at = out->size();
    if (range.kind == RangeKind::kFull) {
      // The BETWEEN case: every row qualifies, only the objid column is
      // decoded.
      take = std::min(rows_here, room);
      consumed = take;
      out->resize(at + take);
      for (uint64_t i = 0; i < take; ++i) {
        std::memcpy(out->data() + at + i, base + i * row_size + objid_off,
                    sizeof(int64_t));
      }
    } else {
      // Gather the page's coordinates into one contiguous batch, filter it
      // with the predicate's SIMD kernel, then compact the hits.
      gather_(base + coord_off, row_size, rows_here, coord_batch_.data());
      predicate.MatchBatch(coord_batch_.data(), rows_here,
                           match_mask_.data());
      uint64_t hits = 0;
      for (uint64_t i = 0; i < rows_here; ++i) {
        hit_rows_[hits] = static_cast<uint32_t>(i);
        hits += match_mask_[i];
      }
      take = std::min(hits, room);
      consumed = limit != 0 && take == room ? hit_rows_[take - 1] + 1
                                            : rows_here;
      stats->rows_tested += consumed;
      out->resize(at + take);
      for (uint64_t k = 0; k < take; ++k) {
        std::memcpy(out->data() + at + k,
                    base + hit_rows_[k] * row_size + objid_off,
                    sizeof(int64_t));
      }
    }
    stats->rows_scanned += consumed;
    stats->rows_emitted += take;
    if (limit != 0 && out->size() >= limit) return Status::OK();
    row += rows_here;
  }
  return Status::OK();
}

void RangeScanner::AccumulateIo(QueryStats* stats) {
  stats->pages_fetched += pages_fetched_;
  stats->pages_read += pages_read_;
  pages_fetched_ = 0;
  pages_read_ = 0;
}

// --- ParallelRangeScanner --------------------------------------------------

ParallelRangeScanner::ParallelRangeScanner(const Table* table,
                                           const RangeScanner::Layout& layout,
                                           unsigned num_threads)
    : ParallelRangeScanner(table, layout, num_threads,
                           RangeScanner::ScanOptions{}) {}

ParallelRangeScanner::ParallelRangeScanner(
    const Table* table, const RangeScanner::Layout& layout,
    unsigned num_threads, const RangeScanner::ScanOptions& options)
    : table_(table), layout_(layout), pool_(num_threads) {
  workers_.reserve(pool_.num_threads());
  for (unsigned w = 0; w < pool_.num_threads(); ++w) {
    workers_.emplace_back(table, layout, options);
  }
  partitions_.resize(pool_.num_threads());
}

Status ParallelRangeScanner::ScanStep(const PlanStep& step,
                                      const SpatialPredicate& predicate,
                                      uint64_t limit, QueryStats* stats,
                                      std::vector<int64_t>* out) {
  // Range counters come from the original (un-split) step so the parallel
  // scan reports the same plan shape as the serial one.
  uint64_t total_rows = 0;
  for (const RowRange& range : step.ranges) {
    total_rows += range.end - range.begin;
    if (range.kind == RangeKind::kFull) {
      ++stats->ranges_full;
    } else {
      ++stats->ranges_partial;
    }
  }
  const uint64_t remaining =
      limit == 0 ? 0 : (out->size() >= limit ? 0 : limit - out->size());
  if (limit != 0 && remaining == 0) return Status::OK();
  ReserveForStep(step, limit, out);

  const unsigned threads = pool_.num_threads();
  const uint32_t rows_per_page = table_->rows_per_page();
  // Below ~one page per worker the fork/join overhead cannot pay off.
  if (threads == 1 || total_rows < uint64_t{2} * threads * rows_per_page) {
    QueryStats local;
    Status status =
        workers_[0].ScanStep(step, predicate, limit, &local, out);
    stats->rows_scanned += local.rows_scanned;
    stats->rows_tested += local.rows_tested;
    stats->rows_emitted += local.rows_emitted;
    stats->pages_skipped += local.pages_skipped;
    stats->degraded = stats->degraded || local.degraded;
    return status;
  }

  // Partition the plan's rows into `threads` contiguous, page-aligned
  // chunks. Page alignment keeps worker page sets disjoint within each
  // range, which is what makes summed pages_fetched match serial exactly.
  for (auto& partition : partitions_) partition.clear();
  const uint64_t target = (total_rows + threads - 1) / threads;
  unsigned w = 0;
  uint64_t quota = target;
  for (const RowRange& range : step.ranges) {
    uint64_t begin = range.begin;
    while (begin < range.end) {
      if (quota == 0 && w + 1 < threads) {
        ++w;
        quota = target;
      }
      uint64_t cut = range.end;
      if (range.end - begin > quota && w + 1 < threads) {
        // Round the cut up to the next page boundary (always progresses,
        // since begin + quota rounds past begin's page start).
        const uint64_t raw = begin + quota;
        cut = std::min<uint64_t>(
            range.end,
            (raw + rows_per_page - 1) / rows_per_page * rows_per_page);
      }
      partitions_[w].push_back(RowRange{begin, cut, range.kind});
      const uint64_t taken = cut - begin;
      quota -= std::min(quota, taken);
      begin = cut;
    }
  }

  std::vector<QueryStats> worker_stats(threads);
  std::vector<std::vector<int64_t>> worker_out(threads);
  std::vector<Status> worker_status(threads);
  pool_.Run([&](unsigned worker) {
    if (partitions_[worker].empty()) return;
    PlanStep part;
    part.ranges = partitions_[worker];
    worker_status[worker] =
        workers_[worker].ScanStep(part, predicate, remaining,
                                  &worker_stats[worker], &worker_out[worker]);
  });

  for (unsigned i = 0; i < threads; ++i) {
    MDS_RETURN_NOT_OK(worker_status[i]);
  }

  for (unsigned i = 0; i < threads; ++i) {
    stats->rows_scanned += worker_stats[i].rows_scanned;
    stats->rows_tested += worker_stats[i].rows_tested;
    stats->pages_skipped += worker_stats[i].pages_skipped;
    stats->degraded = stats->degraded || worker_stats[i].degraded;
  }

  // Deterministic merge: concatenate in partition order (== plan order),
  // truncating at the limit, so the emitted sequence matches serial.
  uint64_t emitted = 0;
  for (unsigned i = 0; i < threads; ++i) {
    uint64_t take = worker_out[i].size();
    if (limit != 0) {
      const uint64_t room = limit - out->size();
      take = std::min<uint64_t>(take, room);
    }
    out->insert(out->end(), worker_out[i].begin(),
                worker_out[i].begin() + static_cast<ptrdiff_t>(take));
    emitted += take;
    if (limit != 0 && out->size() >= limit) break;
  }
  stats->rows_emitted += emitted;
  return Status::OK();
}

void ParallelRangeScanner::AccumulateIo(QueryStats* stats) {
  for (RangeScanner& worker : workers_) {
    worker.AccumulateIo(stats);
  }
}

}  // namespace mds
