#ifndef MDS_CORE_POINT_TABLE_H_
#define MDS_CORE_POINT_TABLE_H_

#include <vector>

#include "common/result.h"
#include "core/access_path.h"
#include "storage/bplus_tree.h"
#include "geom/point_set.h"
#include "storage/table.h"

namespace mds {

/// Schema of a generic stored point table: objID plus d float coordinate
/// columns.
Schema PointTableSchema(size_t dim);

/// Materializes `points` into a table in the order given by `order` (the
/// clustered order of an index; empty means natural order). Column 0 holds
/// the original point id.
Result<Table> MaterializePointTable(BufferPool* pool, const PointSet& points,
                                    const std::vector<uint64_t>& order);

/// Binding of a table produced by MaterializePointTable.
inline PointTableBinding BindPointTable(const Table* table, size_t dim) {
  return PointTableBinding{table, 0, 1, dim};
}

/// Builds a B+-tree secondary index mapping objID -> row id over a point
/// table (any row order). The nonclustered-index analog: spatial queries
/// return objIDs, and this index joins them back to stored rows without a
/// table scan.
Result<BPlusTree> BuildObjIdIndex(BufferPool* pool, const Table& table);

/// Fetches the row of one objID through the secondary index; writes the
/// coordinates to `out` (dim floats). Fails with NotFound for unknown ids.
Status LookupByObjId(const Table& table, const BPlusTree& index,
                     int64_t objid, float* out, size_t dim);

}  // namespace mds

#endif  // MDS_CORE_POINT_TABLE_H_
