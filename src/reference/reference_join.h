// Frozen pre-optimization relational kernels: the row-per-Tuple relation
// store (one heap vector per row plus an unordered_set entry) and the
// Tuple-materializing hash join / semijoin / projection that db/algebra.cc
// shipped before the flat-storage rewrite. They are the trusted oracle
// for differential tests and the "before" side of BENCH_kernels.json.
// Do not optimize this file.

#ifndef CSPDB_REFERENCE_REFERENCE_JOIN_H_
#define CSPDB_REFERENCE_REFERENCE_JOIN_H_

#include <cstdint>
#include <vector>

#include "db/relation.h"
#include "relational/structure.h"

namespace cspdb {

/// The pre-change DbRelation storage layout: deduplicated rows, each its
/// own heap-allocated Tuple, membership via TupleSet.
struct ReferenceRelation {
  explicit ReferenceRelation(std::vector<int> schema_in)
      : schema(std::move(schema_in)) {}

  void AddRow(Tuple row) {
    if (row_set.insert(row).second) rows.push_back(std::move(row));
  }

  int AttributePosition(int attr) const {
    for (std::size_t i = 0; i < schema.size(); ++i) {
      if (schema[i] == attr) return static_cast<int>(i);
    }
    return -1;
  }

  std::size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  std::vector<int> schema;
  std::vector<Tuple> rows;
  TupleSet row_set;
};

/// Copies a flat-storage relation into the reference layout.
ReferenceRelation ToReferenceRelation(const DbRelation& r);

/// True if `r` and `ref` have the same schema and the same row set.
bool SameRows(const DbRelation& r, const ReferenceRelation& ref);

/// The pre-change hash join (Tuple keys, per-output-row allocation).
ReferenceRelation ReferenceNaturalJoin(const ReferenceRelation& r,
                                       const ReferenceRelation& s);

/// The pre-change projection with TupleSet deduplication.
ReferenceRelation ReferenceProject(const ReferenceRelation& r,
                                   const std::vector<int>& attrs);

/// The pre-change semijoin (materialized Tuple keys both sides).
ReferenceRelation ReferenceSemijoin(const ReferenceRelation& r,
                                    const ReferenceRelation& s);

/// The pre-change left-to-right join pipeline.
ReferenceRelation ReferenceJoinAll(
    const std::vector<ReferenceRelation>& relations,
    int64_t* peak_rows = nullptr);

}  // namespace cspdb

#endif  // CSPDB_REFERENCE_REFERENCE_JOIN_H_
