// Frozen copy of the pre-optimization db/algebra.cc operators, retargeted
// at ReferenceRelation (the pre-change storage layout). See
// reference_join.h.

#include "reference/reference_join.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace cspdb {
namespace {

void ReferenceSharedPositions(const ReferenceRelation& r,
                              const ReferenceRelation& s,
                              std::vector<int>* r_pos,
                              std::vector<int>* s_pos) {
  r_pos->clear();
  s_pos->clear();
  for (std::size_t i = 0; i < r.schema.size(); ++i) {
    int p = s.AttributePosition(r.schema[i]);
    if (p >= 0) {
      r_pos->push_back(static_cast<int>(i));
      s_pos->push_back(p);
    }
  }
}

Tuple ReferenceKeyAt(const Tuple& row, const std::vector<int>& positions) {
  Tuple key;
  key.reserve(positions.size());
  for (int p : positions) key.push_back(row[p]);
  return key;
}

}  // namespace

ReferenceRelation ToReferenceRelation(const DbRelation& r) {
  ReferenceRelation out(r.schema());
  for (std::size_t i = 0; i < r.size(); ++i) {
    out.AddRow(r.row(i).ToTuple());
  }
  return out;
}

bool SameRows(const DbRelation& r, const ReferenceRelation& ref) {
  if (r.schema() != ref.schema) return false;
  if (r.size() != ref.rows.size()) return false;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (ref.row_set.count(r.row(i).ToTuple()) == 0) return false;
  }
  return true;
}

ReferenceRelation ReferenceNaturalJoin(const ReferenceRelation& r,
                                       const ReferenceRelation& s) {
  std::vector<int> r_pos, s_pos;
  ReferenceSharedPositions(r, s, &r_pos, &s_pos);

  // Result schema: r's schema then s's non-shared attributes.
  std::vector<int> schema = r.schema;
  std::vector<int> s_extra_pos;
  for (std::size_t i = 0; i < s.schema.size(); ++i) {
    if (r.AttributePosition(s.schema[i]) < 0) {
      schema.push_back(s.schema[i]);
      s_extra_pos.push_back(static_cast<int>(i));
    }
  }
  ReferenceRelation out(std::move(schema));

  // Hash s on the shared key.
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
  for (const Tuple& row : s.rows) {
    index[ReferenceKeyAt(row, s_pos)].push_back(&row);
  }
  for (const Tuple& row : r.rows) {
    auto it = index.find(ReferenceKeyAt(row, r_pos));
    if (it == index.end()) continue;
    for (const Tuple* srow : it->second) {
      Tuple combined = row;
      for (int p : s_extra_pos) combined.push_back((*srow)[p]);
      out.AddRow(std::move(combined));
    }
  }
  return out;
}

ReferenceRelation ReferenceProject(const ReferenceRelation& r,
                                   const std::vector<int>& attrs) {
  std::vector<int> positions;
  positions.reserve(attrs.size());
  for (int a : attrs) {
    int p = r.AttributePosition(a);
    CSPDB_CHECK_MSG(p >= 0, "projection attribute not in schema");
    positions.push_back(p);
  }
  ReferenceRelation out(attrs);
  for (const Tuple& row : r.rows) out.AddRow(ReferenceKeyAt(row, positions));
  return out;
}

ReferenceRelation ReferenceSemijoin(const ReferenceRelation& r,
                                    const ReferenceRelation& s) {
  std::vector<int> r_pos, s_pos;
  ReferenceSharedPositions(r, s, &r_pos, &s_pos);
  TupleSet keys;
  for (const Tuple& row : s.rows) keys.insert(ReferenceKeyAt(row, s_pos));
  ReferenceRelation out(r.schema);
  for (const Tuple& row : r.rows) {
    if (keys.count(ReferenceKeyAt(row, r_pos)) > 0) out.AddRow(row);
  }
  return out;
}

ReferenceRelation ReferenceJoinAll(
    const std::vector<ReferenceRelation>& relations, int64_t* peak_rows) {
  CSPDB_CHECK(!relations.empty());
  ReferenceRelation acc = relations[0];
  int64_t peak = static_cast<int64_t>(acc.size());
  for (std::size_t i = 1; i < relations.size(); ++i) {
    acc = ReferenceNaturalJoin(acc, relations[i]);
    peak = std::max(peak, static_cast<int64_t>(acc.size()));
  }
  if (peak_rows != nullptr) *peak_rows = peak;
  return acc;
}

}  // namespace cspdb
