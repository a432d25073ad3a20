// Generalized arc consistency (AC-3 / GAC-3) as a standalone propagation
// pass over a CSP instance. Arc consistency is the workhorse special case
// of the consistency methods of Section 5 (2-consistency on binary
// instances) and the propagation engine behind Horn-SAT-style templates.
//
// The kernels run on word-packed state: domains are Bitset rows and every
// constraint carries per-(variable, value) masks over its tuple indices,
// so a support probe is a word-parallel AND across the mask of candidate
// tuples and the mask of tuples still valid under the current domains
// (the compact-table idea). A value pruning invalidates whole words of
// tuples at a time instead of re-scanning the relation row by row.
// Differential tests pin this implementation to the frozen byte-map
// reference in reference/reference_gac.h.

#ifndef CSPDB_CONSISTENCY_ARC_CONSISTENCY_H_
#define CSPDB_CONSISTENCY_ARC_CONSISTENCY_H_

#include <cstdint>
#include <vector>

#include "csp/instance.h"
#include "util/bitset.h"

namespace cspdb {

/// Result of enforcing generalized arc consistency.
struct AcResult {
  /// False if some variable's domain was wiped out (the instance is
  /// certainly unsolvable).
  bool consistent = true;

  /// False if the run was cancelled before reaching the fixpoint (only the
  /// parallel engine can be cancelled; serial engines always report true).
  /// An incomplete result is still sound: `domains` over-approximates the
  /// fixpoint, so no solution has been pruned.
  bool complete = true;

  /// domains[v][d] is true iff value d survives for variable v.
  std::vector<Bitset> domains;

  /// Number of (constraint, variable) revisions performed. Implementation-
  /// specific effort counter (word-packed and byte-map engines schedule
  /// revisions differently); compare prunings/domains across engines, not
  /// this.
  int64_t revisions = 0;

  /// Number of (variable, value) pairs pruned.
  int64_t prunings = 0;

  /// Number of domain wipeouts observed: 0 or 1 for plain GAC (a wipeout
  /// ends the run), and additionally one per refuted probe for SAC (a
  /// probe wipeout is the signal that prunes the probed value).
  int64_t wipeouts = 0;
};

/// Runs GAC-3 to fixpoint: repeatedly removes values without a supporting
/// tuple in some constraint (supporting tuples must themselves lie within
/// the current domains). Sound: no solution is ever pruned.
AcResult EnforceGac(const CspInstance& csp);

/// Applies pruned domains back onto an instance: adds a unary constraint
/// per variable restricting it to the surviving values. Useful for
/// propagate-then-search pipelines.
CspInstance RestrictToDomains(const CspInstance& csp,
                              const std::vector<Bitset>& domains);

/// Singleton arc consistency (SAC): value d survives for variable v only
/// if the instance restricted to x_v = d is still GAC-consistent. At
/// least as strong as GAC, still polynomial, still sound (no solution is
/// ever pruned) — the next rung on Section 5's local-consistency ladder.
/// Probes run incrementally on the shared support masks: each probe
/// copies the packed domain/valid-tuple state instead of rebuilding a
/// restricted CspInstance from scratch.
AcResult EnforceSingletonArcConsistency(const CspInstance& csp);

}  // namespace cspdb

#endif  // CSPDB_CONSISTENCY_ARC_CONSISTENCY_H_
