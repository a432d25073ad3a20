// Complete search for CSP instances: chronological backtracking with
// optional forward checking or full GAC (generalized arc consistency)
// maintenance, and MRV/degree variable ordering. This is the generic
// NP-complete baseline against which the paper's tractable cases
// (consistency methods, bounded treewidth, dichotomy classes) are
// measured.
//
// Domains and per-constraint valid-tuple sets are word-packed Bitsets
// (csp/support_masks.h): a revision probes supports with word-parallel
// ANDs, and backtracking restores valid-tuple words from a word trail
// instead of recomputing them.

#ifndef CSPDB_CSP_SOLVER_H_
#define CSPDB_CSP_SOLVER_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "csp/instance.h"
#include "csp/support_masks.h"
#include "exec/cancellation.h"
#include "util/bitset.h"

namespace cspdb {

/// Constraint-propagation level maintained during search.
enum class Propagation {
  kNone,             ///< check constraints only when fully assigned
  kForwardChecking,  ///< prune neighbors of the just-assigned variable
  kGac,              ///< maintain generalized arc consistency (MAC)
};

/// Knobs for BacktrackingSolver.
struct SolverOptions {
  Propagation propagation = Propagation::kGac;
  bool mrv = true;  ///< dynamic minimum-remaining-values variable order
  int64_t node_limit = -1;  ///< abort after this many nodes; -1 = unlimited

  /// Optional cooperative cancellation, polled every few search nodes.
  /// A cancelled run reports stats().aborted like a node-limit hit.
  const exec::CancellationToken* cancel = nullptr;
};

/// Counters reported by the search. Per-run view of the process-wide
/// "csp.*" metrics in obs/metrics.h (the registry accumulates across
/// runs; this struct resets per Solve/CountSolutions call).
struct SolverStats {
  int64_t nodes = 0;
  int64_t backtracks = 0;
  int64_t prunings = 0;
  int64_t revisions = 0;  ///< GAC (constraint, group) revision calls
  bool aborted = false;   ///< node limit hit before the search finished
};

/// A complete backtracking solver over a CspInstance. The instance must
/// outlive the solver.
class BacktrackingSolver {
 public:
  explicit BacktrackingSolver(const CspInstance& csp,
                              SolverOptions options = {});

  /// Finds one solution, or std::nullopt if the instance is unsolvable
  /// (or the node limit was hit — check stats().aborted).
  std::optional<std::vector<int>> Solve();

  /// Counts solutions up to `limit`. Restarts the search from scratch.
  int64_t CountSolutions(int64_t limit = INT64_MAX);

  const SolverStats& stats() const { return stats_; }

  /// Revisions performed per constraint during the last search (empty
  /// before the first Solve/CountSolutions). Feeds obs/explain.h.
  const std::vector<int64_t>& revision_counts() const {
    return revision_counts_;
  }

 private:
  void Reset();
  bool Prune(int var, int val);  // returns false if domain wiped out
  template <typename Callback>
  bool Search(Callback&& on_solution);  // true = stopped early
  template <typename Callback>
  bool Recurse(Callback&& on_solution, bool* stopped);
  bool AssignAndPropagate(int var, int val);
  bool CheckAssignedConstraints(int var) const;
  bool ForwardCheck(int var);
  bool PropagateGac(const std::vector<int>& seed_constraints);
  bool Revise(int c, int group);
  int GroupOf(int c, int var) const;
  int PickVariable() const;
  void UndoTo(std::size_t value_mark, std::size_t word_mark);

  const CspInstance& csp_;
  SolverOptions options_;
  SolverStats stats_;
  std::vector<int64_t> revision_counts_;  // [constraint] -> revisions

  std::vector<Bitset> active_;  // [var] -> packed surviving values
  std::vector<int> domain_size_;
  std::vector<int> assignment_;
  std::vector<std::pair<int, int>> trail_;  // pruned (var, val)
  std::vector<int> degree_;                 // static degree per variable
  bool last_revise_changed_ = false;        // out-param of Revise()

  // Support masks and the per-constraint mask of tuples still valid
  // under the current active domains (compact-table propagation).
  std::optional<SupportMasks> masks_;
  std::vector<Bitset> valid_;
  // Word-granular trail for valid_: (constraint, word index, old word),
  // replayed in reverse by UndoTo.
  struct WordTrailEntry {
    int constraint;
    int word;
    uint64_t old_word;
  };
  std::vector<WordTrailEntry> word_trail_;

  // Residual supports: residues_[c][group * num_values + val] is the
  // index of the last tuple found to support (group's variable, val) in
  // constraint c, or -1 (the classic GAC residue optimization; a residue
  // is stale exactly when it left the valid-tuple mask).
  std::vector<std::vector<int>> residues_;

  // Worklist scratch for PropagateGac, reused across calls.
  std::deque<int> gac_queue_;
  std::vector<char> gac_queued_;
};

}  // namespace cspdb

#endif  // CSPDB_CSP_SOLVER_H_
