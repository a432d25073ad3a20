// The benchmark's answer checks. None of them calls a library engine:
// each kind is evaluated here by the most direct method that is plainly
// correct on the benchmark's instance sizes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "csp/instance.h"
#include "datalog/program.h"
#include "db/conjunctive_query.h"
#include "relational/structure.h"

namespace servebench {

using cspdb::Atom;
using cspdb::ConjunctiveQuery;
using cspdb::CspInstance;
using cspdb::Structure;
using cspdb::Tuple;
namespace svc = cspdb::service;

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::abort();
}

svc::RowsAnswer SortedRows(std::vector<Tuple> tuples, int arity) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  svc::RowsAnswer out;
  out.arity = arity;
  out.num_rows = static_cast<int64_t>(tuples.size());
  for (const Tuple& t : tuples) out.rows.insert(out.rows.end(), t.begin(), t.end());
  return out;
}

// --- CSP search -------------------------------------------------------------

class CspSearch {
 public:
  explicit CspSearch(const CspInstance& csp)
      : n_(csp.num_variables()), d_(csp.num_values()), arcs_(n_) {
    if (d_ > 32) Die("CSP oracle supports at most 32 values");
    const uint32_t full = d_ == 32 ? ~0u : ((1u << d_) - 1);
    domains_.assign(n_, full);
    for (const cspdb::Constraint& c : csp.constraints()) {
      const bool unary =
          c.arity() == 1 || (c.arity() == 2 && c.scope[0] == c.scope[1]);
      if (unary) {
        uint32_t allowed = 0;
        for (const Tuple& t : c.allowed) {
          if (c.arity() == 1 || t[0] == t[1]) allowed |= 1u << t[0];
        }
        domains_[c.scope[0]] &= allowed;
      } else if (c.arity() == 2) {
        const int x = c.scope[0];
        const int y = c.scope[1];
        std::vector<uint32_t> xy(d_, 0), yx(d_, 0);
        for (const Tuple& t : c.allowed) {
          xy[t[0]] |= 1u << t[1];
          yx[t[1]] |= 1u << t[0];
        }
        arcs_[x].push_back({y, std::move(xy)});
        arcs_[y].push_back({x, std::move(yx)});
      } else {
        wide_.push_back(&c);
      }
    }
  }

  bool Satisfiable() {
    std::vector<int> assignment(n_, -1);
    return Search(domains_, &assignment, 0);
  }

 private:
  struct Arc {
    int other;
    std::vector<uint32_t> support;  // value of this var -> other's values
  };

  bool WideConsistent(const std::vector<int>& assignment) const {
    for (const cspdb::Constraint* c : wide_) {
      Tuple t;
      for (int v : c->scope) {
        if (assignment[v] < 0) break;
        t.push_back(assignment[v]);
      }
      if (t.size() == c->scope.size() && c->allowed_set.count(t) == 0) {
        return false;
      }
    }
    return true;
  }

  bool Search(const std::vector<uint32_t>& domains, std::vector<int>* assignment,
              int assigned) {
    if (assigned == n_) return true;
    int var = -1;
    int best = 33;
    for (int v = 0; v < n_; ++v) {
      if ((*assignment)[v] >= 0) continue;
      const int size = __builtin_popcount(domains[v]);
      if (size < best) {
        best = size;
        var = v;
      }
    }
    if (best == 0) return false;
    for (int a = 0; a < d_; ++a) {
      if ((domains[var] & (1u << a)) == 0) continue;
      std::vector<uint32_t> next = domains;
      next[var] = 1u << a;
      bool wiped = false;
      for (const Arc& arc : arcs_[var]) {
        if ((*assignment)[arc.other] >= 0) {
          if ((arc.support[a] & (1u << (*assignment)[arc.other])) == 0) {
            wiped = true;
          }
        } else {
          next[arc.other] &= arc.support[a];
          if (next[arc.other] == 0) wiped = true;
        }
        if (wiped) break;
      }
      if (wiped) continue;
      (*assignment)[var] = a;
      if (WideConsistent(*assignment) && Search(next, assignment, assigned + 1)) {
        return true;
      }
      (*assignment)[var] = -1;
    }
    return false;
  }

  int n_;
  int d_;
  std::vector<uint32_t> domains_;
  std::vector<std::vector<Arc>> arcs_;
  std::vector<const cspdb::Constraint*> wide_;
};

// --- conjunctive queries ----------------------------------------------------

// Enumerates every assignment of `q`'s variables that maps each body atom
// onto a tuple of `db`, atom by atom, looking tuples up through a
// per-(relation, position, value) index once some argument is bound.
class CqEnumerator {
 public:
  CqEnumerator(const ConjunctiveQuery& q, const Structure& db)
      : q_(q), db_(db) {
    const int n = db.domain_size();
    index_.resize(db.vocabulary().size());
    for (int rel = 0; rel < db.vocabulary().size(); ++rel) {
      const int arity = db.vocabulary().symbol(rel).arity;
      index_[rel].assign(arity, std::vector<std::vector<int>>(n));
      const std::vector<Tuple>& tuples = db.tuples(rel);
      for (int i = 0; i < static_cast<int>(tuples.size()); ++i) {
        for (int p = 0; p < arity; ++p) index_[rel][p][tuples[i][p]].push_back(i);
      }
    }
    // Greedy atom order: next the atom with most variables already bound.
    std::vector<bool> bound(q.num_variables(), false);
    std::vector<bool> placed(q.body().size(), false);
    for (std::size_t step = 0; step < q.body().size(); ++step) {
      int best = -1;
      int best_bound = -1;
      for (std::size_t a = 0; a < q.body().size(); ++a) {
        if (placed[a]) continue;
        int count = 0;
        for (int v : q.body()[a].args) count += bound[v] ? 1 : 0;
        if (count > best_bound) {
          best_bound = count;
          best = static_cast<int>(a);
        }
      }
      placed[best] = true;
      order_.push_back(best);
      for (int v : q.body()[best].args) bound[v] = true;
    }
  }

  svc::RowsAnswer HeadRows() {
    std::vector<int> assignment(q_.num_variables(), -1);
    for (const Atom& atom : q_.body()) {
      if (db_.vocabulary().IndexOf(atom.predicate) < 0) {
        return SortedRows({}, static_cast<int>(q_.head().size()));
      }
    }
    Recurse(0, &assignment);
    return SortedRows(std::move(rows_), static_cast<int>(q_.head().size()));
  }

 private:
  void Recurse(std::size_t step, std::vector<int>* assignment) {
    if (step == order_.size()) {
      Tuple row;
      for (int h : q_.head()) row.push_back((*assignment)[h]);
      rows_.push_back(std::move(row));
      return;
    }
    const Atom& atom = q_.body()[order_[step]];
    const int rel = db_.vocabulary().IndexOf(atom.predicate);
    const std::vector<Tuple>& tuples = db_.tuples(rel);
    const std::vector<int>* candidates = nullptr;
    for (std::size_t p = 0; p < atom.args.size(); ++p) {
      const int value = (*assignment)[atom.args[p]];
      if (value < 0) continue;
      const std::vector<int>& list = index_[rel][p][value];
      if (candidates == nullptr || list.size() < candidates->size()) {
        candidates = &list;
      }
    }
    auto visit = [&](const Tuple& t) {
      std::vector<int> newly;
      bool ok = true;
      for (std::size_t p = 0; p < atom.args.size() && ok; ++p) {
        int& slot = (*assignment)[atom.args[p]];
        if (slot < 0) {
          slot = t[p];
          newly.push_back(atom.args[p]);
        } else if (slot != t[p]) {
          ok = false;
        }
      }
      if (ok) Recurse(step + 1, assignment);
      for (int v : newly) (*assignment)[v] = -1;
    };
    if (candidates != nullptr) {
      for (int i : *candidates) visit(tuples[i]);
    } else {
      for (const Tuple& t : tuples) visit(t);
    }
  }

  const ConjunctiveQuery& q_;
  const Structure& db_;
  // index_[rel][position][value] -> ids of tuples with that value there.
  std::vector<std::vector<std::vector<std::vector<int>>>> index_;
  std::vector<int> order_;
  std::vector<Tuple> rows_;
};

std::vector<std::vector<int>> OutAdjacency(const Structure& g) {
  const int rel = g.vocabulary().IndexOf("E");
  if (rel < 0 || g.vocabulary().symbol(rel).arity != 2) {
    Die("graph oracle needs a binary relation E");
  }
  std::vector<std::vector<int>> out(g.domain_size());
  for (const Tuple& t : g.tuples(rel)) out[t[0]].push_back(t[1]);
  return out;
}

// Pairs (u, v) joined by at least one walk of exactly `length` edges,
// from walk counts (saturated, so only positivity matters).
svc::RowsAnswer PathRows(int length, const Structure& g) {
  const std::vector<std::vector<int>> out = OutAdjacency(g);
  const int n = g.domain_size();
  constexpr uint64_t kCap = uint64_t{1} << 62;
  std::vector<Tuple> rows;
  for (int u = 0; u < n; ++u) {
    std::vector<uint64_t> walks(n, 0);
    walks[u] = 1;
    for (int step = 0; step < length; ++step) {
      std::vector<uint64_t> next(n, 0);
      for (int v = 0; v < n; ++v) {
        if (walks[v] == 0) continue;
        for (int w : out[v]) next[w] = std::min(kCap, next[w] + walks[v]);
      }
      walks = std::move(next);
    }
    for (int v = 0; v < n; ++v) {
      if (walks[v] > 0) rows.push_back({u, v});
    }
  }
  return SortedRows(std::move(rows), 2);
}

// --- Datalog ----------------------------------------------------------------

// reach[u][v]: a walk of at least one edge leads from u to v (BFS from
// each vertex).
std::vector<std::vector<bool>> Reachability(const Structure& g) {
  const std::vector<std::vector<int>> out = OutAdjacency(g);
  const int n = g.domain_size();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (int u = 0; u < n; ++u) {
    std::vector<bool>& seen = reach[u];
    std::deque<int> queue;
    for (int v : out[u]) {
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop_front();
      for (int w : out[v]) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
  }
  return reach;
}

// Transitive closure T of E. With `cycle_goal` the goal is the nullary
// G, derived (by either of the repository's goal rules G :- T(x,x) and
// G :- T(x,y), T(y,x)) iff some vertex reaches itself; otherwise the goal
// is T itself.
svc::DatalogAnswer TransitiveClosureAnswer(const Structure& g, bool cycle_goal) {
  const std::vector<std::vector<bool>> reach = Reachability(g);
  const int n = g.domain_size();
  std::vector<Tuple> facts;
  bool cycle = false;
  for (int u = 0; u < n; ++u) {
    cycle = cycle || reach[u][u];
    for (int v = 0; v < n; ++v) {
      if (reach[u][v]) facts.push_back({u, v});
    }
  }
  svc::DatalogAnswer answer;
  answer.total_idb_facts = static_cast<int64_t>(facts.size());
  if (!cycle_goal) {
    answer.goal_derived = !facts.empty();
    answer.goal_facts = SortedRows(std::move(facts), 2);
    return answer;
  }
  answer.goal_derived = cycle;
  answer.goal_facts.arity = 0;
  answer.goal_facts.num_rows = cycle ? 1 : 0;
  answer.total_idb_facts += cycle ? 1 : 0;
  return answer;
}

// NonTwoColorabilityProgram: P(x, y) holds iff a walk of odd length
// leads from x to y, and the goal Q iff some vertex has a closed odd walk
// (on a symmetric E: some component is not 2-colourable). P is read off
// a BFS 2-colouring of the (vertex, walk parity) graph from each vertex.
svc::DatalogAnswer OddWalkAnswer(const Structure& g) {
  const std::vector<std::vector<int>> out = OutAdjacency(g);
  const int n = g.domain_size();
  int64_t odd_pairs = 0;
  bool odd_cycle = false;
  for (int u = 0; u < n; ++u) {
    // seen[2 * v + parity]: some walk from u of that parity ends at v.
    std::vector<bool> seen(2 * n, false);
    seen[2 * u] = true;
    std::deque<int> queue = {2 * u};
    while (!queue.empty()) {
      const int state = queue.front();
      queue.pop_front();
      const int parity = 1 - state % 2;
      for (int w : out[state / 2]) {
        if (!seen[2 * w + parity]) {
          seen[2 * w + parity] = true;
          queue.push_back(2 * w + parity);
        }
      }
    }
    for (int v = 0; v < n; ++v) odd_pairs += seen[2 * v + 1] ? 1 : 0;
    odd_cycle = odd_cycle || seen[2 * u + 1];
  }
  svc::DatalogAnswer answer;
  answer.goal_derived = odd_cycle;
  answer.goal_facts.arity = 0;
  answer.goal_facts.num_rows = odd_cycle ? 1 : 0;
  answer.total_idb_facts = odd_pairs + (odd_cycle ? 1 : 0);
  return answer;
}

// --- containment ------------------------------------------------------------

// q1 ⊆ q2 iff q2's canonical database maps homomorphically into q1's with
// head position i going to head position i.
bool Contained(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (q1.head().size() != q2.head().size()) Die("head arity differs");
  std::vector<int> h(q2.num_variables(), -1);
  for (std::size_t i = 0; i < q2.head().size(); ++i) {
    int& slot = h[q2.head()[i]];
    if (slot >= 0 && slot != q1.head()[i]) return false;
    slot = q1.head()[i];
  }
  const std::vector<Atom>& targets = q1.body();
  const std::vector<Atom>& atoms = q2.body();
  // Depth-first over q2's atoms, each mapped onto some q1 atom.
  auto recurse = [&](auto&& self, std::size_t i) -> bool {
    if (i == atoms.size()) return true;
    const Atom& atom = atoms[i];
    for (const Atom& target : targets) {
      if (target.predicate != atom.predicate ||
          target.args.size() != atom.args.size()) {
        continue;
      }
      std::vector<int> newly;
      bool ok = true;
      for (std::size_t p = 0; p < atom.args.size() && ok; ++p) {
        int& slot = h[atom.args[p]];
        if (slot < 0) {
          slot = target.args[p];
          newly.push_back(atom.args[p]);
        } else if (slot != target.args[p]) {
          ok = false;
        }
      }
      if (ok && self(self, i + 1)) return true;
      for (int v : newly) h[v] = -1;
    }
    return false;
  };
  return recurse(recurse, 0);
}

}  // namespace

bool CspSolutionSatisfies(const CspInstance& csp,
                          const std::vector<int>& solution) {
  if (static_cast<int>(solution.size()) != csp.num_variables()) return false;
  for (int value : solution) {
    if (value < 0 || value >= csp.num_values()) return false;
  }
  for (const cspdb::Constraint& c : csp.constraints()) {
    Tuple t;
    t.reserve(c.scope.size());
    for (int v : c.scope) t.push_back(solution[v]);
    if (c.allowed_set.count(t) == 0) {
      return false;
    }
  }
  return true;
}

bool CspSatisfiable(const CspInstance& csp) {
  return CspSearch(csp).Satisfiable();
}

EngineAnswer ExpectedAnswer(Family family, const ServiceRequest& request) {
  if (const auto* cq = std::get_if<svc::EvalCqRequest>(&request)) {
    if (family == Family::kPathCq) {
      return PathRows(static_cast<int>(cq->query.body().size()), cq->database);
    }
    return CqEnumerator(cq->query, cq->database).HeadRows();
  }
  if (const auto* dl = std::get_if<svc::DatalogFixpointRequest>(&request)) {
    // The benchmark's programs are told apart by goal and rule count:
    // transitive closure (goal T, 2 rules; goal G, 3 rules) and the
    // non-2-colourability program (goal Q, 3 rules).
    const std::size_t rules = dl->program.rules().size();
    if (dl->program.goal() == "T" && rules == 2) {
      return TransitiveClosureAnswer(dl->edb, false);
    }
    if (dl->program.goal() == "G" && rules == 3) {
      return TransitiveClosureAnswer(dl->edb, true);
    }
    if (dl->program.goal() == "Q" && rules == 3) return OddWalkAnswer(dl->edb);
    Die("no Datalog oracle for goal " + dl->program.goal());
  }
  if (const auto* pair = std::get_if<svc::CheckContainmentRequest>(&request)) {
    return svc::BoolAnswer{Contained(pair->q1, pair->q2)};
  }
  Die("ExpectedAnswer: CSP answers are checked by satisfaction");
}

bool CheckAnswer(Family family, const ServiceRequest& request,
                 const EngineAnswer& answer, std::string* why) {
  if (const auto* csp = std::get_if<svc::SolveCspRequest>(&request)) {
    const auto* got = std::get_if<svc::CspAnswer>(&answer);
    if (got == nullptr) {
      *why = "CSP request answered with another kind";
      return false;
    }
    if (!got->complete) {
      *why = "CSP answer marked incomplete";
      return false;
    }
    if (got->solution.has_value()) {
      if (!CspSolutionSatisfies(csp->instance, *got->solution)) {
        *why = "CSP solution violates a constraint";
        return false;
      }
      return true;
    }
    if (CspSatisfiable(csp->instance)) {
      *why = "CSP reported UNSAT but the benchmark's search found a solution";
      return false;
    }
    return true;
  }
  if (AnswerDigest(answer) != AnswerDigest(ExpectedAnswer(family, request))) {
    *why = std::string(FamilyName(family)) +
           " answer differs from the benchmark's own evaluation";
    return false;
  }
  return true;
}

}  // namespace servebench
