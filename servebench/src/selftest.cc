// Self-test of the benchmark's answer checks: each check must accept the
// service's genuine answer and reject each corruption of it.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "csp/instance.h"
#include "exec/thread_pool.h"
#include "service/server.h"

namespace servebench {

namespace svc = cspdb::service;

namespace {

struct Tally {
  int failures = 0;

  void Expect(bool accepted, bool want, const std::string& what) {
    const bool pass = accepted == want;
    std::printf("%s  %-58s %s\n", pass ? "PASS" : "FAIL", what.c_str(),
                accepted ? "accepted" : "rejected");
    if (!pass) ++failures;
  }
};

bool Accepts(const Item& item, const EngineAnswer& answer) {
  std::string why;
  return CheckAnswer(item.family, item.request, answer, &why);
}

// The first item of `family` (seeded draws) whose answer satisfies
// `wanted`, with that answer.
template <typename Wanted>
std::pair<Item, EngineAnswer> Find(svc::CspdbService* service, Family family,
                                   Wanted wanted) {
  cspdb::Rng rng(12345 + static_cast<int>(family));
  for (int attempt = 0; attempt < 1000; ++attempt) {
    Item item = MakeItem(family, &rng);
    svc::Response r = service->Handle(item.request);
    if (r.status == svc::StatusCode::kOk && wanted(r.answer)) {
      return {std::move(item), std::move(r.answer)};
    }
  }
  std::fprintf(stderr, "selftest: no suitable %s instance\n", FamilyName(family));
  std::exit(1);
}

}  // namespace

int RunSelfTest() {
  cspdb::exec::ThreadPool pool(1);
  svc::ServiceOptions options;
  options.pool = &pool;
  svc::CspdbService service(options);
  Tally tally;

  // CSP: a changed solution value, and SAT reported as UNSAT.
  {
    auto [item, answer] = Find(&service, Family::kRandomCsp, [](const EngineAnswer& a) {
      return std::get<svc::CspAnswer>(a).solution.has_value();
    });
    tally.Expect(Accepts(item, answer), true, "random_csp: genuine solution");
    const auto& csp = std::get<svc::SolveCspRequest>(item.request).instance;
    // Change one value so that a constraint on the variable breaks.
    svc::CspAnswer changed = std::get<svc::CspAnswer>(answer);
    bool made = false;
    for (int v = 0; v < csp.num_variables() && !made; ++v) {
      for (int d = 0; d < csp.num_values() && !made; ++d) {
        if (d == (*changed.solution)[v]) continue;
        std::vector<int> s = *changed.solution;
        s[v] = d;
        for (int c : csp.ConstraintsOn(v)) {
          const cspdb::Constraint& con = csp.constraint(c);
          cspdb::Tuple t;
          for (int x : con.scope) t.push_back(s[x]);
          if (con.allowed_set.count(t) == 0) made = true;
        }
        if (made) (*changed.solution)[v] = d;
      }
    }
    tally.Expect(Accepts(item, changed), false, "random_csp: one solution value changed");
    svc::CspAnswer out_of_range = std::get<svc::CspAnswer>(answer);
    (*out_of_range.solution)[0] = csp.num_values();
    tally.Expect(Accepts(item, out_of_range), false, "random_csp: value out of range");
    svc::CspAnswer unsat;
    tally.Expect(Accepts(item, unsat), false, "random_csp: SAT reported as UNSAT");
  }
  {
    auto [item, answer] = Find(&service, Family::kRandomCsp, [](const EngineAnswer& a) {
      return !std::get<svc::CspAnswer>(a).solution.has_value();
    });
    tally.Expect(Accepts(item, answer), true, "random_csp: genuine UNSAT");
  }

  // Rows: a dropped row, an added row, a duplicated row, swapped rows.
  for (Family family : {Family::kPathCq, Family::kStarCq, Family::kPoolCq}) {
    auto [item, answer] = Find(&service, family, [](const EngineAnswer& a) {
      return std::get<svc::RowsAnswer>(a).num_rows >= 2;
    });
    const std::string name = FamilyName(family);
    tally.Expect(Accepts(item, answer), true, name + ": genuine rows");
    const svc::RowsAnswer& rows = std::get<svc::RowsAnswer>(answer);
    svc::RowsAnswer dropped = rows;
    dropped.rows.resize(dropped.rows.size() - rows.arity);
    --dropped.num_rows;
    tally.Expect(Accepts(item, dropped), false, name + ": last row dropped");
    svc::RowsAnswer added = rows;
    for (int i = 0; i < rows.arity; ++i) added.rows.push_back(1 << 20);
    ++added.num_rows;
    tally.Expect(Accepts(item, added), false, name + ": row added");
    svc::RowsAnswer duplicated = rows;
    for (int i = 0; i < rows.arity; ++i) duplicated.rows.push_back(rows.rows[i]);
    ++duplicated.num_rows;
    tally.Expect(Accepts(item, duplicated), false, name + ": first row repeated");
    svc::RowsAnswer swapped = rows;
    for (int i = 0; i < rows.arity; ++i) {
      std::swap(swapped.rows[i], swapped.rows[rows.arity + i]);
    }
    tally.Expect(Accepts(item, swapped), false, name + ": first two rows swapped");
  }

  // Datalog: a flipped goal, a dropped closure fact, a changed fact count.
  {
    auto [item, answer] = Find(&service, Family::kTcDatalog, [](const EngineAnswer& a) {
      return std::get<svc::DatalogAnswer>(a).goal_facts.num_rows >= 1;
    });
    tally.Expect(Accepts(item, answer), true, "tc_datalog: genuine closure");
    svc::DatalogAnswer dropped = std::get<svc::DatalogAnswer>(answer);
    dropped.goal_facts.rows.resize(dropped.goal_facts.rows.size() - 2);
    --dropped.goal_facts.num_rows;
    --dropped.total_idb_facts;
    tally.Expect(Accepts(item, dropped), false, "tc_datalog: closure fact dropped");
  }
  // The pooled programs (transitive closure with goal G, and
  // non-2-colourability over a directed graph): a flipped goal and a
  // changed fact count.
  {
    auto [item, answer] = Find(&service, Family::kPoolDatalog,
                               [](const EngineAnswer&) { return true; });
    const std::string name =
        std::string("pool_datalog (goal ") +
        std::get<svc::DatalogFixpointRequest>(item.request).program.goal() + ")";
    tally.Expect(Accepts(item, answer), true, name + ": genuine");
    svc::DatalogAnswer flipped = std::get<svc::DatalogAnswer>(answer);
    flipped.goal_derived = !flipped.goal_derived;
    tally.Expect(Accepts(item, flipped), false, name + ": goal flipped");
    svc::DatalogAnswer miscounted = std::get<svc::DatalogAnswer>(answer);
    --miscounted.total_idb_facts;
    tally.Expect(Accepts(item, miscounted), false, name + ": fact count off by one");
  }
  for (bool derived : {true, false}) {
    auto [item, answer] = Find(&service, Family::kTwoColDatalog,
                               [derived](const EngineAnswer& a) {
                                 return std::get<svc::DatalogAnswer>(a).goal_derived ==
                                        derived;
                               });
    const std::string name = std::string("twocol_datalog (") +
                             (derived ? "not 2-colourable" : "2-colourable") + ")";
    tally.Expect(Accepts(item, answer), true, name + ": genuine");
    svc::DatalogAnswer flipped = std::get<svc::DatalogAnswer>(answer);
    flipped.goal_derived = !flipped.goal_derived;
    tally.Expect(Accepts(item, flipped), false, name + ": goal flipped");
    svc::DatalogAnswer miscounted = std::get<svc::DatalogAnswer>(answer);
    ++miscounted.total_idb_facts;
    tally.Expect(Accepts(item, miscounted), false, name + ": fact count off by one");
  }

  // Containment: a flipped Boolean, both ways, for both families.
  for (const auto& [family, value] :
       {std::pair{Family::kContainment, true}, std::pair{Family::kContainment, false},
        std::pair{Family::kPoolContainment, true},
        std::pair{Family::kPoolContainment, false}}) {
    auto [item, answer] = Find(&service, family,
                               [value](const EngineAnswer& a) {
                                 return std::get<svc::BoolAnswer>(a).value == value;
                               });
    const std::string name = std::string(FamilyName(family)) + " (" +
                             (value ? "contained" : "not contained") + ")";
    tally.Expect(Accepts(item, answer), true, name + ": genuine");
    tally.Expect(Accepts(item, svc::BoolAnswer{!value}), false,
                 name + ": Boolean flipped");
  }

  std::printf("selftest: %s (%d failure%s)\n", tally.failures == 0 ? "ok" : "FAILED",
              tally.failures, tally.failures == 1 ? "" : "s");
  return tally.failures == 0 ? 0 : 1;
}

}  // namespace servebench
