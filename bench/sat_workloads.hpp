// sat_workloads.hpp — SAT workload builders of the solver bench driver
// (bench_sat): one definition per workload shape.
#pragma once

#include <random>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "cnf/unroller.hpp"
#include "sat/solver.hpp"

namespace itpseq::bench {

/// Pigeonhole PHP(n+1, n): classic combinatorial UNSAT, dense binary
/// clauses, heavy conflict analysis.  Labels partition the at-least-one
/// (1) and at-most-one (2) halves for interpolation benches.
inline void build_pigeonhole(sat::Solver& s, int n) {
  std::vector<std::vector<sat::Var>> p(n + 1, std::vector<sat::Var>(n));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i <= n; ++i) {
    std::vector<sat::Lit> cl;
    for (int h = 0; h < n; ++h) cl.push_back(sat::mk_lit(p[i][h]));
    s.add_clause(cl, 1);
  }
  for (int h = 0; h < n; ++h)
    for (int i = 0; i <= n; ++i)
      for (int j = i + 1; j <= n; ++j)
        s.add_clause({sat::mk_lit(p[i][h], true), sat::mk_lit(p[j][h], true)}, 2);
}

/// Random 3-SAT at the given clause/var ratio (4.26 ~ threshold).
inline void build_random3sat(sat::Solver& s, unsigned nvars, double ratio,
                             unsigned seed) {
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  std::mt19937 rng(seed);
  const unsigned ncl = static_cast<unsigned>(nvars * ratio);
  for (unsigned cl = 0; cl < ncl; ++cl) {
    std::vector<sat::Lit> lits;
    while (lits.size() < 3) {
      sat::Lit l = sat::mk_lit(rng() % nvars, rng() % 2);
      bool dup = false;
      for (sat::Lit x : lits)
        if (sat::var(x) == sat::var(l)) dup = true;
      if (!dup) lits.push_back(l);
    }
    s.add_clause(lits);
  }
}

/// Pure binary implication network (ring + random chords): propagation is
/// served entirely by the inline binary watchers.
inline void build_binary_net(sat::Solver& s, unsigned nv, unsigned seed) {
  std::mt19937 rng(seed);
  for (unsigned i = 0; i < nv; ++i) s.new_var();
  for (unsigned i = 0; i < nv; ++i)
    s.add_clause({sat::mk_lit(i, true), sat::mk_lit((i + 1) % nv)});
  for (unsigned i = 0; i < nv; ++i)
    s.add_clause({sat::mk_lit(rng() % nv, true), sat::mk_lit(rng() % nv)});
}

/// Bounded-queue BMC unrolling to depth k (Tseitin CNF, ~2/3 binary
/// clauses), bound target scheme.
inline void build_bmc_queue(sat::Solver& /*owned by unr*/, cnf::Unroller& unr,
                            unsigned k) {
  unr.assert_init(0);
  for (unsigned t = 0; t < k; ++t) unr.add_transition(t, t + 1);
  unr.assert_target(k, cnf::TargetScheme::kBound, 0);
}

/// PDR-shaped incremental session: one long-lived solver, `rounds`
/// assumption queries over a sliding window of activation-guarded clauses,
/// guards retired by unit clauses — exercises the level-0 satisfied-clause
/// sweep and the arena GC.  Runs the queries itself (build and solve are
/// interleaved by construction).
inline void run_incremental_gc_session(sat::Solver& s, int rounds,
                                       unsigned seed) {
  std::mt19937 rng(seed);
  const unsigned nv = 60;
  std::vector<sat::Var> vars;
  for (unsigned i = 0; i < nv; ++i) vars.push_back(s.new_var());
  std::vector<sat::Lit> acts;
  for (int round = 0; round < rounds; ++round) {
    sat::Lit act = sat::mk_lit(s.new_var());
    std::vector<sat::Lit> cl{sat::neg(act)};
    unsigned len = 2 + rng() % 4;
    for (unsigned k = 0; k < len; ++k)
      cl.push_back(sat::mk_lit(vars[rng() % nv], rng() % 2));
    s.add_clause(cl);
    acts.push_back(act);
    if (acts.size() > 64 && rng() % 4 == 0) {
      std::size_t idx = rng() % (acts.size() - 32);
      if (acts[idx] != sat::kNoLit) {
        s.add_clause({sat::neg(acts[idx])});
        acts[idx] = sat::kNoLit;
      }
    }
    std::vector<sat::Lit> as;
    for (std::size_t i = acts.size() >= 24 ? acts.size() - 24 : 0;
         i < acts.size(); ++i)
      if (acts[i] != sat::kNoLit && rng() % 2) as.push_back(acts[i]);
    s.solve_assuming(as);
  }
}

}  // namespace itpseq::bench
