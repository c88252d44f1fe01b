#include "mc/bmc.hpp"

#include <algorithm>

#include "mc/lemma_exchange.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {

// Exchanged lemmas are sound to assert here because BMC's unrolling is
// rooted in the exact initial states, so frame-t states are reachable in
// exactly t steps: invariant lemmas hold at every frame, kFrame lemmas at
// frames t <= bound.  Both variants consume; BMC publishes nothing.

void BmcEngine::execute(EngineResult& out) {
  if (opts_.bmc_incremental) {
    execute_incremental(out);
    return;
  }
  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    if (!enter_bound(out, k)) return;
    obs::Span obs_bound("bound", {{"k", k}});
    feed_.poll();
    BmcInstance b = build_bmc(aig::kNullLit, k, opts_.scheme, /*proof=*/false);
    for (const Lemma& l : feed_.frames)
      for (unsigned t = 0; t <= std::min(l.bound, k); ++t)
        assert_lemma_clause(*b.unroller, l, t, t + 1);
    out.stats.lemmas_consumed = feed_.invariants.size() + feed_.frames.size();

    solve_bmc(b, out);
    if (b.status == sat::Status::kSat) {
      report_fail(out, *b.solver, *b.unroller, k, opts_.scheme);
      return;
    }
    if (b.status == sat::Status::kUnknown) {
      out.verdict = Verdict::kUnknown;
      return;
    }
  }
  out.verdict = Verdict::kUnknown;
}

void BmcEngine::execute_incremental(EngineResult& out) {
  // Single-instance formulation: one solver, the unrolling grows by one
  // frame per bound, targets are enabled by assumptions.  With the
  // exact-assume scheme the "no earlier failure" clauses become permanent
  // as the bound moves on, which encodes "first failure at depth k".
  sat::Solver solver;
  opts_.apply_sat_options(solver);
  cnf::Unroller unr(model_, solver);
  unr.assert_init(0);
  unr.assert_constraints(0, 0);
  std::vector<unsigned> inv_next, fr_next;  // per-lemma next frame to assert
  unsigned solves = 0;

  // The verdict stays UNKNOWN unless a bound finds a counterexample.
  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    if (!enter_bound(out, k)) break;
    obs::Span obs_bound("bound", {{"k", k}});
    unr.add_transition(k - 1, 0);
    unr.assert_constraints(k, 0);
    if (opts_.scheme == cnf::TargetScheme::kExactAssume && k >= 2)
      solver.add_clause({sat::neg(unr.bad_lit(k - 1, 0, prop_))}, 0);

    // Lemma clauses are permanent, so they trail the growing unrolling:
    // each lemma is asserted at the frames it has not covered yet.
    feed_.poll();
    inv_next.resize(feed_.invariants.size(), 0);
    fr_next.resize(feed_.frames.size(), 0);
    for (std::size_t i = 0; i < feed_.invariants.size(); ++i)
      for (unsigned& t = inv_next[i]; t <= k; ++t)
        assert_lemma_clause(unr, feed_.invariants[i], t, 0);
    for (std::size_t i = 0; i < feed_.frames.size(); ++i)
      for (unsigned& t = fr_next[i]; t <= std::min(feed_.frames[i].bound, k); ++t)
        assert_lemma_clause(unr, feed_.frames[i], t, 0);
    out.stats.lemmas_consumed = feed_.invariants.size() + feed_.frames.size();

    std::vector<sat::Lit> assumptions;
    if (opts_.scheme == cnf::TargetScheme::kBound) {
      sat::Lit act = sat::mk_lit(solver.new_var());
      std::vector<sat::Lit> cl{sat::neg(act)};
      for (unsigned t = 1; t <= k; ++t) cl.push_back(unr.bad_lit(t, 0, prop_));
      solver.add_clause(cl, 0);
      assumptions.push_back(act);
    } else {
      assumptions.push_back(unr.bad_lit(k, 0, prop_));
    }

    sat::Status status = solver.solve_assuming(assumptions, sat_budget());
    ++solves;
    if (status == sat::Status::kSat) report_fail(out, solver, unr, k, opts_.scheme);
    // UNKNOWN also when the clause set itself became unsatisfiable: no path
    // can delay the first failure this far, and shallower bounds were
    // refuted.
    if (status != sat::Status::kUnsat || !solver.ok()) break;
  }
  absorb_stats(out, solver, solves);
}

}  // namespace itpseq::mc
