#include "mc/kinduction.hpp"

#include <algorithm>

#include "mc/lemma_exchange.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {

void KInductionEngine::add_distinct(sat::Solver& solver, cnf::Unroller& unr,
                                    unsigned i, unsigned j) {
  // OR over latches of (s_i[l] XOR s_j[l]), Tseitin-encoded.
  std::vector<sat::Lit> disj;
  for (std::size_t l = 0; l < model_.num_latches(); ++l) {
    sat::Lit a = unr.latch_lit(l, i, 0);
    sat::Lit b = unr.latch_lit(l, j, 0);
    sat::Lit x = sat::mk_lit(solver.new_var());
    // x <-> a XOR b
    solver.add_clause({sat::neg(x), a, b}, 0);
    solver.add_clause({sat::neg(x), sat::neg(a), sat::neg(b)}, 0);
    solver.add_clause({x, a, sat::neg(b)}, 0);
    solver.add_clause({x, sat::neg(a), b}, 0);
    disj.push_back(x);
  }
  solver.add_clause(disj, 0);
}

void KInductionEngine::execute(EngineResult& out) {
  // Incremental step-case solver: the uninitialized unrolling grows with k;
  // "good" constraints become permanent, targets are assumed per bound.
  sat::Solver step;
  opts_.apply_sat_options(step);
  cnf::Unroller step_unr(model_, step);
  step_unr.assert_constraints(0, 0);

  // Exchanged lemmas: the concrete base case takes invariant lemmas at
  // every frame and kFrame lemmas at frames <= bound (frame-t states are
  // reachable in exactly t steps).  The step case runs on *arbitrary*
  // states, where only invariant lemmas are sound — they strengthen the
  // induction hypothesis (classic invariant-strengthened k-induction);
  // real traces satisfy them everywhere, so PASS remains sound.
  std::vector<unsigned> step_next;  // per-invariant next step frame to assert
  unsigned step_solves = 0;

  // The verdict stays UNKNOWN unless a base case fails or a step case holds.
  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    if (!enter_bound(out, k)) break;
    obs::Span obs_bound("bound", {{"k", k}});
    feed_.poll();

    // --- base(k): counterexample of exact depth k ------------------------
    {
      obs::Span obs_base("base", {{"k", k}});
      BmcInstance b = build_bmc(aig::kNullLit, k, cnf::TargetScheme::kExact,
                                /*proof=*/false);
      for (const Lemma& l : feed_.frames)
        for (unsigned t = 0; t <= std::min(l.bound, k); ++t)
          assert_lemma_clause(*b.unroller, l, t, t + 1);
      out.stats.lemmas_consumed = feed_.invariants.size() + feed_.frames.size();
      solve_bmc(b, out);
      if (b.status == sat::Status::kSat)
        report_fail(out, *b.solver, *b.unroller, k, cnf::TargetScheme::kExact);
      if (b.status != sat::Status::kUnsat) break;
    }

    // --- step(k): p holds for k steps from *any* state, then fails -------
    obs::Span obs_step("step", {{"k", k}});
    step_unr.add_transition(k - 1, 0);
    step_unr.assert_constraints(k, 0);
    step_next.resize(feed_.invariants.size(), 0);
    for (std::size_t i = 0; i < feed_.invariants.size(); ++i)
      for (unsigned& t = step_next[i]; t <= k; ++t)
        assert_lemma_clause(step_unr, feed_.invariants[i], t, 0);
    // p at frame k-1 becomes a permanent constraint (it was the assumed
    // target at the previous bound), and the newly created frame k joins
    // the pairwise simple-path constraints.
    step.add_clause({sat::neg(step_unr.bad_lit(k - 1, 0, prop_))}, 0);
    if (unique_states_)
      for (unsigned i = 0; i < k; ++i) add_distinct(step, step_unr, i, k);

    sat::Status st =
        step.solve_assuming({step_unr.bad_lit(k, 0, prop_)}, sat_budget());
    ++step_solves;
    if (st == sat::Status::kUnsat) {
      // Either k-induction succeeded, or the path constraints themselves
      // became unsatisfiable (!step.ok()): the recurrence diameter is
      // exceeded, so the base cases exhausted all behaviours.  Both prove
      // the property.
      out.verdict = Verdict::kPass;
      out.j_fp = k;
    }
    if (st != sat::Status::kSat) break;
  }
  absorb_stats(out, step, step_solves);
}

EngineResult check_kinduction(const aig::Aig& model, std::size_t prop,
                              const EngineOptions& opts) {
  return KInductionEngine(model, prop, opts).run();
}

}  // namespace itpseq::mc
