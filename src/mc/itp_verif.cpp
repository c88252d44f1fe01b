#include "mc/itp_verif.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace itpseq::mc {

// Lemma exchange: consumed kInvariant lemmas are asserted by build_bmc in
// every frame and conjoined into the fixpoint target and the PASS
// certificate.  kFrame lemmas are NOT used here: they would cut A-side
// models of the over-approximate iterations and break the image closure
// the fixpoint argument needs.  Freshly extracted interpolants are
// published as kCandidate latch clauses (PDR verifies before use).

void ItpVerifEngine::execute(EngineResult& out) {
  aig::Aig& G = space_.graph();
  const bool partitioned = opts_.itp_partitioned;
  // I = ITP(front ∧ T, B) at cut 1 of one bound-k instance, or, for
  // partitioned ITPs (Section III), the conjunction over the per-depth
  // exact / assume-k instances jj = 1..k, each from its own (smaller)
  // refutation.
  const cnf::TargetScheme scheme =
      partitioned ? opts_.scheme : cnf::TargetScheme::kBound;

  for (unsigned k = 1; k <= opts_.max_bound; ++k) {
    if (!enter_bound(out, k)) return;
    obs::Span obs_bound("bound", {{"k", k}});
    poll_invariants(out);
    // Nothing survives an outer restart, so the state-set AIG can be
    // garbage-collected wholesale once it grows (the invariant-lemma
    // conjunction is the only literal that must survive).
    if (opts_.compact_threshold > 0 && G.num_ands() > opts_.compact_threshold)
      space_.compact({&inv_});

    aig::Lit R = space_.init_pred();
    aig::Lit front = aig::kNullLit;  // null = S0 (exact initial states)

    for (unsigned j = 0;; ++j) {
      aig::Lit I = aig::kTrue;
      bool spurious = false;
      for (unsigned jj = partitioned ? 1 : k; jj <= k && !spurious; ++jj) {
        BmcInstance b = build_bmc(front, jj, scheme, /*proof=*/true);
        solve_bmc(b, out);
        if (b.status == sat::Status::kUnknown) {
          out.verdict = Verdict::kUnknown;
          return;
        }
        if (b.status == sat::Status::kSat) {
          // Only the first iteration starts from the exact initial states.
          if (j == 0) {
            report_fail(out, *b.solver, *b.unroller, jj, scheme);
            return;
          }
          spurious = true;
        } else {
          I = G.make_and(I, extract_terms(b, 1)[0]);
        }
      }
      if (spurious) break;  // deepen the unrolling

      // cone_size is an O(cone) DAG walk: keep it behind the gate so the
      // tracing-off path stays free.
      if (obs::enabled()) {
        obs::emit("itp_round", {{"k", k},
                                {"iteration", j + 1},
                                {"itp_nodes", G.cone_size(I)}});
      }
      out.stats.max_itp_nodes = std::max(out.stats.max_itp_nodes, G.cone_size(I));
      out.stats.lemmas_published += publish_candidates(
          opts_.exchange, G, I, /*quota=*/8, /*max_len=*/6,
          opts_.exchange_source);
      if (check_fixpoint(out, I, R, k, j + 1)) return;
      front = I;
    }
  }
  out.verdict = Verdict::kUnknown;  // bound limit reached
}

}  // namespace itpseq::mc
