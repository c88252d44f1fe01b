// replay.hpp — ITPSEQ's bound loop rebuilt from public calls, with a span
// around every call into a layer.
//
// The replay follows mc::ItpSeqEngine::execute for the configuration that
// mc::check_itpseq runs (Fig. 2 of the paper: parallel extraction of the
// whole sequence from one proof, assume-k targets, McMillan interpolants,
// no abstraction, no lemma exchange), so on every job both decide it must
// reach the same verdict, k_fp and j_fp as the engine.  Span names:
//
//   cnf.encode                  sat::Solver + cnf::Unroller set-up
//   sat.solve                   sat::Solver::solve
//   itp.extract                 InterpolantExtractor::extract_sequence
//   mc.state_space.init_pred    StateSpace::init_pred
//   mc.state_space.implies      StateSpace::implies (fixpoint checks)
//   aig.compact                 StateSpace::compact and the certificate's
//                               aig::compact
//   mc.certify                  mc::check_certificate of the PASS invariant
#pragma once

#include "mc/result.hpp"
#include "spans.hpp"

namespace paperbench {

struct ReplayResult {
  itpseq::mc::Verdict verdict = itpseq::mc::Verdict::kUnknown;
  unsigned k_fp = 0;
  unsigned j_fp = 0;
  /// PASS only: the replay's own certificate passed mc::check_certificate.
  bool certified = false;
};

/// Replay check_itpseq(model, 0, opts) with spans in `log`.
ReplayResult replay_itpseq(const itpseq::aig::Aig& model,
                           const itpseq::mc::EngineOptions& opts, SpanLog& log);

}  // namespace paperbench
