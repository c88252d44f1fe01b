// engine.hpp — base class for the unbounded model-checking engines.
//
// Concrete engines (Figs. 1, 2, 4 and 5 of the paper) share: the model and
// property under check, the wall-clock budget, the symbolic state space for
// interpolants, the depth-0 property check, and counterexample extraction
// from a satisfiable BMC instance.
//
// Every unrolling engine builds its BMC instances with build_bmc(): one
// labeled instance start ∧ T^k ∧ target in the interpolation-sequence
// labeling of cnf/unroller.hpp.  Standard interpolation (ITP) and the
// sequence engines differ only in the target scheme and in which cuts they
// read from the refutation: ITP reads cut 1, ITPSEQ cuts 1..k.  BMC, the
// k-induction base case and the depth-0 check use the same instance
// without a proof.
//
// Cancellation contract (EngineOptions::cancel): engines are cooperative.
// Every engine polls the token at the head of its main loop (out_of_time()
// covers it) and passes it into each SAT call (sat_budget() covers it), so
// a set token surfaces as kUnknown within one short SAT burst.  Engines
// never detach threads or leave work running past run()'s return — the
// threaded portfolio relies on this to join all members after a winner.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/unroller.hpp"
#include "mc/lemma_exchange.hpp"
#include "mc/result.hpp"
#include "mc/state_space.hpp"
#include "sat/solver.hpp"
#include "util/mem_budget.hpp"

namespace itpseq::mc {

class Engine {
 public:
  Engine(const aig::Aig& model, std::size_t prop, EngineOptions opts);
  virtual ~Engine() = default;

  /// Run to completion (or budget exhaustion).
  EngineResult run();

  virtual const char* name() const = 0;

  const EngineOptions& options() const { return opts_; }

 protected:
  /// Engine-specific algorithm; `out` pre-filled with engine name.
  virtual void execute(EngineResult& out) = 0;

  /// Seconds left in the budget (>= 0).
  double remaining() const;
  /// Cooperative cancellation requested?
  bool cancelled() const {
    return opts_.cancel != nullptr &&
           opts_.cancel->load(std::memory_order_relaxed);
  }
  /// Budget exhausted (wall clock or hard memory pressure) or cancellation
  /// requested — engines poll this at every loop head and stop with
  /// kUnknown when it fires.  The memory check is one relaxed load when no
  /// --mem-limit is armed; the budget itself is refreshed by the SAT core's
  /// polls, which run far more often than engine loop heads.
  bool out_of_time() const {
    return cancelled() || remaining() <= 0.0 ||
           util::MemoryBudget::instance().hard();
  }
  /// SAT budget covering the remaining engine time (and cancellation).
  sat::Budget sat_budget() const;

  /// Head of every bound loop: records k as the bound reached and reports
  /// bound_start.  Returns false, with verdict UNKNOWN, once the budget is
  /// exhausted.
  bool enter_bound(EngineResult& out, unsigned k) const;

  /// Handles trivial properties and the depth-0 check (S0 AND bad(V^0)).
  /// Returns true when the verdict is already decided (out is filled).
  bool preliminary_checks(EngineResult& out);

  /// A BMC instance and the status of its last solve.
  struct BmcInstance {
    std::unique_ptr<sat::Solver> solver;
    std::unique_ptr<cnf::Unroller> unroller;
    sat::Status status = sat::Status::kUnknown;
  };

  /// Build  start(V^0) ∧ T^k ∧ target(k)  on output prop_, labeled as an
  /// interpolation sequence (cnf/unroller.hpp): the start set and the first
  /// transition get label 1, transition t and frame t's logic label t+1.
  /// Clause order: start, transitions 0..k-1, model constraints at frames
  /// 0..k, target, consumed invariant lemmas at frames 0..k.  `start` is a
  /// state set of space_.graph(); kNullLit means S0 (of the visible
  /// latches), kTrue no constraint.  `visible` is the Unroller's
  /// abstraction mask (empty = concrete).  Not solved yet.
  BmcInstance build_bmc(aig::Lit start, unsigned k, cnf::TargetScheme scheme,
                        bool proof, const std::vector<bool>& visible = {});

  /// Solve `b` within the engine budget and absorb its statistics.
  void solve_bmc(BmcInstance& b, EngineResult& out) const;

  /// Interpolants at cuts 1..last_cut of a refuted proof-logging instance,
  /// as state sets of space_.graph().
  std::vector<aig::Lit> extract_terms(const BmcInstance& b, unsigned last_cut);

  /// Fill `out` with FAIL and the counterexample of a satisfied instance
  /// whose target is `scheme` at bound k.  A bound-k trace ends at the
  /// first frame where the bad output holds; the others end at frame k.
  void report_fail(EngineResult& out, const sat::Solver& solver,
                   const cnf::Unroller& unroller, unsigned k,
                   cnf::TargetScheme scheme) const;

  /// Read a counterexample of depth k out of a satisfied solver/unrolling.
  Trace extract_trace(const sat::Solver& solver, const cnf::Unroller& unroller,
                      unsigned k) const;

  /// Merge the statistics of a solver that answered `queries` SAT calls
  /// into the running result.  A long-lived incremental solver's counters
  /// are cumulative, so it is absorbed once, when the engine stops.
  void absorb_stats(EngineResult& out, const sat::Solver& solver,
                    std::uint64_t queries = 1) const;

  /// Build a PASS certificate from a state-set literal of space_.graph()
  /// (see mc/certify.hpp for the conditions the caller guarantees).
  Certificate make_certificate(aig::Lit r) const;

  /// Lemma exchange for the interpolation engines: pull new foreign lemmas
  /// and conjoin the invariant ones into inv_.
  void poll_invariants(EngineResult& out);

  /// Fixpoint check of bound k, iteration j: if `I ∧ inv_` implies R the
  /// verdict is PASS with certificate R ∧ inv_; an undecided check gives
  /// UNKNOWN.  Returns true once `out` is decided, otherwise widens R by I.
  bool check_fixpoint(EngineResult& out, aig::Lit I, aig::Lit& R, unsigned k,
                      unsigned j);

  const aig::Aig& model_;
  std::size_t prop_;
  EngineOptions opts_;
  StateSpace space_;
  std::chrono::steady_clock::time_point start_;

  // Lemma exchange (inactive without a hub).  Consumed kInvariant lemmas
  // hold in every reachable state and are inductive, so build_bmc asserts
  // them like model constraints, and the interpolation engines conjoin them
  // (inv_) into the fixpoint target and the PASS certificate.
  LemmaFeed feed_;
  aig::Lit inv_ = aig::kTrue;  // conjunction of consumed invariant lemmas
  std::size_t inv_used_ = 0;
};

/// Convenience: run one engine configuration on a model.
EngineResult check_itp(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts = {});
EngineResult check_itpseq(const aig::Aig& model, std::size_t prop,
                          const EngineOptions& opts = {});
EngineResult check_sitpseq(const aig::Aig& model, std::size_t prop,
                           EngineOptions opts = {});
EngineResult check_itpseq_cba(const aig::Aig& model, std::size_t prop,
                              EngineOptions opts = {});
EngineResult check_itpseq_pba(const aig::Aig& model, std::size_t prop,
                              const EngineOptions& opts = {});
EngineResult check_itpseq_cba_pba(const aig::Aig& model, std::size_t prop,
                                  EngineOptions opts = {});
EngineResult check_bmc(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts = {});
EngineResult check_pdr(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts = {});

}  // namespace itpseq::mc
