// state_space.hpp — management of symbolic state sets (interpolants,
// reachability over-approximations R_j) as AIG predicates.
//
// Every engine keeps one StateSpace: an AIG whose input i stands for model
// latch i.  Interpolants are extracted into this AIG; unions, intersections
// and the containment checks ("I_j implies R_{j-1}", the fixpoint test of
// Figs. 1/2/5) are performed here, the latter by SAT.
#pragma once

#include <cstdint>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace itpseq::mc {

/// Verdict of a containment query.
enum class Implication : std::uint8_t { kHolds, kFails, kUnknown };

class StateSpace {
 public:
  explicit StateSpace(const aig::Aig& model);

  aig::Aig& graph() { return sets_; }
  const aig::Aig& graph() const { return sets_; }
  const aig::Aig& model() const { return model_; }

  /// AIG literal (input) standing for model latch i.
  aig::Lit latch_input(std::size_t i) const { return sets_.input(i); }

  /// Predicate describing the model's initial states; latches with
  /// undefined reset are unconstrained.  With a visibility mask, only
  /// visible latches are constrained (CBA abstract initial states).
  aig::Lit init_pred(const std::vector<bool>& visible = {});

  /// SAT containment check: does `a` imply `b` over the state space?
  /// (i.e. is a AND NOT b unsatisfiable?)  `cancel` (optional) aborts the
  /// underlying SAT call cooperatively with kUnknown.
  Implication implies(aig::Lit a, aig::Lit b, double time_limit_sec,
                      const std::atomic<bool>* cancel = nullptr);

  /// Garbage-collect the state-set AIG: rebuild it keeping only the cones
  /// of `roots`, which are remapped in place.  All other literals into the
  /// old graph become invalid.
  void compact(std::vector<aig::Lit*> roots);

  std::size_t num_sat_calls() const { return sat_calls_; }

 private:
  const aig::Aig& model_;
  aig::Aig sets_;
  std::size_t sat_calls_ = 0;
};

}  // namespace itpseq::mc
