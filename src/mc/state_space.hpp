// state_space.hpp — management of symbolic state sets (interpolants,
// reachability over-approximations R_j) as AIG predicates.
//
// Every engine keeps one StateSpace: an AIG whose input i stands for model
// latch i.  Interpolants are extracted into this AIG; unions, intersections
// and the containment checks ("I_j implies R_{j-1}", the fixpoint test of
// Figs. 1/2/5) are performed here, the latter by SAT.
//
// Containment checker.  The first implies() call creates one incremental
// sat::Solver (default settings) and one Tseitin encoder over the state-set
// AIG; both then live as long as that graph does.  The encoder memoizes, so
// each hash-consed node is encoded once per graph, and every query is one
// solve_assuming({a, ¬b}) call on the two root literals.  The solver holds
// only gate-definition clauses, which are valid for every query, so the
// clauses it learns carry over soundly from query to query.  compact()
// replaces the graph and drops the checker with it; the next query builds a
// fresh one over the compacted graph.  StateSpace is non-copyable because
// the encoder refers to the graph member by address.
#pragma once

#include <cstdint>
#include <memory>

#include "aig/aig.hpp"
#include "sat/solver.hpp"

namespace itpseq::mc {

/// Verdict of a containment query.
enum class Implication : std::uint8_t { kHolds, kFails, kUnknown };

class StateSpace {
 public:
  explicit StateSpace(const aig::Aig& model);
  ~StateSpace();
  StateSpace(const StateSpace&) = delete;
  StateSpace& operator=(const StateSpace&) = delete;

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
  /// old graph become invalid, and the containment checker is dropped.
  void compact(std::vector<aig::Lit*> roots);

  /// Containment queries that reached the SAT checker.
  std::size_t num_sat_calls() const { return sat_calls_; }
  /// Checkers built so far: one per graph that was queried (at most
  /// 1 + the number of compactions).
  std::size_t num_checkers() const { return checkers_built_; }

 private:
  struct Checker;

  const aig::Aig& model_;
  aig::Aig sets_;
  std::unique_ptr<Checker> checker_;  // over sets_; null until queried
  std::size_t sat_calls_ = 0;
  std::size_t checkers_built_ = 0;
};

}  // namespace itpseq::mc
