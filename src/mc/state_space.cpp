#include "mc/state_space.hpp"

#include "aig/compact.hpp"
#include "cnf/tseitin.hpp"

namespace itpseq::mc {

StateSpace::StateSpace(const aig::Aig& model) : model_(model) {
  for (std::size_t i = 0; i < model.num_latches(); ++i) {
    aig::Var lv = aig::lit_var(model.latch(i));
    sets_.add_input(model.name(lv).empty() ? "latch" + std::to_string(i)
                                           : model.name(lv));
  }
}

aig::Lit StateSpace::init_pred(const std::vector<bool>& visible) {
  std::vector<aig::Lit> conj;
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    if (!visible.empty() && !visible[i]) continue;
    switch (model_.latch_init(i)) {
      case aig::LatchInit::kZero:
        conj.push_back(aig::lit_not(sets_.input(i)));
        break;
      case aig::LatchInit::kOne:
        conj.push_back(sets_.input(i));
        break;
      case aig::LatchInit::kUndef:
        break;
    }
  }
  return sets_.make_and_many(conj);
}

Implication StateSpace::implies(aig::Lit a, aig::Lit b, double time_limit_sec,
                                const std::atomic<bool>* cancel) {
  // Constant short-circuits (also avoids encoding constants).
  if (a == aig::kFalse || b == aig::kTrue || a == b) return Implication::kHolds;
  ++sat_calls_;
  sat::Solver solver;
  std::vector<sat::Lit> leaf_vars(sets_.num_vars(), sat::kNoLit);
  cnf::TseitinEncoder enc(sets_, solver, [&](aig::Var v) {
    if (leaf_vars[v] == sat::kNoLit) leaf_vars[v] = sat::mk_lit(solver.new_var());
    return leaf_vars[v];
  });
  // a AND NOT b satisfiable?
  if (a != aig::kTrue) solver.add_clause({enc.encode(a, 0)}, 0);
  if (b != aig::kFalse) solver.add_clause({sat::neg(enc.encode(b, 0))}, 0);
  sat::Budget budget;
  budget.seconds = time_limit_sec;
  budget.cancel = cancel;
  switch (solver.solve(budget)) {
    case sat::Status::kUnsat:
      return Implication::kHolds;
    case sat::Status::kSat:
      return Implication::kFails;
    case sat::Status::kUnknown:
      break;
  }
  return Implication::kUnknown;
}

void StateSpace::compact(std::vector<aig::Lit*> roots) {
  std::vector<aig::Lit> root_lits;
  root_lits.reserve(roots.size());
  for (aig::Lit* r : roots) root_lits.push_back(*r);
  aig::CompactResult c = aig::compact(sets_, root_lits);
  sets_ = std::move(c.graph);
  for (std::size_t i = 0; i < roots.size(); ++i) *roots[i] = c.roots[i];
}

}  // namespace itpseq::mc
