#include "mc/state_space.hpp"

#include "aig/compact.hpp"
#include "cnf/tseitin.hpp"
#include "obs/trace.hpp"

namespace itpseq::mc {

/// The persistent containment checker: gate clauses of every state-set node
/// queried so far.  Leaves (latch inputs) get fresh variables; the encoder
/// memoizes them like gates.  Pinned in place: the leaf callback holds
/// `this`.
struct StateSpace::Checker {
  explicit Checker(const aig::Aig& g)
      : enc(g, solver, [this](aig::Var) { return sat::mk_lit(solver.new_var()); }) {}
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  sat::Solver solver;
  cnf::TseitinEncoder enc;
};

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

StateSpace::~StateSpace() = default;

Implication StateSpace::implies(aig::Lit a, aig::Lit b, double time_limit_sec,
                                const std::atomic<bool>* cancel) {
  // Constant short-circuits (also avoids encoding constants).
  if (a == aig::kFalse || b == aig::kTrue || a == b) return Implication::kHolds;
  ++sat_calls_;
  if (!checker_) {
    checker_ = std::make_unique<Checker>(sets_);
    ++checkers_built_;
  }
  // a AND NOT b satisfiable under these assumptions?
  std::vector<sat::Lit> assumptions;
  if (a != aig::kTrue) assumptions.push_back(checker_->enc.encode(a, 0));
  if (b != aig::kFalse) assumptions.push_back(sat::neg(checker_->enc.encode(b, 0)));
  sat::Budget budget;
  budget.seconds = time_limit_sec;
  budget.cancel = cancel;
  switch (checker_->solver.solve_assuming(assumptions, budget)) {
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
  if (obs::enabled()) {
    obs::emit("state_compact", {{"nodes_before", sets_.num_ands()},
                                {"nodes_after", c.graph.num_ands()}});
  }
  checker_.reset();  // its encoding describes the old graph
  sets_ = std::move(c.graph);
  for (std::size_t i = 0; i < roots.size(); ++i) *roots[i] = c.roots[i];
}

}  // namespace itpseq::mc
