// state_space_test.cpp — unit tests for the symbolic state-set manager and
// its SAT containment checks.
#include <gtest/gtest.h>

#include "bench_circuits/generators.hpp"
#include "mc/state_space.hpp"

namespace itpseq::mc {
namespace {

TEST(StateSpace, InputsMirrorLatches) {
  aig::Aig g = bench::counter(4, 11, 7);
  StateSpace s(g);
  EXPECT_EQ(s.graph().num_inputs(), g.num_latches());
  for (std::size_t i = 0; i < g.num_latches(); ++i)
    EXPECT_EQ(s.latch_input(i), s.graph().input(i));
}

TEST(StateSpace, InitPredMatchesResets) {
  aig::Aig g;
  (void)g.add_latch(aig::LatchInit::kZero);
  (void)g.add_latch(aig::LatchInit::kOne);
  (void)g.add_latch(aig::LatchInit::kUndef);
  for (std::size_t i = 0; i < 3; ++i) g.set_latch_next(g.latch(i), g.latch(i));
  StateSpace s(g);
  aig::Lit init = s.init_pred();
  std::vector<bool> v(s.graph().num_vars(), false);
  auto set = [&](int i, bool val) { v[aig::lit_var(s.graph().input(i))] = val; };
  set(0, false);
  set(1, true);
  set(2, false);
  EXPECT_TRUE(s.graph().evaluate(init, v));
  set(2, true);  // undef latch unconstrained
  EXPECT_TRUE(s.graph().evaluate(init, v));
  set(1, false);  // violates reset of latch 1
  EXPECT_FALSE(s.graph().evaluate(init, v));
}

TEST(StateSpace, InitPredWithVisibility) {
  aig::Aig g;
  (void)g.add_latch(aig::LatchInit::kOne);
  (void)g.add_latch(aig::LatchInit::kOne);
  for (std::size_t i = 0; i < 2; ++i) g.set_latch_next(g.latch(i), g.latch(i));
  StateSpace s(g);
  aig::Lit init = s.init_pred({true, false});  // latch 1 invisible
  std::vector<bool> v(s.graph().num_vars(), false);
  v[aig::lit_var(s.graph().input(0))] = true;
  EXPECT_TRUE(s.graph().evaluate(init, v));  // latch 1 free
}

TEST(StateSpace, ImpliesBasics) {
  aig::Aig g = bench::counter(3, 8, 5);
  StateSpace s(g);
  aig::Aig& G = s.graph();
  aig::Lit a = G.input(0);
  aig::Lit ab = G.make_and(G.input(0), G.input(1));
  EXPECT_EQ(s.implies(ab, a, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(a, ab, 5.0), Implication::kFails);
  EXPECT_EQ(s.implies(aig::kFalse, a, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(a, aig::kTrue, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(a, a, 5.0), Implication::kHolds);
  EXPECT_EQ(s.implies(aig::kTrue, aig::kFalse, 5.0), Implication::kFails);
  EXPECT_GT(s.num_sat_calls(), 0u);
}

TEST(StateSpace, Satisfiable) {
  aig::Aig g = bench::counter(3, 8, 5);
  StateSpace s(g);
  aig::Aig& G = s.graph();
  aig::Lit contradiction = G.make_and(G.input(0), aig::lit_not(G.input(0)));
  EXPECT_EQ(contradiction, aig::kFalse);  // strash folds it
  // a is satisfiable iff a => false fails.
  EXPECT_EQ(s.implies(G.input(1), aig::kFalse, 5.0), Implication::kFails);
  EXPECT_EQ(s.implies(aig::kFalse, aig::kFalse, 5.0), Implication::kHolds);
}

TEST(StateSpace, CompactRemapsRoots) {
  aig::Aig g = bench::counter(4, 11, 7);
  StateSpace s(g);
  aig::Aig& G = s.graph();
  aig::Lit keep = G.make_or(G.input(0), G.make_and(G.input(1), G.input(2)));
  // Garbage that compaction should drop.
  aig::Lit junk = keep;
  for (int i = 0; i < 50; ++i) junk = G.make_xor(junk, G.input(i % 4));
  std::size_t before = G.num_ands();
  s.compact({&keep});
  EXPECT_LT(s.graph().num_ands(), before);
  // `keep` still means the same function.
  std::vector<bool> v(s.graph().num_vars(), false);
  EXPECT_FALSE(s.graph().evaluate(keep, v));
  v[aig::lit_var(s.graph().input(0))] = true;
  EXPECT_TRUE(s.graph().evaluate(keep, v));
  v[aig::lit_var(s.graph().input(0))] = false;
  v[aig::lit_var(s.graph().input(1))] = true;
  v[aig::lit_var(s.graph().input(2))] = true;
  EXPECT_TRUE(s.graph().evaluate(keep, v));
}

}  // namespace
}  // namespace itpseq::mc
