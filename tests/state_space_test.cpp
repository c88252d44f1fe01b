// state_space_test.cpp — unit tests for the symbolic state-set manager and
// its SAT containment checks.
#include <gtest/gtest.h>

#include <atomic>
#include <random>

#include "bench_circuits/generators.hpp"
#include "mc/engine.hpp"
#include "mc/state_space.hpp"
#include "obs/trace.hpp"

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

/// `n` latches that hold their value; only the latch count matters here.
aig::Aig latches_only(unsigned n) {
  aig::Aig g;
  for (unsigned i = 0; i < n; ++i) (void)g.add_latch(aig::LatchInit::kZero);
  for (unsigned i = 0; i < n; ++i) g.set_latch_next(g.latch(i), g.latch(i));
  return g;
}

/// Ground truth: is a AND NOT b false under every assignment of the inputs?
Implication brute_implies(const aig::Aig& G, aig::Lit a, aig::Lit b) {
  std::vector<bool> v(G.num_vars(), false);
  for (std::uint32_t m = 0; m < (1u << G.num_inputs()); ++m) {
    for (std::size_t i = 0; i < G.num_inputs(); ++i)
      v[aig::lit_var(G.input(i))] = ((m >> i) & 1u) != 0;
    if (G.evaluate(a, v) && !G.evaluate(b, v)) return Implication::kFails;
  }
  return Implication::kHolds;
}

TEST(StateSpace, PersistentCheckerAgreesWithBruteForce) {
  // Long query sequences on one StateSpace whose graph grows between
  // queries, as the engines grow it: new terms are conjoined into old ones
  // and the R chain is a growing disjunction.  One compaction midway drops
  // the checker; budget-killed queries must not poison later answers.
  std::mt19937 rng(20110314);
  for (unsigned n : {2u, 3u, 4u, 5u, 6u}) {
    aig::Aig model = latches_only(n);
    StateSpace s(model);
    aig::Aig& G = s.graph();
    auto pick_input = [&] {
      aig::Lit l = s.latch_input(rng() % n);
      return (rng() & 1u) != 0 ? aig::lit_not(l) : l;
    };
    std::vector<aig::Lit> pool;
    for (unsigned i = 0; i < n; ++i) pool.push_back(pick_input());
    auto pick = [&] {
      aig::Lit l = pool[rng() % pool.size()];
      return (rng() % 4) == 0 ? aig::lit_not(l) : l;
    };
    const std::size_t kQueries = 300;
    std::size_t compactions = 0;
    std::size_t answers[2] = {0, 0};  // fails, holds
    for (std::size_t q = 0; q < kQueries; ++q) {
      // Grow the graph: a few new terms, some sharing old structure.
      for (int g = 0; g < 3; ++g) {
        aig::Lit t = (rng() % 3) == 0 ? G.make_or(pick(), pick())
                                      : G.make_and(pick(), pick_input());
        pool.push_back(t);
      }
      pool.push_back(G.make_or(pool[pool.size() - 1], pool[rng() % pool.size()]));
      if (q == kQueries / 2) {
        std::vector<aig::Lit*> roots;
        for (aig::Lit& l : pool) roots.push_back(&l);
        s.compact(std::move(roots));
        ++compactions;
      }
      aig::Lit a = pick();
      aig::Lit b = (rng() % 3) == 0 ? G.make_or(a, pick()) : pick();
      // Trivial queries are answered without the checker.
      bool trivial = a == b || a == aig::kFalse || b == aig::kTrue;
      if (!trivial && q % 50 == 7) {
        // Zero budget: the query is abandoned before search.
        EXPECT_EQ(s.implies(a, b, 0.0), Implication::kUnknown);
      } else if (!trivial && q % 50 == 23) {
        std::atomic<bool> cancel{true};
        EXPECT_EQ(s.implies(a, b, 5.0, &cancel), Implication::kUnknown);
      }
      Implication expect = brute_implies(G, a, b);
      ++answers[expect == Implication::kHolds];
      ASSERT_EQ(s.implies(a, b, 5.0), expect) << "n=" << n << " query " << q;
    }
    // Both answers are common, so neither can pass by accident.
    EXPECT_GT(answers[0], kQueries / 5);
    EXPECT_GT(answers[1], kQueries / 5);
    EXPECT_GT(s.num_sat_calls(), kQueries / 2);
    EXPECT_EQ(s.num_checkers(), 1 + compactions);
  }
}

TEST(StateSpace, EngineBuildsOneCheckerPerCompaction) {
  // Compaction events come from the trace sink; every compaction must
  // cost exactly one new checker, and no check may build its own solver.
  aig::Aig g = bench::token_ring(10, false);
  for (std::size_t threshold : {std::size_t{0}, std::size_t{1}}) {
    EngineOptions opts;
    opts.time_limit_sec = 30.0;
    opts.compact_threshold = threshold;
    obs::TraceConfig cfg;  // no file: summary-only sink
    cfg.sample_interval_sec = 0;
    obs::TraceSink sink(cfg);
    EngineResult r = check_itpseq(g, 0, opts);
    sink.finish();
    ASSERT_EQ(r.verdict, Verdict::kPass);
    std::uint64_t compactions = 0;
    for (const auto& [key, count] : sink.summary().kinds)
      if (key.second == "state_compact") compactions += count;
    EXPECT_EQ(threshold == 0, compactions == 0);
    EXPECT_GT(r.stats.fixpoint_checks, r.stats.fixpoint_solvers);
    EXPECT_EQ(r.stats.fixpoint_solvers, 1 + compactions);
  }
}

}  // namespace
}  // namespace itpseq::mc
