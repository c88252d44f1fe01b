// incremental_test.cpp — incremental SAT interface (assumptions, clause
// addition between solves, failed-assumption cores) and incremental BMC.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/bmc.hpp"
#include "mc/engine.hpp"
#include "mc/sim.hpp"
#include "sat/solver.hpp"

namespace itpseq {
namespace {

using sat::mk_lit;
using sat::Status;

TEST(Incremental, AssumptionsFlipOutcome) {
  sat::Solver s;
  sat::Var a = s.new_var(), b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(b)});
  EXPECT_EQ(s.solve_assuming({mk_lit(a, true)}), Status::kSat);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_EQ(s.solve_assuming({mk_lit(a, true), mk_lit(b, true)}), Status::kUnsat);
  EXPECT_TRUE(s.ok());  // clause set itself is satisfiable
  EXPECT_EQ(s.solve(), Status::kSat);
}

TEST(Incremental, FailedAssumptionCore) {
  sat::Solver s;
  sat::Var x = s.new_var(), y = s.new_var(), z = s.new_var();
  s.add_clause({mk_lit(x, true), mk_lit(y, true)});  // ~x | ~y
  Status st = s.solve_assuming({mk_lit(z), mk_lit(x), mk_lit(y)});
  ASSERT_EQ(st, Status::kUnsat);
  const auto& core = s.failed_assumptions();
  // Core must mention x and y and may not mention the irrelevant z.
  auto has = [&](sat::Lit l) {
    return std::find(core.begin(), core.end(), l) != core.end();
  };
  EXPECT_TRUE(has(mk_lit(x)));
  EXPECT_TRUE(has(mk_lit(y)));
  EXPECT_FALSE(has(mk_lit(z)));
}

TEST(Incremental, ClausesAddedBetweenSolves) {
  sat::Solver s;
  sat::Var v[4];
  for (auto& x : v) x = s.new_var();
  s.add_clause({mk_lit(v[0]), mk_lit(v[1])});
  EXPECT_EQ(s.solve(), Status::kSat);
  s.add_clause({mk_lit(v[0], true)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_TRUE(s.model_value(v[1]));
  s.add_clause({mk_lit(v[1], true)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_FALSE(s.ok());
  // Once truly unsat, further solves stay unsat.
  EXPECT_EQ(s.solve(), Status::kUnsat);
}

TEST(Incremental, AssumptionsThenPermanentUnsat) {
  sat::Solver s;
  sat::Var a = s.new_var();
  s.add_clause({mk_lit(a)});
  EXPECT_EQ(s.solve_assuming({mk_lit(a, true)}), Status::kUnsat);
  EXPECT_TRUE(s.ok());
  s.add_clause({mk_lit(a, true)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  EXPECT_FALSE(s.ok());
}

TEST(Incremental, ProofLoggingRejectsAssumptions) {
  sat::Solver s;
  s.enable_proof();
  sat::Var a = s.new_var();
  s.add_clause({mk_lit(a)});
  EXPECT_THROW(s.solve_assuming({mk_lit(a, true)}), std::logic_error);
}

class IncrementalRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalRandomTest, AgreesWithFreshSolver) {
  // Random incremental session: interleave clause additions and
  // assumption-solves; every answer must match a fresh solver on the same
  // accumulated formula + assumption units.
  std::mt19937 rng(500 + GetParam());
  const unsigned nvars = 10 + rng() % 5;
  sat::Solver inc;
  for (unsigned i = 0; i < nvars; ++i) inc.new_var();
  std::vector<std::vector<sat::Lit>> added;

  for (int step = 0; step < 12; ++step) {
    // Add a couple of random clauses.
    for (int c = 0; c < 3; ++c) {
      std::vector<sat::Lit> cl;
      unsigned len = 1 + rng() % 3;
      for (unsigned k = 0; k < len; ++k)
        cl.push_back(mk_lit(rng() % nvars, rng() % 2));
      added.push_back(cl);
      inc.add_clause(cl);
    }
    // Random assumptions (distinct vars).
    std::vector<sat::Lit> assumptions;
    for (unsigned v = 0; v < nvars; ++v)
      if (rng() % 4 == 0) assumptions.push_back(mk_lit(v, rng() % 2));

    Status got = inc.solve_assuming(assumptions);
    ASSERT_NE(got, Status::kUnknown);

    sat::Solver fresh;
    for (unsigned i = 0; i < nvars; ++i) fresh.new_var();
    for (const auto& cl : added) fresh.add_clause(cl);
    for (sat::Lit a : assumptions) fresh.add_clause({a});
    Status expected = fresh.solve();
    ASSERT_NE(expected, Status::kUnknown);
    EXPECT_EQ(got, expected) << "step " << step;
    if (got == Status::kSat) {
      EXPECT_TRUE(inc.verify_model());
    }
    if (!inc.ok()) break;  // permanently unsat; fresh agrees by equality
  }
}

INSTANTIATE_TEST_SUITE_P(Sessions, IncrementalRandomTest, ::testing::Range(0, 40));

// --- incremental BMC ---------------------------------------------------------

class IncrementalBmcTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(IncrementalBmcTest, MatchesMonolithicBmc) {
  auto suite = bench::make_academic_suite(24);
  if (GetParam() >= suite.size()) GTEST_SKIP();
  const bench::Instance& inst = suite[GetParam()];
  const bool fails = inst.expected == bench::Expected::kFail;

  mc::EngineOptions mono;
  mono.time_limit_sec = 20.0;
  // On PASS instances BMC can only exhaust the bound; cap it so the
  // crosscheck ("no counterexample up to k" must agree too) stays fast.
  mono.max_bound = fails ? 60 : 10;
  mono.bmc_incremental = false;  // monolithic cross-check mode
  mc::EngineOptions incr = mono;
  incr.bmc_incremental = true;
  ASSERT_TRUE(mc::EngineOptions{}.bmc_incremental)
      << "incremental BMC should be the default";

  for (auto scheme : {cnf::TargetScheme::kExact, cnf::TargetScheme::kExactAssume,
                      cnf::TargetScheme::kBound}) {
    mono.scheme = incr.scheme = scheme;
    mc::EngineResult a = mc::check_bmc(inst.model, 0, mono);
    mc::EngineResult b = mc::check_bmc(inst.model, 0, incr);
    if (!fails) {
      // Neither formulation may "find" a counterexample on a safe model.
      EXPECT_NE(a.verdict, mc::Verdict::kFail) << inst.name;
      EXPECT_NE(b.verdict, mc::Verdict::kFail) << inst.name;
      continue;
    }
    if (a.verdict == mc::Verdict::kUnknown || b.verdict == mc::Verdict::kUnknown)
      continue;
    EXPECT_EQ(a.verdict, b.verdict) << inst.name;
    ASSERT_EQ(b.verdict, mc::Verdict::kFail);
    EXPECT_TRUE(mc::trace_is_cex(inst.model, b.cex, 0))
        << inst.name << " incremental cex invalid";
    EXPECT_EQ(a.cex.depth(), b.cex.depth()) << inst.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, IncrementalBmcTest,
                         ::testing::Range(0u, 40u, 3u));

TEST(IncrementalBmc, MonolithicAgreesOnEveryProperty) {
  // Modulo-6 counter with three outputs: count == 4 (FAILs at depth 4),
  // count == 7 (holds: 6 and 7 are unreachable) and count == 2 (FAILs at
  // depth 2).  Both formulations must check the output they are asked for.
  aig::Aig g = bench::counter(3, 6, 4);
  std::vector<aig::Lit> bits;
  for (std::size_t i = 0; i < g.num_latches(); ++i) bits.push_back(g.latch(i));
  g.add_output(bench::equals_const(g, bits, 7));
  g.add_output(bench::equals_const(g, bits, 2));
  const unsigned expected_depth[] = {4, 0, 2};  // 0 = holds

  mc::EngineOptions mono;
  mono.max_bound = 8;
  mono.bmc_incremental = false;
  mc::EngineOptions incr = mono;
  incr.bmc_incremental = true;
  for (auto scheme : {cnf::TargetScheme::kExact, cnf::TargetScheme::kExactAssume,
                      cnf::TargetScheme::kBound}) {
    mono.scheme = incr.scheme = scheme;
    for (std::size_t prop = 0; prop < g.num_outputs(); ++prop) {
      SCOPED_TRACE(std::string(cnf::to_string(scheme)) + " output " +
                   std::to_string(prop));
      mc::EngineResult a = mc::check_bmc(g, prop, mono);
      mc::EngineResult b = mc::check_bmc(g, prop, incr);
      EXPECT_EQ(a.verdict, b.verdict);
      if (expected_depth[prop] == 0) {
        EXPECT_EQ(a.verdict, mc::Verdict::kUnknown);  // bound exhausted
        continue;
      }
      ASSERT_EQ(a.verdict, mc::Verdict::kFail);
      ASSERT_EQ(b.verdict, mc::Verdict::kFail);
      EXPECT_EQ(a.cex.depth(), expected_depth[prop]);
      EXPECT_EQ(b.cex.depth(), expected_depth[prop]);
      EXPECT_TRUE(mc::trace_is_cex(g, a.cex, prop)) << "monolithic";
      EXPECT_TRUE(mc::trace_is_cex(g, b.cex, prop)) << "incremental";
    }
  }
}

TEST(IncrementalBmc, FasterSchedulesStillSound) {
  // Deep counterexample: the single-instance formulation must find the
  // exact same depth.
  aig::Aig g = bench::token_ring(24, true);
  mc::EngineOptions opts;
  opts.time_limit_sec = 30.0;
  opts.bmc_incremental = true;
  mc::EngineResult r = mc::check_bmc(g, 0, opts);
  ASSERT_EQ(r.verdict, mc::Verdict::kFail);
  EXPECT_EQ(r.cex.depth(), 23u);
  EXPECT_TRUE(mc::trace_is_cex(g, r.cex, 0));
}

}  // namespace
}  // namespace itpseq
