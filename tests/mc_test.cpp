// mc_test.cpp — integration tests for the model-checking engines.
//
// Every engine (ITP, ITPSEQ, SITPSEQ, ITPSEQCBA, BMC) is run across the
// academic benchmark suite and must agree with the analytically expected
// verdict; counterexamples are replayed on the concrete model; failure
// depths must be the shallowest ones.
#include <gtest/gtest.h>

#include <functional>

#include <algorithm>
#include <utility>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "cnf/unroller.hpp"
#include "mc/engine.hpp"
#include "mc/itpseq_verif.hpp"
#include "mc/sim.hpp"
#include "sat/solver.hpp"

namespace itpseq::mc {
namespace {

using bench::Expected;
using bench::Instance;

void expect_result(const Instance& inst, const EngineResult& r) {
  if (r.verdict == Verdict::kUnknown) {
    // Budget exhaustion is acceptable, never a wrong verdict.
    return;
  }
  if (inst.expected == Expected::kPass) {
    EXPECT_EQ(r.verdict, Verdict::kPass) << inst.name << " via " << r.engine;
  } else if (inst.expected == Expected::kFail) {
    ASSERT_EQ(r.verdict, Verdict::kFail) << inst.name << " via " << r.engine;
    EXPECT_TRUE(trace_is_cex(inst.model, r.cex, 0))
        << inst.name << " via " << r.engine << ": spurious counterexample";
    if (inst.fail_depth >= 0) {
      EXPECT_EQ(r.cex.depth(), static_cast<unsigned>(inst.fail_depth))
          << inst.name << " via " << r.engine << ": not the shallowest cex";
    }
  }
}

EngineOptions quick_opts() {
  EngineOptions o;
  o.time_limit_sec = 25.0;
  o.max_bound = 80;
  return o;
}

class EngineSuiteTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(EngineSuiteTest, AgreesWithExpectedVerdict) {
  auto [engine_id, index] = GetParam();
  auto suite = bench::make_academic_suite(34);
  if (index >= suite.size()) GTEST_SKIP() << "index beyond suite";
  const Instance& inst = suite[index];
  EngineOptions opts = quick_opts();
  EngineResult r;
  switch (engine_id) {
    case 0:
      r = check_itp(inst.model, 0, opts);
      break;
    case 1:
      r = check_itpseq(inst.model, 0, opts);
      break;
    case 2:
      r = check_sitpseq(inst.model, 0, opts);
      break;
    case 3:
      r = check_itpseq_cba(inst.model, 0, opts);
      break;
    default:
      r = check_bmc(inst.model, 0, opts);
      break;
  }
  if (engine_id == 4 && inst.expected == Expected::kPass)
    EXPECT_NE(r.verdict, Verdict::kFail) << "BMC cannot fail a safe model";
  else
    expect_result(inst, r);
}

std::string engine_param_name(
    const ::testing::TestParamInfo<std::tuple<int, unsigned>>& info) {
  static const char* const names[] = {"itp", "itpseq", "sitpseq", "cba", "bmc"};
  return std::string(names[std::get<0>(info.param)]) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, EngineSuiteTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Range(0u, 64u)),
    engine_param_name);

// --- targeted engine behaviours ---------------------------------------------

TEST(Engines, Depth0Failure) {
  // Latch initialized to 1 with bad = latch: fails at depth 0, decided by
  // the depth-0 check, whose SAT call is the run's only one.
  aig::Aig g;
  aig::Lit l = g.add_latch(aig::LatchInit::kOne);
  g.set_latch_next(l, l);
  g.add_output(l);
  for (auto check : {check_itp, check_itpseq, check_bmc, check_pdr}) {
    EngineResult r = check(g, 0, quick_opts());
    EXPECT_EQ(r.verdict, Verdict::kFail) << r.engine;
    EXPECT_EQ(r.k_fp, 0u) << r.engine;
    EXPECT_TRUE(trace_is_cex(g, r.cex, 0)) << r.engine;
    EXPECT_EQ(r.stats.sat_calls, 1u) << r.engine;
  }
}

TEST(Engines, ConstantFalseProperty) {
  aig::Aig g;
  aig::Lit l = g.add_latch();
  g.set_latch_next(l, l);
  g.add_output(aig::kFalse);
  EXPECT_EQ(check_itpseq(g, 0, quick_opts()).verdict, Verdict::kPass);
}

TEST(Engines, ConstantTrueProperty) {
  aig::Aig g;
  aig::Lit l = g.add_latch();
  g.set_latch_next(l, l);
  g.add_output(aig::kTrue);
  EngineResult r = check_itpseq(g, 0, quick_opts());
  EXPECT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.k_fp, 0u);
}

TEST(Engines, MissingPropertyIndexPasses) {
  aig::Aig g;
  aig::Lit l = g.add_latch();
  g.set_latch_next(l, l);
  EXPECT_EQ(check_itpseq(g, 7, quick_opts()).verdict, Verdict::kPass);
}

TEST(Engines, TimeBudgetRespected) {
  // A large instance with a microscopic budget must come back quickly —
  // either UNKNOWN or a (correct) early verdict, never running long.
  aig::Aig g = bench::industrial(56, 14, 0, 10, 501);
  EngineOptions opts;
  opts.time_limit_sec = 0.02;
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_itpseq(g, 0, opts);
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_NE(r.verdict, Verdict::kFail);
  EXPECT_LT(elapsed, 10.0);
}

TEST(Engines, MaxBoundRespected) {
  // ring32 reach: cex at depth 31, but max_bound 5 forbids finding it.
  aig::Aig g = bench::token_ring(32, true);
  EngineOptions opts = quick_opts();
  opts.max_bound = 5;
  EngineResult r = check_itpseq(g, 0, opts);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
}

TEST(Engines, SerialAlphaOneIsFullySerial) {
  EngineOptions opts = quick_opts();
  opts.serial_alpha = 1.0;
  aig::Aig g = bench::token_ring(8, false);
  EngineResult r = check_sitpseq(g, 0, opts);
  EXPECT_EQ(r.verdict, Verdict::kPass);
}

TEST(Engines, ExactSchemeAlsoSound) {
  EngineOptions opts = quick_opts();
  opts.scheme = cnf::TargetScheme::kExact;
  for (bool fail : {false, true}) {
    aig::Aig g = bench::token_ring(6, fail);
    EngineResult r = check_itpseq(g, 0, opts);
    EXPECT_EQ(r.verdict, fail ? Verdict::kFail : Verdict::kPass);
    if (fail) {
      EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
    }
  }
}

TEST(Engines, CbaRefinesOnlyRelevantLatches) {
  // Pipeline noise around a small counter: CBA must converge with far fewer
  // visible latches than the full design.
  aig::Aig g = bench::industrial(16, 4, 0, 6, 55);
  EngineOptions opts = quick_opts();
  EngineResult r = check_itpseq_cba(g, 0, opts);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_LT(r.stats.cba_visible_latches, g.num_latches() / 2)
      << "abstraction refined nearly everything";
}

TEST(Engines, CbaFindsDeepCex) {
  aig::Aig g = bench::industrial(16, 4, 1, 6, 56);
  EngineResult r = check_itpseq_cba(g, 0, quick_opts());
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
  EXPECT_EQ(r.cex.depth(), 6u);
}

TEST(Engines, UndefResetLatchHandled) {
  // Latch with X reset feeding the property: engines must treat reset as
  // nondeterministic.
  aig::Aig g;
  aig::Lit l = g.add_latch(aig::LatchInit::kUndef);
  aig::Lit m = g.add_latch(aig::LatchInit::kZero);
  g.set_latch_next(l, l);
  g.set_latch_next(m, l);
  g.add_output(m);  // reachable iff l starts at 1 -> FAIL at depth 1
  using CheckFn = std::function<EngineResult()>;
  for (const CheckFn& check :
       {CheckFn([&] { return check_itp(g, 0, quick_opts()); }),
        CheckFn([&] { return check_itpseq(g, 0, quick_opts()); }),
        CheckFn([&] { return check_sitpseq(g, 0, quick_opts()); })}) {
    EngineResult r = check();
    ASSERT_EQ(r.verdict, Verdict::kFail);
    EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
  }
}

TEST(Engines, PassVerdictsHaveFixpointDepths) {
  aig::Aig g = bench::token_ring(8, false);
  EngineResult r = check_itpseq(g, 0, quick_opts());
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_GE(r.k_fp, 1u);
  EXPECT_GE(r.j_fp, 1u);
  EXPECT_LE(r.j_fp, r.k_fp);
}

TEST(Engines, CompactionPreservesVerdicts) {
  // Force aggressive state-set garbage collection every bound; results
  // must be identical to the default.
  EngineOptions opts = quick_opts();
  opts.compact_threshold = 1;
  for (bool fail : {false, true}) {
    aig::Aig g = bench::token_ring(10, fail);
    EngineResult seq = check_itpseq(g, 0, opts);
    EngineResult itp = check_itp(g, 0, opts);
    EXPECT_EQ(seq.verdict, fail ? Verdict::kFail : Verdict::kPass);
    EXPECT_EQ(itp.verdict, fail ? Verdict::kFail : Verdict::kPass);
  }
  aig::Aig cnt = bench::counter(4, 11, 13);
  EngineResult r = check_sitpseq(cnt, 0, opts);
  EXPECT_EQ(r.verdict, Verdict::kPass);
}

TEST(Engines, StatsPopulated) {
  aig::Aig g = bench::counter(4, 11, 13);
  EngineResult r = check_itpseq(g, 0, quick_opts());
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_GT(r.stats.sat_calls, 0u);
  EXPECT_GT(r.stats.proof_clauses, 0u);
}

// --- the BMC instance against its hand-written copy -------------------------

using Clauses = std::vector<std::pair<std::vector<sat::Lit>, std::uint32_t>>;

/// Original clauses of a proof, with their labels, in the order added.
Clauses original_clauses(const sat::Proof& proof) {
  Clauses out;
  for (sat::ClauseId id = 0; id < proof.size(); ++id)
    if (proof.is_original(id))
      out.emplace_back(proof.literals(id), proof.label(id));
  return out;
}

/// Opens Engine::build_bmc to the test.
class BmcProbe : public ItpSeqEngine {
 public:
  explicit BmcProbe(const aig::Aig& model) : ItpSeqEngine(model, 0, {}) {}
  Clauses assume_k(unsigned k) {
    BmcInstance b = build_bmc(aig::kNullLit, k,
                              cnf::TargetScheme::kExactAssume, /*proof=*/true);
    return original_clauses(b.solver->proof());
  }
};

/// The ITPSEQ assume-k instance from S0 as paperbench/src/replay.cpp writes
/// it with public Unroller calls (its Replay::bmc).
Clauses replay_assume_k(const aig::Aig& model, unsigned k) {
  sat::Solver s;
  EngineOptions{}.apply_sat_options(s);
  s.enable_proof();
  cnf::Unroller unr(model, s);
  unr.assert_init(1);
  for (unsigned t = 0; t < k; ++t) unr.add_transition(t, t + 1);
  for (unsigned t = 0; t <= k; ++t)
    unr.assert_constraints(t, std::min(t + 1, k + 1));
  for (unsigned t = 1; t < k; ++t)
    s.add_clause({sat::neg(unr.bad_lit(t, t + 1, 0))}, t + 1);
  s.add_clause({unr.bad_lit(k, k + 1, 0)}, k + 1);
  return original_clauses(s.proof());
}

TEST(BuildBmc, MatchesTheBenchmarkReplay) {
  // The benchmark's traced replay rebuilds ITPSEQ's BMC instance by hand;
  // a change to build_bmc's clause order or labels must show up here.  No
  // suite instance has constraints, so the queue gets one (never pop).
  std::vector<aig::Aig> models;
  for (const Instance& inst : bench::make_academic_suite())
    if (inst.name == "cnten4fail" || inst.name == "arb4bug" ||
        inst.name == "queue8ovf")
      models.push_back(inst.model);
  ASSERT_EQ(models.size(), 3u);
  models.back().add_constraint(aig::lit_not(models.back().input(1)));
  ASSERT_EQ(models.back().num_constraints(), 1u);
  for (const aig::Aig& g : models) {
    BmcProbe probe(g);
    for (unsigned k = 1; k <= 4; ++k) {
      Clauses engine = probe.assume_k(k);
      ASSERT_FALSE(engine.empty());
      EXPECT_EQ(engine, replay_assume_k(g, k)) << "k=" << k;
    }
  }
}

// --- simulator --------------------------------------------------------------

TEST(Simulator, StepAndBad) {
  aig::Aig g = bench::counter(3, 8, 5);
  Simulator sim(g, 0);
  std::vector<bool> s = sim.reset_state();
  std::vector<bool> no_in;
  for (int t = 0; t < 5; ++t) {
    EXPECT_FALSE(sim.bad(s, no_in)) << t;
    s = sim.step(s, no_in);
  }
  EXPECT_TRUE(sim.bad(s, no_in));
}

TEST(Simulator, TraceRun) {
  aig::Aig g = bench::queue(4, /*guarded=*/false);
  Trace t;
  t.initial_latches.assign(g.num_latches(), false);
  // push every cycle for 5 cycles -> count reaches 5 = capacity+1 -> bad.
  for (int i = 0; i < 6; ++i) t.inputs.push_back({true, false});
  SimFrames f = Simulator(g, 0).run(t);
  EXPECT_FALSE(f.bad.front());
  EXPECT_TRUE(f.bad[5]);
}

}  // namespace
}  // namespace itpseq::mc
