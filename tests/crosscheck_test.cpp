// crosscheck_test.cpp — cross-validation between independent oracles:
// BDD reachability (no SAT machinery) versus the SAT-based engines, on
// random circuits that do not come from the curated suite families; plus
// cross-engine counterexample-depth agreement and end-to-end witness
// pipelines.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>

#include "bdd/reach.hpp"
#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/kinduction.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"
#include "mc/trace_min.hpp"
#include "mc/witness.hpp"

namespace itpseq {
namespace {

/// Random sequential circuit: small latch/input counts, random AND/XOR
/// logic, random resets, one random output.
aig::Aig random_circuit(std::uint32_t seed) {
  std::mt19937 rng(seed);
  aig::Aig g;
  unsigned ni = 1 + rng() % 3, nl = 2 + rng() % 5;
  std::vector<aig::Lit> pool;
  for (unsigned i = 0; i < ni; ++i) pool.push_back(g.add_input());
  std::vector<aig::Lit> latches;
  for (unsigned i = 0; i < nl; ++i) {
    aig::Lit l = g.add_latch(static_cast<aig::LatchInit>(rng() % 3));
    latches.push_back(l);
    pool.push_back(l);
  }
  unsigned gates = 5 + rng() % 25;
  for (unsigned n = 0; n < gates; ++n) {
    aig::Lit a = pool[rng() % pool.size()] ^ (rng() % 2);
    aig::Lit b = pool[rng() % pool.size()] ^ (rng() % 2);
    pool.push_back(rng() % 2 ? g.make_and(a, b) : g.make_xor(a, b));
  }
  for (aig::Lit l : latches)
    g.set_latch_next(l, pool[rng() % pool.size()] ^ (rng() % 2));
  // A random conjunction as the bad signal: rarely constant, often
  // reachable at some depth, sometimes never.
  aig::Lit bad = g.make_and(pool[rng() % pool.size()] ^ (rng() % 2),
                            pool[rng() % pool.size()] ^ (rng() % 2));
  g.add_output(bad);
  return g;
}

class BddVsSatTest : public ::testing::TestWithParam<int> {};

TEST_P(BddVsSatTest, RandomCircuitsAgree) {
  aig::Aig g = random_circuit(7000 + GetParam());
  bdd::ReachBudget rb;
  rb.seconds = 10.0;
  bdd::ReachResult truth = bdd::bdd_check(g, 0, rb);
  if (truth.verdict == bdd::ReachVerdict::kOverflow) GTEST_SKIP();

  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  opts.max_bound = 120;

  struct Named {
    const char* name;
    mc::EngineResult r;
  };
  mc::EngineOptions part = opts;
  part.itp_partitioned = true;
  Named results[] = {
      {"itp", mc::check_itp(g, 0, opts)},
      {"itp-part", mc::check_itp(g, 0, part)},
      {"itpseq", mc::check_itpseq(g, 0, opts)},
      {"sitpseq", mc::check_sitpseq(g, 0, opts)},
      {"cba", mc::check_itpseq_cba(g, 0, opts)},
      {"kind", mc::check_kinduction(g, 0, opts)},
  };
  for (const Named& n : results) {
    if (n.r.verdict == mc::Verdict::kUnknown) continue;
    if (truth.verdict == bdd::ReachVerdict::kPass) {
      EXPECT_EQ(n.r.verdict, mc::Verdict::kPass) << n.name;
    } else {
      ASSERT_EQ(n.r.verdict, mc::Verdict::kFail) << n.name;
      EXPECT_TRUE(mc::trace_is_cex(g, n.r.cex, 0)) << n.name;
      EXPECT_EQ(n.r.cex.depth(), truth.depth) << n.name << ": not shallowest";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BddVsSatTest, ::testing::Range(0, 60));

TEST(CrossCheck, FailDepthsAgreeAcrossEngines) {
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  for (auto& inst : bench::make_academic_suite(20)) {
    if (inst.expected != bench::Expected::kFail || inst.fail_depth < 0) continue;
    unsigned expected = static_cast<unsigned>(inst.fail_depth);
    mc::EngineResult rs[] = {
        mc::check_itpseq(inst.model, 0, opts),
        mc::check_bmc(inst.model, 0, opts),
        mc::check_kinduction(inst.model, 0, opts),
    };
    for (const auto& r : rs) {
      if (r.verdict == mc::Verdict::kUnknown) continue;
      ASSERT_EQ(r.verdict, mc::Verdict::kFail) << inst.name << " " << r.engine;
      EXPECT_EQ(r.cex.depth(), expected) << inst.name << " " << r.engine;
    }
  }
}

TEST(CrossCheck, WitnessMinimizePipeline) {
  // FAIL -> minimize -> witness round-trip -> replay, over several families.
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  unsigned exercised = 0;
  for (auto& inst : bench::make_academic_suite(16)) {
    if (inst.expected != bench::Expected::kFail) continue;
    if (inst.model.num_inputs() == 0) continue;
    mc::EngineResult r = mc::check_itpseq(inst.model, 0, opts);
    if (r.verdict != mc::Verdict::kFail) continue;
    mc::Trace small = mc::minimize_trace(inst.model, r.cex, 0);
    EXPECT_TRUE(mc::trace_is_cex(inst.model, small, 0)) << inst.name;
    std::stringstream ss;
    mc::write_witness(small, 0, ss);
    mc::Trace back = mc::read_witness(ss, inst.model.num_latches(),
                                      inst.model.num_inputs());
    EXPECT_TRUE(mc::trace_is_cex(inst.model, back, 0)) << inst.name;
    ++exercised;
    if (exercised >= 8) break;
  }
  EXPECT_GE(exercised, 4u);
}

/// Modulo-6 counter with two outputs: count == 4 FAILs at depth 4 and
/// count == 7 holds (6 and 7 are unreachable).  `fail_first` puts the
/// failing output at index 0.
aig::Aig two_property_counter(bool fail_first) {
  aig::Aig g = bench::counter(3, 6, fail_first ? 4 : 7);
  std::vector<aig::Lit> bits;
  for (std::size_t i = 0; i < g.num_latches(); ++i) bits.push_back(g.latch(i));
  g.add_output(bench::equals_const(g, bits, fail_first ? 7 : 4));
  return g;
}

TEST(CrossCheck, EveryEngineChecksTheRequestedProperty) {
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  opts.max_bound = 12;
  mc::EngineOptions part = opts;
  part.itp_partitioned = true;
  mc::EngineOptions mono = opts;
  mono.bmc_incremental = false;
  struct Named {
    const char* name;
    bool proves;  // can return PASS (BMC only exhausts its bound)
    bool certifies;
    mc::EngineResult r;
  };
  for (bool fail_first : {true, false}) {
    aig::Aig g = two_property_counter(fail_first);
    for (std::size_t prop = 0; prop < 2; ++prop) {
      const bool fails = (prop == 0) == fail_first;
      Named results[] = {
          {"itp", true, true, mc::check_itp(g, prop, opts)},
          {"itp-part", true, true, mc::check_itp(g, prop, part)},
          {"itpseq", true, true, mc::check_itpseq(g, prop, opts)},
          {"sitpseq", true, true, mc::check_sitpseq(g, prop, opts)},
          {"cba", true, true, mc::check_itpseq_cba(g, prop, opts)},
          {"pba", true, true, mc::check_itpseq_pba(g, prop, opts)},
          {"bmc-mono", false, false, mc::check_bmc(g, prop, mono)},
          {"bmc-incr", false, false, mc::check_bmc(g, prop, opts)},
          {"kind", true, false, mc::check_kinduction(g, prop, opts)},
          {"pdr", true, true, mc::check_pdr(g, prop, opts)},
      };
      for (const Named& n : results) {
        SCOPED_TRACE(std::string(n.name) + " output " + std::to_string(prop) +
                     (fail_first ? " (failing output first)" : ""));
        if (fails) {
          ASSERT_EQ(n.r.verdict, mc::Verdict::kFail);
          EXPECT_EQ(n.r.cex.depth(), 4u);
          EXPECT_TRUE(mc::trace_is_cex(g, n.r.cex, prop));
        } else if (!n.proves) {
          EXPECT_EQ(n.r.verdict, mc::Verdict::kUnknown);
        } else {
          ASSERT_EQ(n.r.verdict, mc::Verdict::kPass);
          ASSERT_EQ(n.r.certificate.has_value(), n.certifies);
          if (n.certifies) {
            mc::CertifyResult c = mc::check_certificate(g, prop, *n.r.certificate);
            EXPECT_TRUE(c.ok) << c.error;
          }
        }
      }
    }
  }
}

class AllEnginesRandomTest : public ::testing::TestWithParam<int> {};

// Randomized generated circuits under fixed seeds: every definite-verdict
// engine (including PDR and the threaded portfolio) must agree, every FAIL
// trace must replay in the concrete simulator, and every PASS certificate
// must pass the independent checker.
TEST_P(AllEnginesRandomTest, EnginesAgreeTracesReplayCertificatesCheck) {
  aig::Aig g = random_circuit(9000 + GetParam());
  mc::EngineOptions opts;
  opts.time_limit_sec = 15.0;
  opts.max_bound = 120;

  struct Named {
    const char* name;
    mc::EngineResult r;
  };
  mc::PortfolioOptions popts;
  popts.time_limit_sec = 15.0;
  Named results[] = {
      {"bmc", mc::check_bmc(g, 0, opts)},
      {"itp", mc::check_itp(g, 0, opts)},
      {"itpseq", mc::check_itpseq(g, 0, opts)},
      {"sitpseq", mc::check_sitpseq(g, 0, opts)},
      {"cba", mc::check_itpseq_cba(g, 0, opts)},
      {"kind", mc::check_kinduction(g, 0, opts)},
      {"pdr", mc::check_pdr(g, 0, opts)},
      {"portfolio", mc::check_portfolio(g, 0, popts)},
  };
  const Named* reference = nullptr;
  for (const Named& n : results) {
    if (n.r.verdict == mc::Verdict::kUnknown) continue;
    if (reference == nullptr) reference = &n;
    EXPECT_EQ(n.r.verdict, reference->r.verdict)
        << n.name << " vs " << reference->name;
    if (n.r.verdict == mc::Verdict::kFail) {
      // Every definite-FAIL engine here is contracted to produce a
      // replayable witness — an empty trace is itself a bug.
      ASSERT_FALSE(n.r.cex.inputs.empty()) << n.name << ": FAIL, no witness";
      EXPECT_TRUE(mc::trace_is_cex(g, n.r.cex, 0)) << n.name;
    }
    if (n.r.verdict == mc::Verdict::kPass && n.r.certificate.has_value()) {
      mc::CertifyResult c = mc::check_certificate(g, 0, *n.r.certificate);
      EXPECT_TRUE(c.ok) << n.name << ": " << c.error;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, AllEnginesRandomTest, ::testing::Range(0, 25));

TEST(CrossCheck, PortfolioAgreesWithBddOnRandomCircuits) {
  for (int seed = 100; seed < 115; ++seed) {
    aig::Aig g = random_circuit(seed);
    bdd::ReachResult truth = bdd::bdd_check(g, 0);
    if (truth.verdict == bdd::ReachVerdict::kOverflow) continue;
    mc::PortfolioOptions popts;
    popts.time_limit_sec = 20.0;
    mc::EngineResult r = mc::check_portfolio(g, 0, popts);
    if (r.verdict == mc::Verdict::kUnknown) continue;
    EXPECT_EQ(r.verdict == mc::Verdict::kPass,
              truth.verdict == bdd::ReachVerdict::kPass)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace itpseq
