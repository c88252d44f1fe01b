// portfolio_test.cpp — the threaded portfolio scheduler: sequential vs
// threaded verdict agreement, winner attribution, the join-all cancellation
// guarantee, exchange-on/off verdict crosschecks, and determinism of
// verdict + trace under a fixed seed regardless of --jobs.  Runs under TSan
// via the `concurrency` ctest label (ITPSEQ_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bench_circuits/generators.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/portfolio.hpp"
#include "mc/sim.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/retry.hpp"

namespace itpseq::mc {
namespace {

PortfolioOptions quick(double limit = 10.0) {
  PortfolioOptions po;
  po.time_limit_sec = limit;
  return po;
}

bool traces_equal(const Trace& a, const Trace& b) {
  return a.initial_latches == b.initial_latches && a.inputs == b.inputs;
}

TEST(Portfolio, SequentialAndThreadedAgreeOnSuite) {
  unsigned compared = 0;
  for (const auto& inst : bench::make_academic_suite(16)) {
    PortfolioOptions seq = quick(8.0);
    seq.jobs = 1;
    PortfolioOptions thr = quick(8.0);
    thr.jobs = 4;
    EngineResult rs = check_portfolio(inst.model, 0, seq);
    EngineResult rt = check_portfolio(inst.model, 0, thr);
    if (rs.verdict == Verdict::kUnknown || rt.verdict == Verdict::kUnknown)
      continue;
    EXPECT_EQ(rs.verdict, rt.verdict) << inst.name;
    if (inst.expected == bench::Expected::kPass) {
      EXPECT_EQ(rt.verdict, Verdict::kPass) << inst.name;
    }
    if (inst.expected == bench::Expected::kFail) {
      EXPECT_EQ(rt.verdict, Verdict::kFail) << inst.name;
    }
    if (rt.verdict == Verdict::kFail) {
      EXPECT_TRUE(trace_is_cex(inst.model, rt.cex, 0)) << inst.name;
    }
    ++compared;
    if (compared >= 12) break;  // bound the runtime; coverage, not census
  }
  EXPECT_GE(compared, 6u);
}

TEST(Portfolio, WinnerAttributionNamesTheMember) {
  // Single-member portfolios: attribution is forced.
  aig::Aig fail_g = bench::counter(5, 20, 13);
  aig::Aig pass_g = bench::token_ring(8, /*fail_reach=*/false);

  PortfolioOptions po = quick();
  po.members = {PortfolioMember::kBmc};
  EngineResult r = check_portfolio(fail_g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kFail);
  EXPECT_EQ(r.engine, "portfolio/BMC");

  po.members = {PortfolioMember::kPdr};
  r = check_portfolio(pass_g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_EQ(r.engine, "portfolio/PDR");

  // Mixed race on a PASS instance: the winner must be a proof-capable
  // member — the falsification-only members cannot produce PASS.
  po = quick();
  r = check_portfolio(pass_g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_EQ(r.engine.rfind("portfolio/", 0), 0u) << r.engine;
  EXPECT_EQ(r.engine.find("RANDOM-SIM"), std::string::npos) << r.engine;
  EXPECT_EQ(r.engine.find("/BMC"), std::string::npos) << r.engine;
}

// Hard for every member in test time: FAIL only at depth 2^28 - 1, so no
// engine can decide it and all grind until stopped.
aig::Aig hard_instance() {
  return bench::counter(28, 1ull << 28, (1ull << 28) - 1);
}

TEST(Portfolio, CancellationLeavesNoThreadRunning) {
  // The probe counts live member engines, so 0 after return is the
  // join-all guarantee.
  aig::Aig g = hard_instance();
  std::atomic<int> probe{0};
  PortfolioOptions po = quick(1.5);
  po.jobs = 4;
  po.active_probe = &probe;
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_portfolio(g, 0, po);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(probe.load(), 0) << "member engine still running after return";
  EXPECT_LT(secs, 10.0) << "members did not wind down near the budget";
  (void)r;
}

TEST(Portfolio, ExternalCancelTearsDownAllMembers) {
  aig::Aig g = hard_instance();
  std::atomic<bool> stop{false};
  std::atomic<int> probe{0};
  PortfolioOptions po = quick(60.0);  // would run a minute uncancelled
  po.jobs = 4;
  po.active_probe = &probe;
  po.engine_defaults.cancel = &stop;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true);
  });
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_portfolio(g, 0, po);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  killer.join();
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_EQ(probe.load(), 0);
  EXPECT_LT(secs, 10.0) << "external cancellation was not honored promptly";
}

TEST(Portfolio, ExchangeNeverChangesTheVerdict) {
  unsigned compared = 0;
  for (const auto& inst : bench::make_academic_suite(14)) {
    PortfolioOptions with = quick(8.0);
    PortfolioOptions without = quick(8.0);
    without.exchange = false;
    EngineResult a = check_portfolio(inst.model, 0, with);
    EngineResult b = check_portfolio(inst.model, 0, without);
    if (a.verdict == Verdict::kUnknown || b.verdict == Verdict::kUnknown)
      continue;
    EXPECT_EQ(a.verdict, b.verdict) << inst.name;
    if (a.verdict == Verdict::kFail) {
      EXPECT_TRUE(trace_is_cex(inst.model, a.cex, 0)) << inst.name;
      EXPECT_TRUE(trace_is_cex(inst.model, b.cex, 0)) << inst.name;
    }
    ++compared;
    if (compared >= 10) break;
  }
  EXPECT_GE(compared, 5u);
}

TEST(Portfolio, ExchangeDeliversCertifiablePass) {
  // The exchange path must not poison certificates: a PASS out of the
  // racing+sharing portfolio still has to survive the independent checker.
  aig::Aig g = bench::token_ring(10, /*fail_reach=*/false);
  PortfolioOptions po = quick(20.0);
  po.members = {PortfolioMember::kSItpSeq, PortfolioMember::kPdr,
                PortfolioMember::kItp};
  EngineResult r = check_portfolio(g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kPass);
  ASSERT_TRUE(r.certificate.has_value());
  CertifyResult c = check_certificate(g, 0, *r.certificate);
  EXPECT_TRUE(c.ok) << c.error;
}

// --- determinism regression (fixed seed, any --jobs) -----------------------

TEST(Portfolio, VerdictAndTraceIndependentOfJobs) {
  // Closed (input-free) circuits with defined resets have a *forced* trace,
  // so even the racing scheduler must report the identical counterexample:
  // depth is the shallowest-failure depth every member agrees on, inputs
  // are empty, and the initial state is the reset state.
  struct Cfg {
    const char* name;
    aig::Aig model;
    unsigned depth;
  };
  Cfg cfgs[] = {
      {"counter", bench::counter(5, 20, 13), 13},
      {"token_ring", bench::token_ring(9, /*fail_reach=*/true), 8},
  };
  for (auto& cfg : cfgs) {
    EngineResult first;
    bool have_first = false;
    for (unsigned jobs : {1u, 2u, 4u}) {
      PortfolioOptions po = quick(20.0);
      po.jobs = jobs;
      po.sim_seed = 99;
      EngineResult r = check_portfolio(cfg.model, 0, po);
      ASSERT_EQ(r.verdict, Verdict::kFail) << cfg.name << " jobs=" << jobs;
      EXPECT_EQ(r.cex.depth(), cfg.depth) << cfg.name << " jobs=" << jobs;
      EXPECT_TRUE(trace_is_cex(cfg.model, r.cex, 0))
          << cfg.name << " jobs=" << jobs;
      if (!have_first) {
        first = r;
        have_first = true;
      } else {
        EXPECT_TRUE(traces_equal(first.cex, r.cex))
            << cfg.name << ": trace depends on jobs=" << jobs;
      }
    }
  }
}

TEST(Portfolio, RandomSimDeterministicUnderFixedSeed) {
  // Open circuit: the sweep is a pure function of the seed — two runs give
  // the identical trace, and the wall-clock/rounds knobs only truncate.
  aig::Aig g = bench::sticky_detector(3, /*resettable=*/false);
  EngineResult a = check_random_sim(g, 0, /*depth=*/32, /*rounds=*/256,
                                    /*seed=*/1234);
  EngineResult b = check_random_sim(g, 0, 32, 256, 1234);
  ASSERT_EQ(a.verdict, Verdict::kFail);
  ASSERT_EQ(b.verdict, Verdict::kFail);
  EXPECT_EQ(a.k_fp, b.k_fp);
  EXPECT_TRUE(traces_equal(a.cex, b.cex));
  EXPECT_TRUE(trace_is_cex(g, a.cex, 0));

  // A different seed is allowed to find a different witness, but a larger
  // round budget with the same seed must reproduce the same (first) one.
  EngineResult c = check_random_sim(g, 0, 32, 4096, 1234);
  ASSERT_EQ(c.verdict, Verdict::kFail);
  EXPECT_TRUE(traces_equal(a.cex, c.cex));
}

TEST(Portfolio, ThreadedRandomSimSweepsUntilBudget) {
  // Regression: the threaded scheduler ran the random-simulation member for
  // one base sweep and returned UNKNOWN in about 0.1 s, whatever its budget.
  // sticky14 needs a longer sweep.  The member must extend the sweep until
  // the budget stops it, and since the prefix is the same, report the
  // witness of the longest sweep under the same seed.  (A release build
  // finds it in a fraction of a second; the budget leaves room for
  // sanitizer builds.)
  aig::Aig g = bench::sticky_detector(14, /*resettable=*/false);
  PortfolioOptions po = quick(30.0);
  po.members = {PortfolioMember::kRandomSim, PortfolioMember::kRandomSim};
  po.jobs = 2;
  EngineResult r = check_portfolio(g, 0, po);
  ASSERT_EQ(r.verdict, Verdict::kFail) << "threaded sweep stopped early";
  EXPECT_EQ(r.engine, "portfolio/RANDOM-SIM");
  EXPECT_GE(r.cex.depth(), 14u);
  EXPECT_TRUE(trace_is_cex(g, r.cex, 0));
  EngineResult ref = check_random_sim(g, 0, /*depth=*/64, kSimSweepMaxRounds,
                                      po.sim_seed);
  ASSERT_EQ(ref.verdict, Verdict::kFail);
  EXPECT_TRUE(traces_equal(ref.cex, r.cex))
      << "the witness depends on the scheduler";
}

// --- self-healing: retry, backoff, degradation -----------------------------

TEST(Portfolio, BackoffDelayIsDeterministicAndBounded) {
  util::RestartPolicy p;  // base 0.25, factor 2, jitter 0.25
  for (unsigned attempt = 0; attempt < 4; ++attempt) {
    double nominal = p.backoff_base_sec;
    for (unsigned i = 0; i < attempt; ++i) nominal *= p.backoff_factor;
    double d = util::backoff_delay_sec(p, attempt, /*seed=*/42);
    // Reproducible: the same (policy, attempt, seed) always schedules the
    // same relaunch — no wall clock, no rand() (L5).
    EXPECT_EQ(d, util::backoff_delay_sec(p, attempt, 42)) << attempt;
    EXPECT_GE(d, nominal * (1.0 - p.jitter_frac)) << attempt;
    EXPECT_LE(d, nominal * (1.0 + p.jitter_frac)) << attempt;
  }
  // Jitter decorrelates members that died together: distinct seeds must
  // not produce an identical relaunch schedule.
  EXPECT_NE(util::backoff_delay_sec(p, 1, 7), util::backoff_delay_sec(p, 1, 8));
  // jitter 0 collapses to the exact exponential ladder.
  p.jitter_frac = 0.0;
  EXPECT_DOUBLE_EQ(util::backoff_delay_sec(p, 0, 7), 0.25);
  EXPECT_DOUBLE_EQ(util::backoff_delay_sec(p, 2, 7), 1.0);
}

TEST(Portfolio, DegradationLadderShedsMemoryHungryMachinery) {
  EngineOptions eo;
  eo.sat_inprocess = true;
  degrade_for_retry(eo, ErrorKind::kOutOfMemory);
  EXPECT_FALSE(eo.sat_inprocess);
  EXPECT_GT(eo.sat_reduce_base, 0.0);
  EXPECT_LE(eo.sat_reduce_base, 500.0);
  EXPECT_NE(eo.compact_threshold, 0u);
  EXPECT_LE(eo.compact_threshold, 50000u);
  // A tighter caller-chosen cap is respected, never loosened.
  eo.sat_reduce_base = 100.0;
  eo.compact_threshold = 1000;
  degrade_for_retry(eo, ErrorKind::kOutOfMemory);
  EXPECT_DOUBLE_EQ(eo.sat_reduce_base, 100.0);
  EXPECT_EQ(eo.compact_threshold, 1000u);
  // Non-memory kinds do not touch the solver configuration (kSolverLimit
  // is handled by the scheduler shortening the leash instead).
  EngineOptions fresh;
  bool inproc = fresh.sat_inprocess;
  degrade_for_retry(fresh, ErrorKind::kInternal);
  degrade_for_retry(fresh, ErrorKind::kSolverLimit);
  EXPECT_EQ(fresh.sat_inprocess, inproc);
  EXPECT_DOUBLE_EQ(fresh.sat_reduce_base, EngineOptions().sat_reduce_base);
}

TEST(Portfolio, FaultedMemberIsRelaunchedAndRecovers) {
  // The first interpolant extraction anywhere in the process throws; the
  // window then closes.  The ITP member's first attempt dies, the
  // self-healing scheduler relaunches it after backoff, and the relaunch
  // — with the fault gone — must still prove the instance.  RANDOM-SIM
  // cannot prove PASS, so a PASS verdict *is* the recovery.
  util::fault::clear();
  util::fault::configure("itp.extract:1:1:error");
  obs::TraceConfig cfg;
  cfg.sample_interval_sec = 0;  // drain at finish only
  obs::TraceSink sink(cfg);
  PortfolioOptions po = quick(30.0);
  po.jobs = 2;
  po.restart.backoff_base_sec = 0.02;  // keep the test fast
  po.members = {PortfolioMember::kItp, PortfolioMember::kRandomSim};
  EngineResult r = check_portfolio(bench::token_ring(6, false), 0, po);
  sink.finish();
  util::fault::clear();
  ASSERT_EQ(r.verdict, Verdict::kPass);
  EXPECT_NE(r.engine.find("ITP"), std::string::npos) << r.engine;
  const MemberOutcome* itp = nullptr;
  for (const MemberOutcome& m : r.members)
    if (m.member == "ITP") itp = &m;
  ASSERT_NE(itp, nullptr);
  EXPECT_GE(itp->restarts, 1u);
  EXPECT_EQ(itp->verdict, Verdict::kPass);
  // The error that caused the relaunch stays on the record even though the
  // member finished healthy.
  EXPECT_EQ(itp->last_error.kind, ErrorKind::kInternal);
  EXPECT_EQ(itp->error.kind, ErrorKind::kNone);
  // The relaunch is observable: member_restart lands in the exchange
  // matrix as a (member, "restart") row.
  obs::TraceSink::Summary sum = sink.summary();
  auto it = sum.exchange.find({"ITP", "restart"});
  ASSERT_NE(it, sum.exchange.end()) << "member_restart row missing";
  EXPECT_GE(it->second.published, 1u);
}

TEST(Portfolio, ExhaustedRetriesReportTheLastError) {
  // Every extraction throws: the ITP members burn through the full retry
  // budget and the portfolio — with no survivor — reports the taxonomy.
  util::fault::clear();
  util::fault::configure("itp.extract:1:1000000:error");
  PortfolioOptions po = quick(30.0);
  po.jobs = 2;
  po.restart.backoff_base_sec = 0.02;
  po.members = {PortfolioMember::kItp, PortfolioMember::kItp};
  EngineResult r = check_portfolio(bench::token_ring(6, false), 0, po);
  util::fault::clear();
  ASSERT_EQ(r.verdict, Verdict::kError);
  EXPECT_EQ(r.error.kind, ErrorKind::kInternal);
  ASSERT_EQ(r.members.size(), 2u);
  for (const MemberOutcome& m : r.members) {
    EXPECT_EQ(m.verdict, Verdict::kError) << m.member;
    EXPECT_EQ(m.restarts, po.restart.max_retries) << m.member;
    EXPECT_EQ(m.last_error.kind, ErrorKind::kInternal) << m.member;
  }
}

TEST(Portfolio, ZeroRetriesDisablesSelfHealing) {
  util::fault::clear();
  util::fault::configure("itp.extract:1:1000000:error");
  PortfolioOptions po = quick(30.0);
  po.jobs = 2;
  po.restart.max_retries = 0;
  po.members = {PortfolioMember::kItp, PortfolioMember::kItp};
  EngineResult r = check_portfolio(bench::token_ring(6, false), 0, po);
  util::fault::clear();
  ASSERT_EQ(r.verdict, Verdict::kError);
  for (const MemberOutcome& m : r.members)
    EXPECT_EQ(m.restarts, 0u) << m.member;
}

TEST(Portfolio, SequentialSchedulerStillRespectsBudget) {
  // Regression for the legacy mode: jobs=1 must terminate near the budget.
  aig::Aig g = hard_instance();
  PortfolioOptions po = quick(1.0);
  po.jobs = 1;
  auto t0 = std::chrono::steady_clock::now();
  EngineResult r = check_portfolio(g, 0, po);
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_LT(secs, 10.0);
}

}  // namespace
}  // namespace itpseq::mc
