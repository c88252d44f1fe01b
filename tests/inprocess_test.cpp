// inprocess_test.cpp — in-solver simplification (subsumption, BVE,
// vivification, probing) under proof logging: verdict crosschecks against
// untouched solvers, model extension over eliminated variables, proof
// replay + DRAT/tracecheck export on UNSAT, and the freeze/restore
// contract for assumptions and late add_clause.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <sstream>
#include <thread>

#include "bench_circuits/generators.hpp"
#include "mc/engine.hpp"
#include "sat/drat.hpp"
#include "sat/proof_check.hpp"
#include "sat/solver.hpp"
#include "sat/tracecheck.hpp"

namespace itpseq::sat {
namespace {

Lit pos(Var v) { return mk_lit(v, false); }
Lit negl(Var v) { return mk_lit(v, true); }

std::vector<std::vector<Lit>> random_cnf(std::mt19937& rng, unsigned nvars,
                                         double ratio) {
  std::vector<std::vector<Lit>> cls;
  const unsigned n = static_cast<unsigned>(nvars * ratio);
  for (unsigned c = 0; c < n; ++c) {
    unsigned len = 1 + rng() % 4;
    std::vector<Lit> cl;
    for (unsigned k = 0; k < len; ++k)
      cl.push_back(mk_lit(rng() % nvars, rng() % 2));
    cls.push_back(cl);
  }
  return cls;
}

bool model_satisfies(const std::vector<LBool>& model,
                     const std::vector<std::vector<Lit>>& cls) {
  for (const auto& c : cls) {
    bool sat = false;
    for (Lit l : c)
      if (lbool_xor(model[var(l)], sign(l)) == LBool::kTrue) {
        sat = true;
        break;
      }
    if (!sat) return false;
  }
  return true;
}

/// An UNSAT proof must replay, DRAT-check against the original clauses and
/// export to tracecheck.
void expect_valid_refutation(const Solver& s,
                             const std::vector<std::vector<Lit>>& cls,
                             unsigned nvars) {
  auto pc = check_proof(s.proof());
  EXPECT_TRUE(pc.ok) << pc.error;
  // Independent RUP check of the exported DRAT against the originals.
  std::ostringstream drat;
  write_drat(s.proof(), drat);
  std::istringstream in(drat.str());
  auto dc = check_drat(nvars, cls, in);
  EXPECT_TRUE(dc.ok) << dc.error;
  std::ostringstream tc;
  write_tracecheck(s.proof(), tc);
  EXPECT_FALSE(tc.str().empty());
}

/// Crosscheck harness: solve `cls` with inprocessing on and with it
/// disabled; verdicts must agree, SAT models (extended over eliminated
/// vars) must satisfy the ORIGINAL clauses, and UNSAT proofs must replay,
/// DRAT-check and export to tracecheck.  `interval` 0 forces a round at
/// every entry and restart; the default schedule passes 4000.
void crosscheck(const std::vector<std::vector<Lit>>& cls, unsigned nvars,
                RestartMode mode, std::uint64_t interval = 0) {
  Solver on, off;
  on.set_restart_mode(mode);
  off.set_restart_mode(mode);
  on.set_inprocess_interval(interval);
  off.set_inprocess(false);
  on.enable_proof();
  off.enable_proof();
  for (unsigned i = 0; i < nvars; ++i) {
    on.new_var();
    off.new_var();
  }
  for (const auto& c : cls) {
    on.add_clause(c);
    off.add_clause(c);
  }
  Status son = on.solve(), soff = off.solve();
  ASSERT_NE(son, Status::kUnknown);
  ASSERT_EQ(son, soff) << "inprocessing changed the verdict";
  if (son == Status::kSat) {
    EXPECT_TRUE(model_satisfies(on.model(), cls))
        << "extended model violates an original clause";
    EXPECT_TRUE(on.verify_model());
  } else {
    expect_valid_refutation(on, cls, nvars);
  }
}

class InprocessFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(InprocessFuzzTest, VerdictModelAndProofAgree) {
  std::mt19937 rng(3000 + GetParam());
  const unsigned nvars = 10 + rng() % 15;
  const double ratio = 2.5 + (rng() % 30) / 10.0;  // spans SAT and UNSAT
  auto cls = random_cnf(rng, nvars, ratio);
  crosscheck(cls, nvars,
             GetParam() % 2 ? RestartMode::kEma : RestartMode::kLuby);
}

/// Dense-subsumption formulas: every base clause gets random supersets
/// (subsumption deletes them mid-sweep) and a one-flipped-literal variant
/// (self-subsumption strengthens it), so the round keeps deleting and
/// rewriting clauses whose occurrence lists it is iterating.
std::vector<std::vector<Lit>> dense_subsumption_cnf(std::mt19937& rng,
                                                    unsigned nvars) {
  auto rnd_lit = [&] { return mk_lit(rng() % nvars, rng() % 2); };
  std::vector<std::vector<Lit>> cls;
  const unsigned nbase = 4 + rng() % 5;
  for (unsigned bi = 0; bi < nbase; ++bi) {
    std::vector<Lit> base;
    unsigned len = 1 + rng() % 3;
    for (unsigned k = 0; k < len; ++k) base.push_back(rnd_lit());
    cls.push_back(base);
    for (unsigned sup = 0; sup < 2 + rng() % 3; ++sup) {
      std::vector<Lit> d = base;
      for (unsigned k = 0; k < 1 + rng() % 3; ++k) d.push_back(rnd_lit());
      cls.push_back(d);
    }
    std::vector<Lit> f = base;
    std::size_t fi = rng() % f.size();
    f[fi] = neg(f[fi]);
    f.push_back(rnd_lit());
    cls.push_back(f);
  }
  std::shuffle(cls.begin(), cls.end(), rng);
  return cls;
}

TEST_P(InprocessFuzzTest, DenseSubsumptionAgrees) {
  std::mt19937 rng(7100 + GetParam());
  const unsigned nvars = 6 + rng() % 5;
  auto cls = dense_subsumption_cnf(rng, nvars);
  crosscheck(cls, nvars,
             GetParam() % 2 ? RestartMode::kEma : RestartMode::kLuby);
}

INSTANTIATE_TEST_SUITE_P(RandomCnf, InprocessFuzzTest, ::testing::Range(0, 80));

TEST(Inprocess, UnsatDerivedDuringElimination) {
  // (x|y)(x|~y)(~x|y)(~x|~y): BVE on x yields the resolvents (y) and (~y);
  // integrating the second falsifies it at level 0 — the refutation is
  // derived entirely inside the inprocessing round, before any search.
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var x = s.new_var(), y = s.new_var();
  s.add_clause({pos(x), pos(y)});
  s.add_clause({pos(x), negl(y)});
  s.add_clause({negl(x), pos(y)});
  s.add_clause({negl(x), negl(y)});
  EXPECT_EQ(s.solve(), Status::kUnsat);
  auto pc = check_proof(s.proof());
  EXPECT_TRUE(pc.ok) << pc.error;
  std::ostringstream tc;
  write_tracecheck(s.proof(), tc);
  EXPECT_FALSE(tc.str().empty());

  // XOR-style binaries: no clause subsumes or self-subsumes another, so
  // the contradiction surfaces only once elimination starts resolving —
  // through units (b) and (~b) created mid-sweep.
  const Var v = 0, a = 1, b = 2;
  crosscheck({{pos(v), pos(a)},
              {pos(v), pos(b)},
              {negl(v), negl(a)},
              {negl(v), negl(b)},
              {pos(a), pos(b)},
              {negl(a), negl(b)}},
             3, RestartMode::kLuby);
}

TEST(Inprocess, SubsumptionAndStrengtheningCounted) {
  // Freeze everything so BVE cannot erase the evidence: (a|b) subsumes
  // (a|b|c) and self-subsumes (a|~b|c) down to (a|c).
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  for (Var v : {a, b, c}) s.freeze(v);
  s.add_clause({pos(a), pos(b)});
  s.add_clause({pos(a), pos(b), pos(c)});
  s.add_clause({pos(a), negl(b), pos(c)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().subsumed, 1u);
  EXPECT_GE(s.stats().strengthened, 1u);
  EXPECT_GE(s.stats().inprocess_rounds, 1u);
  EXPECT_TRUE(model_satisfies(
      s.model(), {{pos(a), pos(b)}, {pos(a), pos(b), pos(c)},
                  {pos(a), negl(b), pos(c)}}));
}

TEST(Inprocess, FailedLiteralProbeDerivesUnit) {
  // Two-step implication chain x -> y -> z against (~x|~z): no pair of these
  // binaries subsumes or strengthens another, and all vars are frozen (no
  // BVE) — only probing x walks the chain to the conflict, so the failed
  // literal installs unit ~x.
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var x = s.new_var(), y = s.new_var(), z = s.new_var();
  for (Var v : {x, y, z}) s.freeze(v);
  s.add_clause({negl(x), pos(y)});
  s.add_clause({negl(y), pos(z)});
  s.add_clause({negl(x), negl(z)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().probed, 1u);
  EXPECT_GE(s.stats().failed_literals, 1u);
  EXPECT_FALSE(s.model_value(x));
}

TEST(Inprocess, VivificationShortensClause) {
  // The chain x -> y -> z makes the ~z literal of (~x|~z|w) redundant, but
  // the two-step implication is invisible to self-subsuming resolution (no
  // single resolution partner exists).  Vivifying the clause propagates x,
  // hits z's reason chain, and strengthens it to (~x|w).  Vars frozen so
  // BVE stays out of the way.
  Solver s;
  s.set_inprocess_interval(0);
  s.enable_proof();
  Var x = s.new_var(), y = s.new_var(), z = s.new_var(), w = s.new_var();
  for (Var v : {x, y, z, w}) s.freeze(v);
  s.add_clause({negl(x), pos(y)});
  s.add_clause({negl(y), pos(z)});
  s.add_clause({negl(x), negl(z), pos(w)});
  EXPECT_EQ(s.solve(), Status::kSat);
  EXPECT_GE(s.stats().vivified, 1u);
}

TEST(Inprocess, AssumingEliminatedVarRestoresIt) {
  // BVE eliminates v on its first round; a later solve_assuming over v must
  // transparently restore it (recorded clauses come back under their
  // original ids) — without the restore the query would mis-solve.
  Solver s;
  s.set_inprocess_interval(0);
  Var v = s.new_var(), a = s.new_var(), b = s.new_var();
  s.add_clause({pos(v), pos(a)});
  s.add_clause({negl(v), pos(b)});
  ASSERT_EQ(s.solve(), Status::kSat);
  ASSERT_TRUE(s.is_eliminated(v)) << "test premise: BVE eliminated v";
  // ~v and ~a falsify (v | a): UNSAT under these assumptions.
  Status st = s.solve_assuming({negl(v), negl(a)});
  EXPECT_EQ(st, Status::kUnsat);
  EXPECT_TRUE(s.ok()) << "assumption-unsat must not refute the formula";
  EXPECT_FALSE(s.failed_assumptions().empty());
  EXPECT_FALSE(s.is_eliminated(v));
  EXPECT_TRUE(s.is_frozen(v));
  // And satisfiable again under the opposite polarity.
  EXPECT_EQ(s.solve_assuming({pos(v)}), Status::kSat);
  EXPECT_TRUE(s.model_value(b));
}

TEST(Inprocess, AddClauseOverEliminatedVarRestoresIt) {
  Solver s;
  s.set_inprocess_interval(0);
  Var v = s.new_var(), a = s.new_var(), b = s.new_var();
  s.add_clause({pos(v), pos(a)});
  s.add_clause({negl(v), pos(b)});
  ASSERT_EQ(s.solve(), Status::kSat);
  ASSERT_TRUE(s.is_eliminated(v));
  // New input clause over v: the var must come back before it is installed.
  s.add_clause({pos(v)});
  s.add_clause({negl(b)});
  EXPECT_EQ(s.solve(), Status::kUnsat);  // v & (~v | b) & ~b
}

TEST(Inprocess, FrozenVarsNeverEliminated) {
  std::mt19937 rng(77);
  Solver s;
  s.set_inprocess_interval(0);
  const unsigned nvars = 16;
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (unsigned i = 0; i < nvars; ++i) s.freeze(i);
  for (const auto& c : random_cnf(rng, nvars, 3.0)) s.add_clause(c);
  Status st = s.solve();
  ASSERT_NE(st, Status::kUnknown);
  for (unsigned i = 0; i < nvars; ++i)
    EXPECT_FALSE(s.is_eliminated(i)) << "frozen var " << i << " eliminated";
  EXPECT_EQ(s.stats().vars_eliminated, 0u);
}

TEST(Inprocess, IncrementalAssumptionFuzz) {
  // A long-lived inprocessing solver answering assumption queries (with
  // clause additions in between) must agree with a fresh untouched solver
  // on every query, and its failed-assumption cores must be sufficient.
  for (int seed = 0; seed < 12; ++seed) {
    std::mt19937 rng(5000 + seed);
    const unsigned nvars = 12 + rng() % 8;
    Solver inc;
    inc.set_inprocess_interval(0);
    for (unsigned i = 0; i < nvars; ++i) inc.new_var();
    std::vector<std::vector<Lit>> cls = random_cnf(rng, nvars, 2.0);
    for (const auto& c : cls) inc.add_clause(c);
    for (int q = 0; q < 8; ++q) {
      // Occasionally grow the formula (exercises restore via add_clause).
      if (rng() % 3 == 0) {
        auto extra = random_cnf(rng, nvars, 0.3);
        for (const auto& c : extra) {
          cls.push_back(c);
          inc.add_clause(c);
        }
      }
      std::vector<Lit> assume;
      const unsigned na = rng() % 4;
      for (unsigned k = 0; k < na; ++k)
        assume.push_back(mk_lit(rng() % nvars, rng() % 2));
      Status si = inc.solve_assuming(assume);
      ASSERT_NE(si, Status::kUnknown);
      // Reference: fresh solver, assumptions as units.
      Solver ref;
      ref.set_inprocess(false);
      for (unsigned i = 0; i < nvars; ++i) ref.new_var();
      bool ref_ok = true;
      for (const auto& c : cls) ref_ok = ref.add_clause(c) && ref_ok;
      for (Lit aL : assume) ref_ok = ref.add_clause({aL}) && ref_ok;
      Status sr = ref_ok ? ref.solve() : Status::kUnsat;
      if (sr == Status::kUnknown) continue;
      ASSERT_EQ(si == Status::kSat, sr == Status::kSat)
          << "incremental inprocessing changed a query verdict (seed "
          << seed << ", query " << q << ")";
      if (si == Status::kSat) {
        EXPECT_TRUE(model_satisfies(inc.model(), cls));
        for (Lit aL : assume)
          EXPECT_EQ(lbool_xor(inc.model()[var(aL)], sign(aL)), LBool::kTrue);
      } else if (!inc.failed_assumptions().empty()) {
        // The failed core alone must already be inconsistent with the CNF.
        Solver core;
        core.set_inprocess(false);
        for (unsigned i = 0; i < nvars; ++i) core.new_var();
        bool core_ok = true;
        for (const auto& c : cls) core_ok = core.add_clause(c) && core_ok;
        for (Lit f : inc.failed_assumptions())
          core_ok = core.add_clause({f}) && core_ok;
        EXPECT_TRUE(!core_ok || core.solve() == Status::kUnsat)
            << "failed-assumption core is not sufficient";
      }
      if (!inc.ok()) break;  // formula itself refuted: nothing left to ask
    }
  }
}

TEST(Inprocess, RepeatedRoundsReachFixpointSafely) {
  // Many forced rounds over the same (shrinking) database must stay sound
  // and terminate; verdict checked against a clean solver at the end.
  std::mt19937 rng(99);
  const unsigned nvars = 18;
  auto cls = random_cnf(rng, nvars, 3.5);
  Solver s;
  s.set_inprocess_interval(0);
  for (unsigned i = 0; i < nvars; ++i) s.new_var();
  for (const auto& c : cls) s.add_clause(c);
  Status first = s.solve();
  for (int i = 0; i < 5 && first != Status::kUnknown; ++i)
    ASSERT_EQ(s.solve(), first) << "re-solve changed the verdict";
  Solver ref;
  ref.set_inprocess(false);
  for (unsigned i = 0; i < nvars; ++i) ref.new_var();
  for (const auto& c : cls) ref.add_clause(c);
  EXPECT_EQ(s.solve(), ref.solve());
}

TEST(Inprocess, CancellationDuringInprocessingSolveIsClean) {
  // Concurrency smoke (runs under TSan via the `concurrency` label): a
  // cancel token flipped from another thread while a solver with forced
  // inprocessing churns on pigeonhole queries must stop the solve without
  // corrupting state — the follow-up uncancelled solve gives the verdict.
  Solver s;
  s.set_inprocess_interval(0);
  const int n = 7;  // 8 pigeons, 7 holes
  std::vector<std::vector<Var>> p(n + 1, std::vector<Var>(n));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i <= n; ++i) {
    std::vector<Lit> cl;
    for (int h = 0; h < n; ++h) cl.push_back(pos(p[i][h]));
    s.add_clause(cl);
  }
  for (int h = 0; h < n; ++h)
    for (int i = 0; i <= n; ++i)
      for (int j = i + 1; j <= n; ++j)
        s.add_clause({negl(p[i][h]), negl(p[j][h])});
  std::atomic<bool> cancel{false};
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cancel.store(true, std::memory_order_relaxed);
  });
  Budget b;
  b.cancel = &cancel;
  Status st = s.solve(b);  // kUnknown if the token won, kUnsat if we did
  killer.join();
  EXPECT_NE(st, Status::kSat);
  EXPECT_EQ(s.solve(), Status::kUnsat);  // state intact after cancellation
}

// --- schedule: rounds follow search work, not solve entry -------------------

/// PHP(n+1, n): n+1 pigeons, n holes; var i*n + h puts pigeon i in hole h.
std::vector<std::vector<Lit>> pigeonhole_cnf(unsigned n) {
  std::vector<std::vector<Lit>> cls;
  for (unsigned i = 0; i <= n; ++i) {
    std::vector<Lit> cl;
    for (unsigned h = 0; h < n; ++h) cl.push_back(pos(i * n + h));
    cls.push_back(cl);
  }
  for (unsigned h = 0; h < n; ++h)
    for (unsigned i = 0; i <= n; ++i)
      for (unsigned j = i + 1; j <= n; ++j)
        cls.push_back({negl(i * n + h), negl(j * n + h)});
  return cls;
}

TEST(InprocessSchedule, OneShotEasyQueryGetsNoRound) {
  // A fresh solver at default settings that decides an easy query does too
  // little search to earn a round — the shape of every one-shot BMC and
  // certificate solver.  Both an implication chain and an under-constrained
  // random formula stay below the first-round threshold.
  {
    const unsigned n = 200;
    Solver s;
    s.enable_proof();
    for (unsigned i = 0; i < n; ++i) s.new_var();
    for (unsigned i = 0; i + 1 < n; ++i) s.add_clause({negl(i), pos(i + 1)});
    ASSERT_EQ(s.solve(), Status::kSat);
    EXPECT_EQ(s.stats().inprocess_rounds, 0u);
    EXPECT_EQ(s.stats().vars_eliminated, 0u);
  }
  {
    std::mt19937 rng(11);
    const unsigned nvars = 100;
    auto cls = random_cnf(rng, nvars, 1.5);
    Solver s;
    s.enable_proof();
    for (unsigned i = 0; i < nvars; ++i) s.new_var();
    for (const auto& c : cls) s.add_clause(c);
    ASSERT_NE(s.solve(), Status::kUnknown);
    EXPECT_EQ(s.stats().inprocess_rounds, 0u);
  }
}

TEST(InprocessSchedule, IncrementalSolverEarnsRoundsAndEliminates) {
  // An equivalence chain a0 <-> a1 <-> ... <-> an, queried at its two ends
  // through many solve_assuming calls.  Every query propagates the whole
  // chain, so the propagation work passes the first-round threshold within
  // a few queries, and BVE then eliminates the unfrozen middle of the
  // chain.  Every answer must stay right across the round.
  const unsigned n = 64;
  Solver s;
  for (unsigned i = 0; i <= n; ++i) s.new_var();
  for (unsigned i = 0; i < n; ++i) {
    s.add_clause({negl(i), pos(i + 1)});
    s.add_clause({pos(i), negl(i + 1)});
  }
  for (unsigned q = 0; q < 40; ++q) {
    const bool head = q % 2 == 0, tail = (q / 2) % 2 == 0;
    Status st = s.solve_assuming({mk_lit(0, !head), mk_lit(n, !tail)});
    ASSERT_EQ(st, head == tail ? Status::kSat : Status::kUnsat)
        << "query " << q;
    if (st == Status::kSat) {
      EXPECT_EQ(s.model_value(n / 2), head);
    }
    if (q == 0) {
      EXPECT_EQ(s.stats().inprocess_rounds, 0u)
          << "a solver that has not searched yet got a round";
    }
  }
  EXPECT_GE(s.stats().inprocess_rounds, 1u);
  EXPECT_GT(s.stats().vars_eliminated, 0u);
}

TEST(InprocessSchedule, FirstRoundMidSearchKeepsProofsValid) {
  // Default schedule, one solve: no round on entry (nothing searched yet);
  // the first round fires at a restart, once the propagation work passes
  // the threshold.  The refutation then mixes lemmas learned before the
  // round with its rewrites and the lemmas after it, and must still
  // replay, DRAT-check and export to tracecheck.
  for (unsigned n : {6u, 7u}) {
    const unsigned nvars = (n + 1) * n;
    auto cls = pigeonhole_cnf(n);
    Solver s;
    s.enable_proof();
    for (unsigned i = 0; i < nvars; ++i) s.new_var();
    for (const auto& c : cls) s.add_clause(c);
    ASSERT_EQ(s.solve(), Status::kUnsat);
    EXPECT_GE(s.stats().restarts, 1u);
    EXPECT_GE(s.stats().inprocess_rounds, 1u) << "PHP(" << n + 1 << ", " << n
                                              << ") never reached a round";
    expect_valid_refutation(s, cls, nvars);
  }
  // Random 3-SAT at the threshold ratio, crosschecked against an
  // inprocess-off solver under the default schedule; at this size most of
  // them reach their first round at a restart.
  for (int seed = 0; seed < 16; ++seed) {
    std::mt19937 rng(9100 + seed);
    const unsigned nvars = 110 + rng() % 20;
    std::vector<std::vector<Lit>> cls;
    for (unsigned c = 0; c < nvars * 43 / 10; ++c)
      cls.push_back({mk_lit(rng() % nvars, rng() % 2),
                     mk_lit(rng() % nvars, rng() % 2),
                     mk_lit(rng() % nvars, rng() % 2)});
    crosscheck(cls, nvars, seed % 2 ? RestartMode::kEma : RestartMode::kLuby,
               /*interval=*/4000);
  }
}

TEST(InprocessSchedule, SequenceEngineSkipsRoundsOnOneShotSolvers) {
  // ITPSEQ builds one fresh proof-logging solver per bound; each decides
  // its BMC query with little search, so almost none of them earns a
  // round.
  aig::Aig g = bench::industrial(32, 8, /*variant=*/0, 10, 201);  // B1
  mc::EngineOptions o;
  o.time_limit_sec = 30.0;
  mc::EngineResult r = mc::check_itpseq(g, 0, o);
  ASSERT_EQ(r.verdict, mc::Verdict::kPass);
  EXPECT_GE(r.stats.sat_calls, 4u);
  EXPECT_LE(r.stats.sat_inprocess_rounds * 4, r.stats.sat_calls)
      << r.stats.sat_inprocess_rounds << " rounds over "
      << r.stats.sat_calls << " solvers";
}

}  // namespace
}  // namespace itpseq::sat
