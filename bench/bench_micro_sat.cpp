// bench_micro_sat.cpp — google-benchmark microbenchmarks for the CDCL
// solver: BMC-shaped instances with and without proof logging (quantifying
// the overhead of the resolution chain recording that interpolation needs),
// propagation-throughput benches over the flat clause arena, the inline
// binary-watcher fast path, and the incremental-session arena GC.
// The props/s counter is the headline propagation-throughput figure; the
// non-gbench bench_sat driver reports the same suite with JSON output.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "cnf/unroller.hpp"
#include "sat/solver.hpp"
#include "sat_workloads.hpp"

using namespace itpseq;

namespace {

void solve_bmc(const aig::Aig& model, unsigned k, bool proof,
               cnf::TargetScheme scheme, benchmark::State& state) {
  std::uint64_t conflicts = 0, props = 0;
  std::uint64_t core = 0, mid = 0, local = 0;  // learned-clause tiers
  for (auto _ : state) {
    sat::Solver s;
    if (proof) s.enable_proof();
    cnf::Unroller unr(model, s);
    unr.assert_init(0);
    for (unsigned t = 0; t < k; ++t) unr.add_transition(t, t + 1);
    unr.assert_target(k, scheme, /*prop=*/0);
    sat::Status st = s.solve();
    benchmark::DoNotOptimize(st);
    conflicts += s.stats().conflicts;
    props += s.stats().propagations;
    core += s.stats().learned_core;
    mid += s.stats().learned_mid;
    local += s.stats().learned_local;
  }
  state.counters["conflicts"] =
      benchmark::Counter(static_cast<double>(conflicts),
                         benchmark::Counter::kAvgIterations);
  state.counters["props/s"] = benchmark::Counter(
      static_cast<double>(props), benchmark::Counter::kIsRate);
  state.counters["glue_core"] = benchmark::Counter(
      static_cast<double>(core), benchmark::Counter::kAvgIterations);
  state.counters["glue_mid"] = benchmark::Counter(
      static_cast<double>(mid), benchmark::Counter::kAvgIterations);
  state.counters["glue_local"] = benchmark::Counter(
      static_cast<double>(local), benchmark::Counter::kAvgIterations);
}

void BM_BmcUnsat_NoProof(benchmark::State& state) {
  aig::Aig g = bench::counter(6, 61, 45);
  solve_bmc(g, static_cast<unsigned>(state.range(0)), false,
            cnf::TargetScheme::kExact, state);
}
BENCHMARK(BM_BmcUnsat_NoProof)->Arg(10)->Arg(20)->Arg(40);

void BM_BmcUnsat_WithProof(benchmark::State& state) {
  aig::Aig g = bench::counter(6, 61, 45);
  solve_bmc(g, static_cast<unsigned>(state.range(0)), true,
            cnf::TargetScheme::kExact, state);
}
BENCHMARK(BM_BmcUnsat_WithProof)->Arg(10)->Arg(20)->Arg(40);

void BM_BmcSchemes(benchmark::State& state) {
  // Same instance under the three target schemes (Section III).
  aig::Aig g = bench::feistel_mixer(12, 20, 7);
  auto scheme = static_cast<cnf::TargetScheme>(state.range(0));
  solve_bmc(g, 12, false, scheme, state);
}
BENCHMARK(BM_BmcSchemes)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"scheme"});

void BM_PigeonHole(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));  // n+1 pigeons, n holes
  std::uint64_t props = 0;
  for (auto _ : state) {
    sat::Solver s;
    s.enable_proof();
    std::vector<std::vector<sat::Var>> p(n + 1, std::vector<sat::Var>(n));
    for (auto& row : p)
      for (auto& v : row) v = s.new_var();
    for (int i = 0; i <= n; ++i) {
      std::vector<sat::Lit> cl;
      for (int h = 0; h < n; ++h) cl.push_back(sat::mk_lit(p[i][h]));
      s.add_clause(cl, 1);
    }
    for (int h = 0; h < n; ++h)
      for (int i = 0; i <= n; ++i)
        for (int j = i + 1; j <= n; ++j)
          s.add_clause({sat::mk_lit(p[i][h], true), sat::mk_lit(p[j][h], true)}, 2);
    sat::Status st = s.solve();
    benchmark::DoNotOptimize(st);
    props += s.stats().propagations;
  }
  state.counters["props/s"] = benchmark::Counter(
      static_cast<double>(props), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PigeonHole)->Arg(5)->Arg(6)->Arg(7);

void BM_BinaryNetwork(benchmark::State& state) {
  // Pure binary implication network (ring + chords, bench::build_binary_net
  // — the same formula bench_sat's trajectory measures): propagation
  // resolves entirely from the inline binary watchers.
  const unsigned nv = static_cast<unsigned>(state.range(0));
  std::uint64_t props = 0;
  for (auto _ : state) {
    state.PauseTiming();  // CNF construction is not the measured quantity
    sat::Solver s;
    bench::build_binary_net(s, nv, 5);
    state.ResumeTiming();
    sat::Status st = s.solve();
    benchmark::DoNotOptimize(st);
    props += s.stats().propagations;
  }
  state.counters["props/s"] = benchmark::Counter(
      static_cast<double>(props), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BinaryNetwork)->Arg(100000)->Arg(400000);

void BM_IncrementalGc(benchmark::State& state) {
  // PDR-shaped incremental session (bench::run_incremental_gc_session,
  // shared with bench_sat): guarded clauses retired by activation units,
  // thousands of assumption queries on one solver; exercises
  // remove_satisfied and the arena garbage collector.
  std::uint64_t props = 0, gc = 0;
  for (auto _ : state) {
    sat::Solver s;
    bench::run_incremental_gc_session(s, static_cast<int>(state.range(0)), 77);
    props += s.stats().propagations;
    gc += s.stats().gc_runs;
  }
  state.counters["props/s"] = benchmark::Counter(
      static_cast<double>(props), benchmark::Counter::kIsRate);
  state.counters["gc"] = benchmark::Counter(
      static_cast<double>(gc), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_IncrementalGc)->Arg(1000)->Arg(4000);

}  // namespace

BENCHMARK_MAIN();
