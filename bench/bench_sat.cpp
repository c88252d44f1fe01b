// bench_sat.cpp — CDCL solver throughput over a built-in workload suite,
// with a machine-readable trajectory file (BENCH_sat.json).
//
// Workloads cover the shapes the engines generate: BMC unrollings (Tseitin
// CNF, heavy on binary clauses), combinatorial UNSAT cores (pigeonhole),
// random 3-SAT at and below the threshold, a pure binary implication
// network (the inline-binary-watcher showcase), and a PDR-shaped
// incremental session (one long-lived solver, activation-literal clause
// retirement, arena GC).  Per workload: propagations/s, conflicts/s,
// binary-propagation share, arena footprint and GC activity.  The
// `*_noinpr` rows rerun a workload with solver inprocessing off: the
// ablation for the in-solver simplification; `bmc_unroll_proof` reruns
// bmc_unroll with resolution-proof logging on, the cost interpolation
// pays.
//
// The JSON file is the perf-trajectory baseline: stable keys, one entry
// per workload plus a totals block — diff it across commits.
//
// Usage: bench_sat [reps_scale|quick] [json_path]
//
// `quick` runs a seconds-scale slice of the suite (the ctest `perf-smoke`
// label) — a sanity check that the drivers, counters and JSON writer work,
// not a measurement.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_circuits/generators.hpp"
#include "cnf/unroller.hpp"
#include "json_writer.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "sat_workloads.hpp"

using namespace itpseq;

namespace {

using Clock = std::chrono::steady_clock;

struct WorkloadResult {
  std::string name;
  double solve_sec = 0.0;
  sat::SolverStats stats;        // summed over reps
  std::size_t arena_bytes = 0;   // summed final arenas
  unsigned reps = 0;
  bool inprocess = true;         // solver-side inprocessing enabled?
};

double props_per_sec(const WorkloadResult& r) {
  return r.solve_sec > 0 ? static_cast<double>(r.stats.propagations) / r.solve_sec
                         : 0.0;
}

/// Run `body(solver)` (which must build AND solve), timing only the span
/// the body reports via its return value.  `inprocess` toggles the solver's
/// built-in simplification — paired on/off entries are the ablation rows in
/// BENCH_sat.json.
template <typename Body>
WorkloadResult run_workload(const std::string& name, unsigned reps, Body body,
                            bool inprocess = true) {
  WorkloadResult r;
  r.name = name;
  r.reps = reps;
  r.inprocess = inprocess;
  for (unsigned i = 0; i < reps; ++i) {
    sat::Solver s;
    s.set_inprocess(inprocess);
    r.solve_sec += body(s, i);
    r.stats += s.stats();
    r.arena_bytes += s.arena_bytes();
  }
  return r;
}

double timed_solve(sat::Solver& s) {
  auto t0 = Clock::now();
  s.solve();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- workload bodies -------------------------------------------------------

double bmc_unroll(sat::Solver& s, unsigned) {
  aig::Aig g = bench::queue(16, true);
  cnf::Unroller unr(g, s);
  bench::build_bmc_queue(s, unr, 24);
  return timed_solve(s);
}

double bmc_unroll_proof(sat::Solver& s, unsigned rep) {
  s.enable_proof();
  return bmc_unroll(s, rep);
}

double bmc_deep(sat::Solver& s, unsigned) {
  aig::Aig g = bench::queue(16, true);
  cnf::Unroller unr(g, s);
  bench::build_bmc_queue(s, unr, 64);
  return timed_solve(s);
}

double pigeonhole(sat::Solver& s, unsigned) {
  bench::build_pigeonhole(s, 8);
  return timed_solve(s);
}

double random3sat(sat::Solver& s, unsigned rep) {
  bench::build_random3sat(s, 120, 4.26, 9000 + rep);
  return timed_solve(s);
}

double big3sat(sat::Solver& s, unsigned rep) {
  // Under-constrained: SAT, propagation-heavy, real cache pressure.
  bench::build_random3sat(s, 100000, 3.0, 11 + rep);
  return timed_solve(s);
}

double binary_net(sat::Solver& s, unsigned rep) {
  bench::build_binary_net(s, 400000, 5 + rep);
  return timed_solve(s);
}

double incremental_gc(sat::Solver& s, unsigned rep) {
  auto t0 = Clock::now();
  bench::run_incremental_gc_session(s, 4000, 77 + rep);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Seconds-scale variants for the `quick` (perf-smoke) mode.
double pigeonhole_quick(sat::Solver& s, unsigned) {
  bench::build_pigeonhole(s, 7);
  return timed_solve(s);
}

double binary_net_quick(sat::Solver& s, unsigned rep) {
  bench::build_binary_net(s, 50000, 5 + rep);
  return timed_solve(s);
}

double incremental_gc_quick(sat::Solver& s, unsigned rep) {
  auto t0 = Clock::now();
  bench::run_incremental_gc_session(s, 500, 77 + rep);
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  // ITPSEQ_TRACE=file [ITPSEQ_TRACE_FORMAT=chrome] [ITPSEQ_PROGRESS=1]
  // trace a bench run without flag plumbing; null when the env is unset.
  auto sink = obs::TraceSink::from_env();
  const bool quick = argc > 1 && std::string(argv[1]) == "quick";
  unsigned scale = argc > 1 && !quick ? static_cast<unsigned>(std::atoi(argv[1])) : 1;
  if (scale == 0) scale = 1;
  std::string json_path = argc > 2 ? argv[2] : "BENCH_sat.json";

  std::vector<WorkloadResult> results;
  // The `*_noinpr` rows rerun a workload with the solver's inprocessing
  // switched off — the in-tree ablation for the simplification pipeline.
  if (quick) {
    results.push_back(run_workload("bmc_unroll", 1, bmc_unroll));
    results.push_back(run_workload("pigeonhole7", 1, pigeonhole_quick));
    results.push_back(
        run_workload("pigeonhole7_noinpr", 1, pigeonhole_quick, false));
    results.push_back(run_workload("random3sat", 2, random3sat));
    results.push_back(run_workload("binary_net", 1, binary_net_quick));
    results.push_back(run_workload("incremental_gc", 1, incremental_gc_quick));
  } else {
    results.push_back(run_workload("bmc_unroll", 8 * scale, bmc_unroll));
    results.push_back(
        run_workload("bmc_unroll_noinpr", 8 * scale, bmc_unroll, false));
    results.push_back(
        run_workload("bmc_unroll_proof", 8 * scale, bmc_unroll_proof));
    results.push_back(run_workload("bmc_deep", 2 * scale, bmc_deep));
    results.push_back(run_workload("pigeonhole8", 2 * scale, pigeonhole));
    results.push_back(
        run_workload("pigeonhole8_noinpr", 2 * scale, pigeonhole, false));
    results.push_back(run_workload("random3sat", 16 * scale, random3sat));
    results.push_back(
        run_workload("random3sat_noinpr", 16 * scale, random3sat, false));
    results.push_back(run_workload("big3sat", 1 * scale, big3sat));
    results.push_back(run_workload("binary_net", 1 * scale, binary_net));
    results.push_back(run_workload("incremental_gc", 1 * scale, incremental_gc));
  }

  std::printf("%-16s %12s %10s %6s %10s %8s %8s %6s %10s\n", "workload",
              "props/s", "confl/s", "bin%", "props", "arenaKB", "peakKB",
              "gc", "reclaimKB");
  WorkloadResult total;
  total.name = "TOTAL";
  for (const auto& r : results) {
    double binpct = r.stats.propagations
                        ? 100.0 * static_cast<double>(r.stats.bin_propagations) /
                              static_cast<double>(r.stats.propagations)
                        : 0.0;
    std::printf("%-16s %12.0f %10.0f %5.1f%% %10llu %8zu %8llu %6llu %10llu\n",
                r.name.c_str(), props_per_sec(r),
                r.solve_sec > 0
                    ? static_cast<double>(r.stats.conflicts) / r.solve_sec
                    : 0.0,
                binpct,
                static_cast<unsigned long long>(r.stats.propagations),
                r.arena_bytes / 1024,
                static_cast<unsigned long long>(r.stats.peak_arena_bytes / 1024),
                static_cast<unsigned long long>(r.stats.gc_runs),
                static_cast<unsigned long long>(r.stats.wasted_bytes_reclaimed /
                                                1024));
    total.solve_sec += r.solve_sec;
    total.stats += r.stats;
    total.arena_bytes += r.arena_bytes;
  }
  std::printf("%-16s %12.0f %10.0f %5.1f%% %10llu %8zu %8llu %6llu %10llu\n",
              "TOTAL", props_per_sec(total),
              total.solve_sec > 0
                  ? static_cast<double>(total.stats.conflicts) / total.solve_sec
                  : 0.0,
              total.stats.propagations
                  ? 100.0 * static_cast<double>(total.stats.bin_propagations) /
                        static_cast<double>(total.stats.propagations)
                  : 0.0,
              static_cast<unsigned long long>(total.stats.propagations),
              total.arena_bytes / 1024,
              static_cast<unsigned long long>(total.stats.peak_arena_bytes / 1024),
              static_cast<unsigned long long>(total.stats.gc_runs),
              static_cast<unsigned long long>(total.stats.wasted_bytes_reclaimed /
                                              1024));

  bench::JsonWriter json(json_path);
  json.begin_object();
  json.field("bench", "sat");
  json.field("scale", scale);
  json.field("quick", quick);
  json.begin_array("workloads");
  auto emit = [&](const WorkloadResult& r) {
    json.begin_object();
    json.field("name", r.name);
    json.field("reps", r.reps);
    json.field("solve_sec", r.solve_sec);
    json.field("propagations", r.stats.propagations);
    json.field("bin_propagations", r.stats.bin_propagations);
    json.field("props_per_sec", props_per_sec(r));
    json.field("conflicts", r.stats.conflicts);
    json.field("conflicts_per_sec",
               r.solve_sec > 0
                   ? static_cast<double>(r.stats.conflicts) / r.solve_sec
                   : 0.0);
    json.field("decisions", r.stats.decisions);
    json.field("restarts", r.stats.restarts);
    json.field("db_reductions", r.stats.db_reductions);
    json.field("gc_runs", r.stats.gc_runs);
    json.field("arena_bytes", r.arena_bytes);
    json.field("arena_peak_bytes", r.stats.peak_arena_bytes);
    json.field("wasted_bytes_reclaimed", r.stats.wasted_bytes_reclaimed);
    json.field("removed_satisfied", r.stats.removed_satisfied);
    json.field("inprocess", r.inprocess);
    json.field("inprocess_rounds", r.stats.inprocess_rounds);
    json.field("subsumed", r.stats.subsumed);
    json.field("strengthened", r.stats.strengthened);
    json.field("vars_eliminated", r.stats.vars_eliminated);
    json.field("vivified", r.stats.vivified);
    json.field("probed", r.stats.probed);
    json.field("failed_literals", r.stats.failed_literals);
    json.field("hyper_binaries", r.stats.hyper_binaries);
    json.field("restarts_blocked", r.stats.restarts_blocked);
    json.field("learned_core", r.stats.learned_core);
    json.field("learned_mid", r.stats.learned_mid);
    json.field("learned_local", r.stats.learned_local);
    json.begin_array("glue_hist");
    for (auto g : r.stats.glue_hist) json.value(g);
    json.end_array();
    json.end_object();
  };
  for (const auto& r : results) emit(r);
  emit(total);
  json.end_array();
  json.end_object();
  if (!json.write()) {
    std::fprintf(stderr, "bench_sat: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\ntrajectory written to %s\n", json_path.c_str());
  return 0;
}
