// main.cpp — the repository benchmark: the paper's engines, large designs
// and PDR, measured end to end and per layer.
//
// One process, one thread, a closed loop: each (engine, instance) job runs
// through the public entry points (mc::check_*, mc::PdrEngine) and the next
// job starts when it returns.  A pass runs every job of the workload once;
// passes repeat until --seconds of measuring are used, and end-to-end
// metrics are medians over passes.  Every job's evidence is checked: the
// verdict against the instance's known verdict, each PASS certificate with
// mc::check_certificate, each FAIL trace with mc::trace_is_cex.  CPU is
// thread CPU; memory is the process's peak RSS while a job runs, with the
// heap trimmed and the high-water mark reset before each job.
//
// Usage:
//   paperbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//   paperbench --check-suite
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced
// pass for the engine counters, then replays ITPSEQ's bound loop with a
// span around every call into a layer (replay.hpp) and reports the
// per-layer metrics.  Per-job rows (and, traced, the spans) are written as
// JSON lines under DIR (default .bench_out); the last line of standard
// output is the JSON summary.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/pdr.hpp"
#include "mc/sim.hpp"
#include "replay.hpp"
#include "suite.hpp"

namespace mc = itpseq::mc;
namespace bc = itpseq::bench;

namespace paperbench {
namespace {

double thread_cpu() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The process's peak RSS in MB since the last reset_hwm(); 0 if unreadable.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  std::fclose(f);
  return kb / 1024.0;
}

// Reset VmHWM (and the process's peak RSS) to the current RSS.
void reset_hwm() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

// The q-quantile of v (0 <= q <= 1), interpolating between neighbours.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

enum class EngineKind { kItp, kItpseq, kSitpseq, kItpseqCba, kPdr };

// Metric-name prefix of each engine's per-engine columns (Fig. 6).
const char* engine_key(EngineKind e) {
  switch (e) {
    case EngineKind::kItp: return "itp";
    case EngineKind::kItpseq: return "itpseq";
    case EngineKind::kSitpseq: return "sitpseq";
    case EngineKind::kItpseqCba: return "itpseq_cba";
    case EngineKind::kPdr: return "pdr";
  }
  return "?";
}

struct Workload {
  const char* name;
  std::vector<EngineKind> engines;
  double cap;  // per-job wall-clock budget, seconds
  std::function<std::vector<Instance>(std::uint64_t)> instances;
  // Per-job budget of the traced ITPSEQ replay.  Equal to `cap` where
  // ITPSEQ is one of the engines, so the replay can be checked against it.
  double replay_cap;
};

// Why these three: paper_seq is Table I / Fig. 6 and is fixpoint-check
// bound (StateSpace::implies); seq_large moves the mix towards CNF
// encoding and SAT search; pdr_suite drives the sat layer the other way
// round (one incremental solver, no proofs, no StateSpace), so a
// fixpoint-only change must leave it unchanged.
std::vector<Workload> workloads() {
  return {
      {"paper_seq",
       {EngineKind::kItp, EngineKind::kItpseq, EngineKind::kSitpseq,
        EngineKind::kItpseqCba},
       0.25, paper_suite, 0.25},
      {"seq_large",
       {EngineKind::kItp, EngineKind::kItpseq, EngineKind::kSitpseq,
        EngineKind::kItpseqCba},
       1.5, large_suite, 1.5},
      {"pdr_suite",
       {EngineKind::kPdr},
       5.0,
       [](std::uint64_t seed) {
         std::vector<Instance> v = paper_suite(seed);
         for (Instance& i : large_suite(seed)) v.push_back(std::move(i));
         return v;
       },
       // No ITPSEQ job to compare with: the replay only gives the layer
       // split of the sequence engines on the same instances, at
       // paper_seq's budget.
       0.25},
  };
}

enum class Outcome { kSolved, kUnsolved, kFailed };

struct JobRecord {
  EngineKind engine;
  const Instance* inst;
  mc::EngineResult result;
  mc::PdrStats pdr;
  double cpu_s = 0.0;
  double certify_s = 0.0;
  double sim_s = 0.0;
  double peak_rss_mb = 0.0;  // process peak while the job ran
  Outcome outcome = Outcome::kUnsolved;
  const char* evidence = "none";  // which check ran: certificate or trace
  std::string problem;            // why a failed job failed
};

mc::EngineResult run_engine(EngineKind e, const Instance& inst,
                            const mc::EngineOptions& opts, mc::PdrStats& pdr) {
  switch (e) {
    case EngineKind::kItp: return mc::check_itp(inst.model, 0, opts);
    case EngineKind::kItpseq: return mc::check_itpseq(inst.model, 0, opts);
    case EngineKind::kSitpseq: return mc::check_sitpseq(inst.model, 0, opts);
    case EngineKind::kItpseqCba:
      return mc::check_itpseq_cba(inst.model, 0, opts);
    case EngineKind::kPdr: {
      mc::PdrEngine eng(inst.model, 0, opts);
      mc::EngineResult r = eng.run();
      pdr = eng.pdr_stats();
      return r;
    }
  }
  return {};
}

// Run one job and check its evidence.
JobRecord run_job(EngineKind e, const Instance& inst,
                  const mc::EngineOptions& opts) {
  JobRecord rec;
  rec.engine = e;
  rec.inst = &inst;
  // Hand freed heap back and restart the high-water mark, so that the
  // peak read after the job is this job's, not an earlier one's.
  malloc_trim(0);
  reset_hwm();
  double c0 = thread_cpu();
  rec.result = run_engine(e, inst, opts, rec.pdr);
  rec.cpu_s = thread_cpu() - c0;
  rec.peak_rss_mb = peak_rss_mb();

  const mc::EngineResult& r = rec.result;
  auto fail = [&](std::string why) {
    rec.outcome = Outcome::kFailed;
    rec.problem = std::move(why);
  };
  switch (r.verdict) {
    case mc::Verdict::kUnknown:
      rec.outcome = Outcome::kUnsolved;
      break;
    case mc::Verdict::kError:
      fail(std::string("error ") + mc::to_string(r.error.kind) + ": " +
           r.error.message);
      break;
    case mc::Verdict::kPass: {
      if (inst.expected != bc::Expected::kPass) {
        fail("PASS contradicts the known verdict");
        break;
      }
      if (!r.certificate) {
        fail("PASS without a certificate");
        break;
      }
      double t0 = thread_cpu();
      mc::CertifyResult cr = mc::check_certificate(inst.model, 0, *r.certificate);
      rec.certify_s = thread_cpu() - t0;
      rec.evidence = "certificate";
      if (!cr.ok) fail("certificate rejected: " + cr.error);
      else rec.outcome = Outcome::kSolved;
      break;
    }
    case mc::Verdict::kFail: {
      if (inst.expected != bc::Expected::kFail) {
        fail("FAIL contradicts the known verdict");
        break;
      }
      double t0 = thread_cpu();
      bool ok = mc::trace_is_cex(inst.model, r.cex, 0);
      rec.sim_s = thread_cpu() - t0;
      rec.evidence = "trace";
      if (!ok) fail("trace does not reach bad");
      else rec.outcome = Outcome::kSolved;
      break;
    }
  }
  return rec;
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kSolved: return "solved";
    case Outcome::kUnsolved: return "unsolved";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

// Totals of one pass over every job of a workload.
struct PassTotals {
  double solved = 0, failed = 0, cpu_s = 0, par2_s = 0;
  double certify_s = 0, sim_s = 0;
  mc::EngineStats stats;
  mc::PdrStats pdr;
  double unsolved_bound_sum = 0;
  std::map<std::string, double> per_engine_solved, per_engine_cpu;
};

void add(PassTotals& t, const JobRecord& j, double cap) {
  const char* key = engine_key(j.engine);
  t.per_engine_cpu[key] += j.cpu_s;
  t.cpu_s += j.cpu_s;
  t.certify_s += j.certify_s;
  t.sim_s += j.sim_s;
  switch (j.outcome) {
    case Outcome::kSolved:
      t.solved += 1;
      t.per_engine_solved[key] += 1;
      t.par2_s += j.cpu_s;
      break;
    case Outcome::kUnsolved:
      t.par2_s += 2 * cap;
      t.unsolved_bound_sum += j.result.k_fp;
      break;
    case Outcome::kFailed:
      t.failed += 1;
      t.par2_s += 2 * cap;
      break;
  }
  t.stats += j.result.stats;
  t.pdr.queries += j.pdr.queries;
  t.pdr.obligations += j.pdr.obligations;
  t.pdr.lemmas += j.pdr.lemmas;
  t.pdr.lemma_literals += j.pdr.lemma_literals;
  t.pdr.lift_dropped += j.pdr.lift_dropped;
  t.pdr.ctg_blocked += j.pdr.ctg_blocked;
}

// `s` as the body of a JSON string.
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out;
}

void write_row(std::FILE* f, const Workload& w, std::uint64_t seed,
               unsigned pass, const JobRecord& j) {
  if (f == nullptr) return;
  const mc::EngineResult& r = j.result;
  const mc::EngineStats& s = r.stats;
  std::fprintf(
      f,
      "{\"workload\":\"%s\",\"seed\":%llu,\"pass\":%u,\"engine\":\"%s\","
      "\"instance\":\"%s\",\"family\":\"%s\",\"latches\":%zu,\"ands\":%zu,"
      "\"expected\":\"%s\",\"verdict\":\"%s\",\"outcome\":\"%s\","
      "\"evidence\":\"%s\",\"peak_rss_mb\":%.3f,"
      "\"k_fp\":%u,\"j_fp\":%u,\"cpu_s\":%.6f,\"cap_s\":%.3f,"
      "\"certify_s\":%.6f,\"sim_s\":%.6f,\"sat_solvers\":%llu,"
      "\"sat_conflicts\":%llu,\"sat_propagations\":%llu,"
      "\"sat_bin_propagations\":%llu,\"sat_inprocess_rounds\":%llu,"
      "\"sat_vars_eliminated\":%llu,\"sat_arena_peak\":%zu,"
      "\"proof_clauses\":%llu,\"max_itp_nodes\":%zu,\"state_aig_nodes\":%zu,"
      "\"cba_refinements\":%u,\"pdr_queries\":%llu,\"pdr_obligations\":%llu,"
      "\"pdr_lemmas\":%llu,\"pdr_lemma_literals\":%llu,"
      "\"pdr_lift_dropped\":%llu,\"pdr_ctg_blocked\":%llu,\"problem\":\"%s\"}\n",
      w.name, static_cast<unsigned long long>(seed), pass, engine_key(j.engine),
      j.inst->name.c_str(), j.inst->family.c_str(), j.inst->model.num_latches(),
      j.inst->model.num_ands(),
      j.inst->expected == bc::Expected::kPass   ? "PASS"
      : j.inst->expected == bc::Expected::kFail ? "FAIL"
                                                : "OPEN",
      mc::to_string(r.verdict), outcome_name(j.outcome), j.evidence, j.peak_rss_mb, r.k_fp,
      r.j_fp,
      j.cpu_s, w.cap, j.certify_s, j.sim_s,
      static_cast<unsigned long long>(s.sat_calls),
      static_cast<unsigned long long>(s.sat_conflicts),
      static_cast<unsigned long long>(s.sat_propagations),
      static_cast<unsigned long long>(s.sat_bin_propagations),
      static_cast<unsigned long long>(s.sat_inprocess_rounds),
      static_cast<unsigned long long>(s.sat_vars_eliminated), s.sat_arena_peak,
      static_cast<unsigned long long>(s.proof_clauses), s.max_itp_nodes,
      s.state_aig_nodes, s.cba_refinements,
      static_cast<unsigned long long>(j.pdr.queries),
      static_cast<unsigned long long>(j.pdr.obligations),
      static_cast<unsigned long long>(j.pdr.lemmas),
      static_cast<unsigned long long>(j.pdr.lemma_literals),
      static_cast<unsigned long long>(j.pdr.lift_dropped),
      static_cast<unsigned long long>(j.pdr.ctg_blocked),
      json_escape(j.problem).c_str());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// ITPSEQ's untraced result on one instance, for the replay's agreement
// check and its overhead.
struct ItpseqRun {
  mc::Verdict verdict = mc::Verdict::kUnknown;
  unsigned k_fp = 0, j_fp = 0;
  double cpu_s = 0.0;
};

struct PassLog {
  std::vector<PassTotals> passes;
  std::vector<std::string> failures;  // "instance engine: why"
  unsigned attempted = 0, failed = 0;
  std::vector<ItpseqRun> itpseq;  // first pass, per instance
  // Peak RSS of every job that ended with a verdict, over all passes.
  // Capped jobs are left out: what they allocate depends on how far they
  // got within the cap, which measures speed, not memory.
  std::vector<double> decided_peak_rss_mb;
};

// Closed loop over passes: another pass starts only if the last pass's
// duration still fits in `seconds`; at least one pass runs.  `between_jobs`
// runs after every job, outside the jobs' measurements.
PassLog run_passes(const Workload& w, const std::vector<Instance>& insts,
                   std::uint64_t seed, double seconds, std::FILE* rows,
                   const std::function<void()>& between_jobs) {
  mc::EngineOptions opts;
  opts.time_limit_sec = w.cap;
  PassLog log;
  log.itpseq.resize(insts.size());
  double t_start = wall(), last_pass = 0.0;
  for (unsigned p = 0; p == 0 || wall() - t_start + last_pass <= seconds; ++p) {
    double p0 = wall();
    PassTotals t;
    for (std::size_t i = 0; i < insts.size(); ++i)
      for (EngineKind e : w.engines) {
        JobRecord j = run_job(e, insts[i], opts);
        ++log.attempted;
        if (j.outcome == Outcome::kFailed) {
          ++log.failed;
          log.failures.push_back(insts[i].name + " " + engine_key(e) + ": " +
                                 j.problem);
        }
        add(t, j, w.cap);
        if (j.outcome != Outcome::kUnsolved)
          log.decided_peak_rss_mb.push_back(j.peak_rss_mb);
        write_row(rows, w, seed, p, j);
        if (p == 0 && e == EngineKind::kItpseq)
          log.itpseq[i] = {j.result.verdict, j.result.k_fp, j.result.j_fp,
                           j.cpu_s};
        between_jobs();
      }
    log.passes.push_back(std::move(t));
    last_pass = wall() - p0;
  }
  return log;
}

std::vector<Metric> end_to_end(const PassLog& log,
                               const std::vector<double>& setup_times) {
  auto med = [&](double PassTotals::*field) {
    std::vector<double> v;
    for (const PassTotals& t : log.passes) v.push_back(t.*field);
    return median(v);
  };
  return {
      {"solved", med(&PassTotals::solved), "count"},
      // 1 - failed_share: a share that is never 0, so it has a ratio bound.
      {"sound_share",
       1.0 - static_cast<double>(log.failed) / static_cast<double>(log.attempted),
       "share"},
      {"cpu_s", med(&PassTotals::cpu_s), "s"},
      {"par2_s", med(&PassTotals::par2_s), "s"},
      // The 90th percentile over decided jobs: the few largest jobs of a
      // seeded family flip between decided and capped with the seed and
      // with machine speed, which would make the maximum measure those.
      {"peak_rss_mb", quantile(log.decided_peak_rss_mb, 0.9), "MB"},
      {"setup_s", median(setup_times), "s"},
  };
}

// Counters of one untraced pass, read from the engines' own statistics.
std::vector<Metric> engine_layers(const PassTotals& t) {
  const mc::EngineStats& s = t.stats;
  auto d = [](auto x) { return static_cast<double>(x); };
  std::vector<Metric> m = {
      {"sat.solvers", d(s.sat_calls), "count"},
      {"sat.conflicts", d(s.sat_conflicts), "count"},
      {"sat.propagations", d(s.sat_propagations), "count"},
      {"sat.bin_prop_share",
       s.sat_propagations ? d(s.sat_bin_propagations) / d(s.sat_propagations)
                          : 0.0,
       "share"},
      {"sat.inprocess_rounds", d(s.sat_inprocess_rounds), "count"},
      {"sat.vars_eliminated", d(s.sat_vars_eliminated), "count"},
      {"sat.arena_peak_mb", d(s.sat_arena_peak) / (1024.0 * 1024.0), "MB"},
      {"mc.state_aig_nodes", d(s.state_aig_nodes), "count"},
      {"itp.proof_clauses", d(s.proof_clauses), "count"},
      {"itp.max_nodes", d(s.max_itp_nodes), "count"},
      {"mc.cba_refinements", d(s.cba_refinements), "count"},
      {"mc.unsolved_bound_sum", t.unsolved_bound_sum, "count"},
      {"mc.failed_jobs", t.failed, "count"},
      {"pdr.queries", d(t.pdr.queries), "count"},
      {"pdr.obligations", d(t.pdr.obligations), "count"},
      {"pdr.lemmas", d(t.pdr.lemmas), "count"},
      {"pdr.lemma_literals", d(t.pdr.lemma_literals), "count"},
      {"pdr.lift_dropped", d(t.pdr.lift_dropped), "count"},
      {"pdr.ctg_blocked", d(t.pdr.ctg_blocked), "count"},
      {"mc.certify_s", t.certify_s, "s"},
      {"mc.sim_s", t.sim_s, "s"},
  };
  // Fig. 6 columns.  CPU as a share of the pass, so that an engine a
  // workload does not run reads 0 of a share rather than 0 seconds.
  for (const char* e : {"itp", "itpseq", "sitpseq", "itpseq_cba"}) {
    auto si = t.per_engine_solved.find(e);
    auto ci = t.per_engine_cpu.find(e);
    m.push_back({std::string(e) + ".solved",
                 si == t.per_engine_solved.end() ? 0.0 : si->second, "count"});
    m.push_back({std::string(e) + ".cpu_share",
                 ci == t.per_engine_cpu.end() || t.cpu_s <= 0
                     ? 0.0
                     : ci->second / t.cpu_s,
                 "share"});
  }
  return m;
}

// Traced replay of ITPSEQ over the workload's instances.  Where ITPSEQ ran
// untraced too, every job both decide must agree on verdict, k_fp and j_fp.
std::vector<Metric> replay_layers(const Workload& w,
                                  const std::vector<Instance>& insts,
                                  const std::vector<ItpseqRun>& itpseq,
                                  const std::string& spans_path,
                                  std::vector<std::string>& failures) {
  bool compare = std::count(w.engines.begin(), w.engines.end(),
                            EngineKind::kItpseq) > 0;
  mc::EngineOptions opts;
  opts.time_limit_sec = w.replay_cap;
  SpanLog log;
  double replay_cpu = 0.0, engine_cpu = 0.0;
  unsigned disagreements = 0, both_decided = 0;
  auto decided = [](mc::Verdict v) {
    return v == mc::Verdict::kPass || v == mc::Verdict::kFail;
  };
  for (std::size_t i = 0; i < insts.size(); ++i) {
    log.set_job(static_cast<std::uint32_t>(i));
    std::size_t first_span = log.spans().size();
    double c0 = thread_cpu();
    ReplayResult rr = replay_itpseq(insts[i].model, opts, log);
    double cpu = thread_cpu() - c0;
    if (rr.verdict == mc::Verdict::kPass && !rr.certified)
      failures.push_back(insts[i].name + " replay: certificate rejected");
    const ItpseqRun& eng = itpseq[i];
    if (!compare || !decided(rr.verdict) || !decided(eng.verdict)) continue;
    ++both_decided;
    // The engine does not check its own certificate; the replay does.
    for (std::size_t k = first_span; k < log.spans().size(); ++k)
      if (std::string("mc.certify") == log.spans()[k].name)
        cpu -= log.spans()[k].end - log.spans()[k].start;
    replay_cpu += cpu;
    engine_cpu += eng.cpu_s;
    if (rr.verdict != eng.verdict || rr.k_fp != eng.k_fp || rr.j_fp != eng.j_fp) {
      ++disagreements;
      failures.push_back(
          insts[i].name + " replay disagrees with itpseq: " +
          mc::to_string(rr.verdict) + " k_fp=" + std::to_string(rr.k_fp) +
          " j_fp=" + std::to_string(rr.j_fp) + " vs " +
          mc::to_string(eng.verdict) + " k_fp=" + std::to_string(eng.k_fp) +
          " j_fp=" + std::to_string(eng.j_fp));
    }
  }
  if (!log.write_jsonl(spans_path))
    std::fprintf(stderr, "paperbench: cannot write %s\n", spans_path.c_str());

  std::vector<Metric> m;
  double total = log.total("itpseq.replay");
  struct Layer {
    const char* span;
    const char* metric;
  };
  for (const Layer& l :
       {Layer{"cnf.encode", "cnf.encode"}, Layer{"sat.solve", "sat.search"},
        Layer{"itp.extract", "itp.extract"},
        Layer{"mc.state_space.implies", "mc.state_space.implies"},
        Layer{"mc.state_space.init_pred", "mc.state_space.init_pred"},
        Layer{"aig.compact", "aig.compact"},
        Layer{"mc.certify", "trace.certify"}}) {
    double x = log.total(l.span);
    m.push_back({std::string(l.metric) + "_s", x, "s"});
    m.push_back({std::string(l.metric) + "_share", total > 0 ? x / total : 0.0,
                 "share"});
  }
  auto d = [](auto x) { return static_cast<double>(x); };
  m.push_back({"sat.bmc_solves", d(log.count("sat.solve")), "count"});
  m.push_back({"mc.state_space.implies_calls",
               d(log.count("mc.state_space.implies")), "count"});
  m.push_back({"trace.replay_s", total, "s"});
  m.push_back({"trace.spans", d(log.spans().size()), "count"});
  m.push_back({"trace.jobs_both_decided", d(both_decided), "count"});
  m.push_back({"trace.disagreements", d(disagreements), "count"});
  m.push_back({"trace.overhead_share",
               engine_cpu > 0 ? replay_cpu / engine_cpu - 1.0 : 0.0, "share"});
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  std::string out = ".bench_out";
  bool check_suite = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--check-suite") {
      a.check_suite = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else {
      return false;
    }
  }
  return a.check_suite || !a.workload.empty();
}

int run(const Args& args) {
  std::vector<Workload> all = workloads();
  auto wit = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return args.workload == w.name;
  });
  if (wit == all.end()) {
    std::fprintf(stderr, "paperbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *wit;

  // Set-up: the instances are generated before the first job and again
  // between jobs, about every seconds/kSetupReps of the measuring time;
  // setup_s is the median CPU of these generations.  Spreading them over
  // the run keeps one slow or fast moment of the machine from deciding it.
  constexpr int kSetupReps = 15;
  std::vector<double> setup_times;
  auto generate = [&] {
    double t0 = thread_cpu();
    std::vector<Instance> v = w.instances(args.seed);
    setup_times.push_back(thread_cpu() - t0);
    return v;
  };
  std::vector<Instance> insts = generate();
  double next_setup = wall() + args.seconds / kSetupReps;
  auto between_jobs = [&] {
    if (args.trace == 1 || wall() < next_setup) return;
    generate();
    next_setup = wall() + args.seconds / kSetupReps;
  };

  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  std::string stem = args.out + "/" + w.name + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     std::to_string(args.trace);
  std::FILE* rows = std::fopen((stem + ".rows.jsonl").c_str(), "w");
  if (rows == nullptr)
    std::fprintf(stderr, "paperbench: cannot write %s.rows.jsonl\n", stem.c_str());
  // Traced: one untraced pass for the engine counters, then the replay.
  PassLog log =
      run_passes(w, insts, args.seed, args.trace ? 0.0 : args.seconds, rows,
                 between_jobs);
  if (rows != nullptr) std::fclose(rows);

  std::vector<Metric> metrics;
  std::vector<std::string> failures = log.failures;
  if (args.trace == 0) {
    metrics = end_to_end(log, setup_times);
  } else {
    metrics = engine_layers(log.passes.front());
    for (Metric& m :
         replay_layers(w, insts, log.itpseq, stem + ".spans.jsonl", failures))
      metrics.push_back(std::move(m));
  }
  bool correct = failures.empty();

  // Human-readable lines first; the JSON summary must be the last line.
  std::printf("workload %s seed %llu: %zu instances x %zu engines, %zu pass(es), "
              "cap %.2fs\n",
              w.name, static_cast<unsigned long long>(args.seed), insts.size(),
              w.engines.size(), log.passes.size(), w.cap);
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%u,\"failed\":%u,\"metrics\":{",
              correct ? "true" : "false", log.attempted, log.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  paperbench::Args args;
  if (!paperbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: paperbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n       paperbench --check-suite\n");
    return 2;
  }
  if (args.check_suite) {
    std::string bad = paperbench::check_seed0_matches_make_suite();
    if (!bad.empty()) {
      std::printf("seed 0 differs from bench::make_suite() at %s\n", bad.c_str());
      return 1;
    }
    std::printf("seed 0 reproduces bench::make_suite()\n");
    return 0;
  }
  return paperbench::run(args);
}
