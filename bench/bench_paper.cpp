// bench_paper.cpp — the paper's tables and the Section III-V ablations from
// one preset table.
//
// A preset is an instance filter plus a list of columns; a column is an
// engine entry point plus an edit of the default EngineOptions.  Every
// preset prints one row per instance (cell = time[s] (k_fp,j_fp), or
// ovf (k) when the budget ran out at bound k) and one summary per column:
// solved count, total time (unsolved cells count the budget), the sorted
// per-instance times (Fig. 6's series), the EngineStats totals, and for
// every column after the first its wins/losses/ties and geometric-mean
// speed-up against the first column (Fig. 7, the BMC speed-up).
//
// Every decided cell is checked: the verdict against the instance's known
// one, a PASS certificate with mc::check_certificate, a FAIL trace with
// mc::trace_is_cex.  The BDD columns are exact but carry no evidence, so
// only their verdict is checked.  A cell that fails a check prints WRONG
// and the driver exits 1.
//
// Usage: bench_paper <preset> [seconds] [family_filter]
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bdd/reach.hpp"
#include "bench_circuits/suite.hpp"
#include "mc/certify.hpp"
#include "mc/engine.hpp"
#include "mc/itpseq_verif.hpp"
#include "mc/sim.hpp"

using namespace itpseq;

namespace {

using Entry = mc::EngineResult (*)(const bench::Instance&,
                                   const mc::EngineOptions&);
using Edit = void (*)(mc::EngineOptions&);

struct Column {
  const char* label;
  Entry entry;
  Edit edit = nullptr;
  bool evidence = true;  // false: the entry emits no certificate or trace
};

enum class Filter : std::uint8_t { kAll, kAcademic, kIndustrial, kFail };

struct Preset {
  const char* name;
  const char* what;
  Filter filter;
  std::vector<Column> columns;
};

template <auto Check>
mc::EngineResult call(const bench::Instance& inst, const mc::EngineOptions& o) {
  return Check(inst.model, 0, o);
}

template <mc::AbstractionMode Mode>
mc::EngineResult seq(const bench::Instance& inst, const mc::EngineOptions& o) {
  return mc::ItpSeqEngine(inst.model, 0, o, Mode).run();
}

/// Table I's BDD columns: k_fp is the diameter on PASS and the
/// counterexample depth on FAIL; j_fp is the number of image steps to the
/// fixpoint.  Industrial instances are not attempted (ovf), as in the paper.
template <bdd::ReachResult (*Reach)(bdd::SymbolicModel&, const bdd::ReachBudget&)>
mc::EngineResult bdd_reach(const bench::Instance& inst,
                           const mc::EngineOptions& o) {
  mc::EngineResult r;
  if (inst.industrial) return r;
  bdd::ReachBudget rb;
  rb.seconds = o.time_limit_sec;
  try {
    bdd::SymbolicModel m(inst.model, rb.node_limit);
    bdd::ReachResult b = Reach(m, rb);
    r.seconds = b.seconds;
    if (b.verdict == bdd::ReachVerdict::kPass) {
      r.verdict = mc::Verdict::kPass;
      r.k_fp = b.diameter.value_or(0);
      r.j_fp = b.depth;
    } else if (b.verdict == bdd::ReachVerdict::kFail) {
      r.verdict = mc::Verdict::kFail;
      r.k_fp = b.depth;
    }
  } catch (const bdd::BddOverflow&) {
    // ovf
  }
  return r;
}

/// The paper's SITPSEQ setting of the serial fraction.
void paper_alpha(mc::EngineOptions& o) { o.serial_alpha = 0.5; }

const std::vector<Preset>& presets() {
  using mc::AbstractionMode;
  static const std::vector<Preset> table = {
      {"table1", "Table I / Fig. 6: the four engines and BDD diameters",
       Filter::kAll,
       {{"ITP", call<mc::check_itp>},
        {"ITPSEQ", call<mc::check_itpseq>},
        {"SITPSEQ", call<mc::check_sitpseq>},
        {"ITPSEQ+CBA", call<mc::check_itpseq_cba>},
        {"BDD-dF", bdd_reach<bdd::forward_reach>, nullptr, false},
        {"BDD-dB", bdd_reach<bdd::backward_reach>, nullptr, false}}},
      {"fig7", "Fig. 7: ITPSEQ with exact-k vs assume-k checks", Filter::kAll,
       {{"exact-k", call<mc::check_itpseq>,
         [](mc::EngineOptions& o) { o.scheme = cnf::TargetScheme::kExact; }},
        {"assume-k", call<mc::check_itpseq>, [](mc::EngineOptions& o) {
           o.scheme = cnf::TargetScheme::kExactAssume;
         }}}},
      {"alpha", "Fig. 4: serial fraction alpha_s of SITPSEQ", Filter::kAll,
       {{"a=0", seq<AbstractionMode::kNone>,
         [](mc::EngineOptions& o) { o.serial_alpha = 0.0; }},
        {"a=0.25", seq<AbstractionMode::kNone>,
         [](mc::EngineOptions& o) { o.serial_alpha = 0.25; }},
        {"a=0.5", seq<AbstractionMode::kNone>, paper_alpha},
        {"a=0.75", seq<AbstractionMode::kNone>,
         [](mc::EngineOptions& o) { o.serial_alpha = 0.75; }},
        {"a=1", seq<AbstractionMode::kNone>,
         [](mc::EngineOptions& o) { o.serial_alpha = 1.0; }}}},
      {"itpsys", "interpolation system: McMillan / Pudlak / inverse McMillan",
       Filter::kAcademic,
       {{"ITP/mcm", call<mc::check_itp>,
         [](mc::EngineOptions& o) { o.itp_system = itp::System::kMcMillan; }},
        {"ITP/pud", call<mc::check_itp>,
         [](mc::EngineOptions& o) { o.itp_system = itp::System::kPudlak; }},
        {"ITP/inv", call<mc::check_itp>,
         [](mc::EngineOptions& o) {
           o.itp_system = itp::System::kInverseMcMillan;
         }},
        {"SEQ/mcm", call<mc::check_itpseq>,
         [](mc::EngineOptions& o) { o.itp_system = itp::System::kMcMillan; }},
        {"SEQ/pud", call<mc::check_itpseq>,
         [](mc::EngineOptions& o) { o.itp_system = itp::System::kPudlak; }},
        {"SEQ/inv", call<mc::check_itpseq>, [](mc::EngineOptions& o) {
           o.itp_system = itp::System::kInverseMcMillan;
         }}}},
      {"partitioned", "Section III: bound-k ITP vs partitioned interpolants",
       Filter::kAll,
       {{"ITP bound-k", call<mc::check_itp>},
        {"PART exact", call<mc::check_itp>,
         [](mc::EngineOptions& o) {
           o.itp_partitioned = true;
           o.scheme = cnf::TargetScheme::kExact;
         }},
        {"PART assume", call<mc::check_itp>, [](mc::EngineOptions& o) {
           o.itp_partitioned = true;
           o.scheme = cnf::TargetScheme::kExactAssume;
         }}}},
      {"fraig", "ITPSEQ without and with interpolant fraiging", Filter::kAll,
       {{"plain", call<mc::check_itpseq>,
         [](mc::EngineOptions& o) { o.fraig_interpolants = false; }},
        {"fraig", call<mc::check_itpseq>,
         [](mc::EngineOptions& o) { o.fraig_interpolants = true; }}}},
      {"abstraction", "Section V: none / CBA / PBA / CBA+PBA at alpha_s=0.5",
       Filter::kIndustrial,
       {{"none", seq<AbstractionMode::kNone>, paper_alpha},
        {"CBA", seq<AbstractionMode::kCba>, paper_alpha},
        {"PBA", seq<AbstractionMode::kPba>, paper_alpha},
        {"CBA+PBA", seq<AbstractionMode::kCbaPba>, paper_alpha}}},
      {"bmc", "monolithic vs incremental BMC on the FAIL instances",
       Filter::kFail,
       {{"monolithic", call<mc::check_bmc>,
         [](mc::EngineOptions& o) {
           o.max_bound = 100;
           o.bmc_incremental = false;
         }},
        {"incremental", call<mc::check_bmc>, [](mc::EngineOptions& o) {
           o.max_bound = 100;
           o.bmc_incremental = true;
         }}}},
  };
  return table;
}

bool selected(const bench::Instance& inst, Filter f, const std::string& family) {
  if (!family.empty() && inst.family.find(family) == std::string::npos &&
      inst.name.find(family) == std::string::npos)
    return false;
  switch (f) {
    case Filter::kAll: return true;
    case Filter::kAcademic: return !inst.industrial;
    case Filter::kIndustrial: return inst.industrial;
    case Filter::kFail: return inst.expected == bench::Expected::kFail;
  }
  return false;
}

/// Empty when the decided cell checks out, else what is wrong with it.
std::string check(const bench::Instance& inst, const Column& col,
                  const mc::EngineResult& r) {
  bool pass = r.verdict == mc::Verdict::kPass;
  if (inst.expected != bench::Expected::kOpen &&
      pass != (inst.expected == bench::Expected::kPass))
    return std::string(mc::to_string(r.verdict)) + " contradicts the known verdict";
  if (!col.evidence) return "";
  if (pass) {
    if (!r.certificate) return "PASS without a certificate";
    mc::CertifyResult cr = mc::check_certificate(inst.model, 0, *r.certificate);
    return cr.ok ? "" : "certificate rejected: " + cr.error;
  }
  return mc::trace_is_cex(inst.model, r.cex, 0) ? "" : "trace does not reach bad";
}

struct Tally {
  unsigned solved = 0;
  double total = 0;
  std::vector<double> times;  // per instance; unsolved cells count the budget
  mc::EngineStats stats;
};

void print_summary(const Preset& p, const std::vector<Tally>& tally,
                   double limit) {
  std::printf("# summary (budget %.2fs; unsolved cells count the budget)\n",
              limit);
  const std::vector<double>& ref = tally[0].times;
  for (std::size_t c = 0; c < tally.size(); ++c) {
    const Tally& t = tally[c];
    const mc::EngineStats& s = t.stats;
    std::printf("# %-12s solved=%u/%zu total=%.2fs\n", p.columns[c].label,
                t.solved, t.times.size(), t.total);
    std::vector<double> sorted = t.times;
    std::sort(sorted.begin(), sorted.end());
    std::printf("#   sorted[s]:");
    for (double x : sorted) std::printf(" %.4f", x);
    std::printf("\n");
    std::printf(
        "#   sat_calls=%llu conflicts=%llu propagations=%llu "
        "proof_clauses=%llu max_itp_nodes=%zu state_aig_nodes=%zu "
        "fixpoint_checks=%llu fixpoint_solvers=%llu "
        "visible_latches=%u refinements=%u\n",
        static_cast<unsigned long long>(s.sat_calls),
        static_cast<unsigned long long>(s.sat_conflicts),
        static_cast<unsigned long long>(s.sat_propagations),
        static_cast<unsigned long long>(s.proof_clauses), s.max_itp_nodes,
        s.state_aig_nodes, static_cast<unsigned long long>(s.fixpoint_checks),
        static_cast<unsigned long long>(s.fixpoint_solvers),
        s.cba_visible_latches, s.cba_refinements);
    if (c == 0) continue;
    // Wins/losses only above measurement noise: a delta under 20% (plus
    // 10 ms) is a tie.
    unsigned wins = 0, losses = 0, ties = 0, ratios = 0;
    double log_sum = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      double a = ref[i], b = t.times[i];
      double margin = 0.2 * std::max(a, b) + 0.01;
      if (b + margin < a) ++wins;
      else if (a + margin < b) ++losses;
      else ++ties;
      if (a > 1e-6 && b > 1e-6) {
        log_sum += std::log(a / b);
        ++ratios;
      }
    }
    std::printf("#   vs %s: faster=%u slower=%u ties=%u geomean speed-up=%.3fx\n",
                p.columns[0].label, wins, losses, ties,
                ratios ? std::exp(log_sum / ratios) : 1.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Preset* p = nullptr;
  for (const Preset& q : presets())
    if (argc > 1 && q.name == std::string(argv[1])) p = &q;
  if (p == nullptr) {
    std::fprintf(stderr, "usage: %s <preset> [seconds] [family_filter]\n",
                 argv[0]);
    for (const Preset& q : presets())
      std::fprintf(stderr, "  %-12s %s\n", q.name, q.what);
    return 2;
  }
  double limit = argc > 2 ? std::atof(argv[2]) : 5.0;
  std::string family = argc > 3 ? argv[3] : "";

  std::printf("# %s — %s (budget %.2fs)\n", p->name, p->what, limit);
  std::printf("# cell = time[s] (k_fp,j_fp) or ovf (k)\n");
  std::printf("%-18s %4s %5s", "# instance", "#PI", "#FF");
  for (const Column& col : p->columns) std::printf("  %-18s", col.label);
  std::printf("\n");

  std::vector<Tally> tally(p->columns.size());
  unsigned wrong = 0;
  for (const bench::Instance& inst : bench::make_suite()) {
    if (!selected(inst, p->filter, family)) continue;
    std::printf("%-18s %4zu %5zu", inst.name.c_str(), inst.model.num_inputs(),
                inst.model.num_latches());
    for (std::size_t c = 0; c < p->columns.size(); ++c) {
      const Column& col = p->columns[c];
      mc::EngineOptions opts;
      opts.time_limit_sec = limit;
      if (col.edit != nullptr) col.edit(opts);
      mc::EngineResult r = col.entry(inst, opts);
      bool decided =
          r.verdict == mc::Verdict::kPass || r.verdict == mc::Verdict::kFail;
      std::string problem = decided ? check(inst, col, r) : "";
      char cell[48];
      if (!problem.empty()) {
        std::snprintf(cell, sizeof cell, "WRONG");
        std::fprintf(stderr, "WRONG %s/%s: %s\n", inst.name.c_str(), col.label,
                     problem.c_str());
        ++wrong;
      } else if (decided) {
        std::snprintf(cell, sizeof cell, "%.3f (%u,%u)", r.seconds, r.k_fp,
                      r.j_fp);
      } else if (r.verdict == mc::Verdict::kUnknown) {
        std::snprintf(cell, sizeof cell, "ovf (%u)", r.k_fp);
      } else {
        std::snprintf(cell, sizeof cell, "err");
      }
      std::printf("  %-18s", cell);
      Tally& t = tally[c];
      bool solved = decided && problem.empty();
      t.solved += solved;
      t.times.push_back(solved ? r.seconds : limit);
      t.total += t.times.back();
      t.stats += r.stats;
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  print_summary(*p, tally, limit);
  if (wrong > 0) std::printf("# %u WRONG cell(s)\n", wrong);
  return wrong > 0 ? 1 : 0;
}
