#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>

#include "aig/compact.hpp"
#include "cnf/unroller.hpp"
#include "itp/interpolate.hpp"
#include "mc/certify.hpp"
#include "mc/state_space.hpp"
#include "sat/solver.hpp"

namespace paperbench {

namespace aig = itpseq::aig;
namespace cnf = itpseq::cnf;
namespace mc = itpseq::mc;
namespace sat = itpseq::sat;
using mc::Verdict;

namespace {

class Replay {
 public:
  Replay(const aig::Aig& model, const mc::EngineOptions& opts, SpanLog& log)
      : model_(model), opts_(opts), log_(log), space_(model) {}

  ReplayResult run() {
    SpanLog::Scope job(log_, "itpseq.replay");
    ReplayResult out;
    if (model_.num_outputs() == 0 || model_.output(0) == aig::kFalse) {
      out.verdict = Verdict::kPass;
      return out;
    }
    if (!depth0(out)) bound_loop(out);
    return out;
  }

 private:
  double remaining() const {
    double used = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    return std::max(0.0, opts_.time_limit_sec - used);
  }
  sat::Budget budget() const {
    sat::Budget b;
    b.seconds = remaining();
    return b;
  }
  sat::Status solve(sat::Solver& s) {
    SpanLog::Scope sp(log_, "sat.solve");
    return s.solve(budget());
  }

  // Engine::preliminary_checks: S0 AND bad(V^0).
  bool depth0(ReplayResult& out) {
    sat::Solver solver;
    {
      SpanLog::Scope sp(log_, "cnf.encode");
      opts_.apply_sat_options(solver);
      cnf::Unroller unr(model_, solver);
      unr.assert_init(0);
      unr.assert_constraints(0, 0);
      solver.add_clause({unr.bad_lit(0, 0, 0)}, 0);
    }
    switch (solve(solver)) {
      case sat::Status::kSat:
        out.verdict = Verdict::kFail;
        return true;
      case sat::Status::kUnsat:
        return false;
      case sat::Status::kUnknown:
        break;
    }
    out.verdict = Verdict::kUnknown;
    return true;
  }

  struct Bmc {
    std::unique_ptr<sat::Solver> solver;
    std::unique_ptr<cnf::Unroller> unroller;
    sat::Status status = sat::Status::kUnknown;
  };

  // ItpSeqEngine::solve_shifted from the initial states, assume-k target.
  Bmc bmc(unsigned k) {
    Bmc b;
    {
      SpanLog::Scope sp(log_, "cnf.encode");
      b.solver = std::make_unique<sat::Solver>();
      opts_.apply_sat_options(*b.solver);
      b.solver->enable_proof();
      b.unroller = std::make_unique<cnf::Unroller>(model_, *b.solver);
      cnf::Unroller& unr = *b.unroller;
      unr.assert_init(1);
      for (unsigned t = 0; t < k; ++t) unr.add_transition(t, t + 1);
      for (unsigned t = 0; t <= k; ++t)
        unr.assert_constraints(t, std::min(t + 1, k + 1));
      for (unsigned t = 1; t < k; ++t)
        b.solver->add_clause({sat::neg(unr.bad_lit(t, t + 1, 0))}, t + 1);
      b.solver->add_clause({unr.bad_lit(k, k + 1, 0)}, k + 1);
    }
    b.status = solve(*b.solver);
    return b;
  }

  // ItpSeqEngine::extract_terms for cuts 1..k.
  std::vector<aig::Lit> extract(const Bmc& b, unsigned k) {
    SpanLog::Scope sp(log_, "itp.extract");
    aig::Aig& G = space_.graph();
    itpseq::itp::InterpolantExtractor ex(b.solver->proof());
    std::vector<std::unordered_map<sat::Var, aig::Lit>> leaf(k + 1);
    for (unsigned c = 1; c <= k; ++c)
      for (std::size_t i = 0; i < model_.num_latches(); ++i) {
        sat::Lit sl = b.unroller->lookup(model_.latch(i), c);
        if (sl != sat::kNoLit)
          leaf[c][sat::var(sl)] =
              aig::lit_xor(space_.latch_input(i), sat::sign(sl));
      }
    return ex.extract_sequence(
        G, 1, k,
        [&](std::uint32_t cut, sat::Var v) {
          auto it = leaf[cut].find(v);
          return it == leaf[cut].end() ? aig::kNullLit : it->second;
        },
        opts_.itp_system);
  }

  bool certify(aig::Lit r) {
    mc::Certificate cert;
    {
      SpanLog::Scope sp(log_, "aig.compact");
      aig::CompactResult c = aig::compact(space_.graph(), {r});
      cert = mc::Certificate{std::move(c.graph), c.roots[0]};
    }
    SpanLog::Scope sp(log_, "mc.certify");
    return mc::check_certificate(model_, 0, cert).ok;
  }

  // ItpSeqEngine::execute with serial_alpha = 0 and no abstraction.
  void bound_loop(ReplayResult& out) {
    aig::Aig& G = space_.graph();
    std::vector<aig::Lit> calI(1, aig::kNullLit);
    aig::Lit inv = aig::kTrue;
    for (unsigned k = 1; k <= opts_.max_bound; ++k) {
      out.k_fp = k;
      if (remaining() <= 0.0) {
        out.verdict = Verdict::kUnknown;
        return;
      }
      if (opts_.compact_threshold > 0 &&
          G.num_ands() > opts_.compact_threshold) {
        SpanLog::Scope sp(log_, "aig.compact");
        std::vector<aig::Lit*> roots;
        for (unsigned j = 1; j < calI.size(); ++j) roots.push_back(&calI[j]);
        roots.push_back(&inv);
        space_.compact(std::move(roots));
      }
      Bmc first = bmc(k);
      if (first.status == sat::Status::kUnknown) {
        out.verdict = Verdict::kUnknown;
        return;
      }
      if (first.status == sat::Status::kSat) {
        out.verdict = Verdict::kFail;
        out.j_fp = 0;
        return;
      }
      std::vector<aig::Lit> seq = extract(first, k);

      calI.resize(k + 1, aig::kTrue);
      for (unsigned j = 1; j < k; ++j) calI[j] = G.make_and(calI[j], seq[j - 1]);
      calI[k] = seq[k - 1];

      aig::Lit R;
      {
        SpanLog::Scope sp(log_, "mc.state_space.init_pred");
        R = space_.init_pred();
      }
      for (unsigned j = 1; j <= k; ++j) {
        mc::Implication imp;
        {
          SpanLog::Scope sp(log_, "mc.state_space.implies");
          imp = space_.implies(G.make_and(calI[j], inv), R, remaining());
        }
        if (imp == mc::Implication::kHolds) {
          out.verdict = Verdict::kPass;
          out.j_fp = j;
          out.certified = certify(G.make_and(R, inv));
          return;
        }
        if (imp == mc::Implication::kUnknown) {
          out.verdict = Verdict::kUnknown;
          return;
        }
        R = G.make_or(R, calI[j]);
      }
    }
    out.verdict = Verdict::kUnknown;
  }

  const aig::Aig& model_;
  const mc::EngineOptions& opts_;
  SpanLog& log_;
  mc::StateSpace space_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

}  // namespace

ReplayResult replay_itpseq(const aig::Aig& model, const mc::EngineOptions& opts,
                           SpanLog& log) {
  return Replay(model, opts, log).run();
}

}  // namespace paperbench
