#include "mc/engine.hpp"

#include <algorithm>
#include <ios>
#include <new>
#include <unordered_map>

#include "aig/compact.hpp"
#include "itp/interpolate.hpp"
#include "obs/trace.hpp"
#include "util/mem_budget.hpp"

namespace itpseq::mc {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kPass:
      return "PASS";
    case Verdict::kFail:
      return "FAIL";
    case Verdict::kUnknown:
      return "UNKNOWN";
    case Verdict::kError:
      return "ERROR";
  }
  return "?";
}

const char* to_string(ErrorKind k) {
  switch (k) {
    case ErrorKind::kNone:
      return "NONE";
    case ErrorKind::kOutOfMemory:
      return "OOM";
    case ErrorKind::kSolverLimit:
      return "SOLVER-LIMIT";
    case ErrorKind::kInternal:
      return "INTERNAL";
    case ErrorKind::kIoError:
      return "IO";
  }
  return "?";
}

ErrorInfo classify_exception(const std::exception& e) {
  ErrorInfo info;
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    info.kind = ErrorKind::kOutOfMemory;
    info.message = "out of memory";
    return info;
  }
  info.message = e.what();
  if (dynamic_cast<const std::ios_base::failure*>(&e) != nullptr ||
      info.message.rfind("aiger:", 0) == 0 ||
      info.message.rfind("blif:", 0) == 0 ||
      info.message.rfind("snapshot:", 0) == 0) {
    info.kind = ErrorKind::kIoError;
  } else {
    info.kind = ErrorKind::kInternal;
  }
  return info;
}

Engine::Engine(const aig::Aig& model, std::size_t prop, EngineOptions opts)
    : model_(model),
      prop_(prop),
      opts_(opts),
      space_(model),
      feed_(opts.exchange, opts.exchange_source) {}

EngineResult Engine::run() {
  start_ = std::chrono::steady_clock::now();
  // Tag every event this thread emits (including from the SAT core) with
  // the engine's name, and time the whole run as one top-level span.
  obs::ScopedEngine obs_tag(name());
  obs::Span obs_span("run");
  EngineResult out;
  out.engine = name();
  // Containment boundary: execute() mutates `out` in place, so whatever
  // stats accumulated before an exception survive into the kError result.
  try {
    if (!preliminary_checks(out)) execute(out);
  } catch (const std::exception& e) {
    out.verdict = Verdict::kError;
    out.error = classify_exception(e);
  } catch (...) {
    out.verdict = Verdict::kError;
    out.error = {ErrorKind::kInternal, "unknown exception"};
  }
  if (out.verdict == Verdict::kError && obs::enabled()) {
    obs::emit("engine_error",
              {{"engine", name()}, {"kind", to_string(out.error.kind)}});
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  out.stats.state_aig_nodes = space_.graph().num_ands();
  out.stats.fixpoint_checks = space_.num_sat_calls();
  out.stats.fixpoint_solvers = space_.num_checkers();
  return out;
}

double Engine::remaining() const {
  double used =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  return std::max(0.0, opts_.time_limit_sec - used);
}

sat::Budget Engine::sat_budget() const {
  sat::Budget b;
  b.seconds = remaining();
  b.cancel = opts_.cancel;
  return b;
}

bool Engine::enter_bound(EngineResult& out, unsigned k) const {
  out.k_fp = k;
  if (out_of_time()) {
    out.verdict = Verdict::kUnknown;
    return false;
  }
  if (obs::enabled()) {
    obs::counters().bounds.fetch_add(1, std::memory_order_relaxed);
    obs::emit("bound_start", {{"k", k}});
  }
  return true;
}

bool Engine::preliminary_checks(EngineResult& out) {
  if (prop_ >= model_.num_outputs()) {
    out.verdict = Verdict::kPass;  // no bad output: vacuously safe
    return true;
  }
  aig::Lit bad = model_.output(prop_);
  if (bad == aig::kFalse) {
    out.verdict = Verdict::kPass;
    out.certificate = make_certificate(aig::kTrue);  // bad is constant false
    return true;
  }
  // Depth-0 check: S0 AND bad(V^0).
  BmcInstance b = build_bmc(aig::kNullLit, 0, cnf::TargetScheme::kExact,
                            /*proof=*/false);
  switch (b.solver->solve(sat_budget())) {
    case sat::Status::kSat:
      out.k_fp = 0;
      report_fail(out, *b.solver, *b.unroller, 0, cnf::TargetScheme::kExact);
      return true;
    case sat::Status::kUnsat:
      return false;  // continue with the main algorithm
    case sat::Status::kUnknown:
      out.verdict = Verdict::kUnknown;
      return true;
  }
  return false;
}

Engine::BmcInstance Engine::build_bmc(aig::Lit start, unsigned k,
                                      cnf::TargetScheme scheme, bool proof,
                                      const std::vector<bool>& visible) {
  BmcInstance b;
  b.solver = std::make_unique<sat::Solver>();
  opts_.apply_sat_options(*b.solver);
  if (proof) b.solver->enable_proof();
  b.unroller = std::make_unique<cnf::Unroller>(model_, *b.solver, visible);
  cnf::Unroller& unr = *b.unroller;
  // A_1: start set and first transition (label 1).
  if (start == aig::kNullLit) {
    unr.assert_init(1);
  } else if (start != aig::kTrue) {
    sat::Lit fl = unr.encode_state_pred(space_.graph(), start, 0, 1);
    b.solver->add_clause({fl}, 1);
  }
  // A_i = T(V^{i-1}, V^i) with label i; frame-t logic carries label t+1.
  for (unsigned t = 0; t < k; ++t) unr.add_transition(t, t + 1);
  for (unsigned t = 0; t <= k; ++t) unr.assert_constraints(t, t + 1);
  unr.assert_target(k, scheme, prop_);
  for (const Lemma& l : feed_.invariants)
    for (unsigned t = 0; t <= k; ++t) assert_lemma_clause(unr, l, t, t + 1);
  return b;
}

void Engine::solve_bmc(BmcInstance& b, EngineResult& out) const {
  b.status = b.solver->solve(sat_budget());
  absorb_stats(out, *b.solver);
}

std::vector<aig::Lit> Engine::extract_terms(const BmcInstance& b,
                                            unsigned last_cut) {
  itp::InterpolantExtractor ex(b.solver->proof());
  // Leaf maps: for cut c the shared variables are the frame-c latch vars.
  std::vector<std::unordered_map<sat::Var, aig::Lit>> leaf(last_cut + 1);
  for (unsigned c = 1; c <= last_cut; ++c)
    for (std::size_t i = 0; i < model_.num_latches(); ++i) {
      sat::Lit sl = b.unroller->lookup(model_.latch(i), c);
      if (sl != sat::kNoLit)
        leaf[c][sat::var(sl)] =
            aig::lit_xor(space_.latch_input(i), sat::sign(sl));
    }
  return ex.extract_sequence(
      space_.graph(), 1, last_cut,
      [&](std::uint32_t cut, sat::Var v) {
        auto it = leaf[cut].find(v);
        return it == leaf[cut].end() ? aig::kNullLit : it->second;
      },
      opts_.itp_system);
}

void Engine::report_fail(EngineResult& out, const sat::Solver& solver,
                         const cnf::Unroller& unroller, unsigned k,
                         cnf::TargetScheme scheme) const {
  unsigned depth = k;
  if (scheme == cnf::TargetScheme::kBound) {
    for (unsigned t = 1; t <= k; ++t) {
      sat::Lit b = unroller.lookup(model_.output(prop_), t);
      if (b != sat::kNoLit &&
          sat::lbool_xor(solver.model()[sat::var(b)], sat::sign(b)) ==
              sat::LBool::kTrue) {
        depth = t;
        break;
      }
    }
  }
  out.verdict = Verdict::kFail;
  out.j_fp = 0;
  out.cex = extract_trace(solver, unroller, depth);
}

Trace Engine::extract_trace(const sat::Solver& solver,
                            const cnf::Unroller& unroller, unsigned k) const {
  Trace t;
  t.initial_latches.resize(model_.num_latches(), false);
  for (std::size_t i = 0; i < model_.num_latches(); ++i) {
    sat::Lit l = unroller.lookup(model_.latch(i), 0);
    if (l != sat::kNoLit)
      t.initial_latches[i] =
          sat::lbool_xor(solver.model()[sat::var(l)], sat::sign(l)) ==
          sat::LBool::kTrue;
  }
  for (unsigned f = 0; f <= k; ++f) {
    std::vector<bool> in(model_.num_inputs(), false);
    for (std::size_t i = 0; i < model_.num_inputs(); ++i) {
      sat::Lit l = unroller.lookup(model_.input(i), f);
      if (l != sat::kNoLit)
        in[i] = sat::lbool_xor(solver.model()[sat::var(l)], sat::sign(l)) ==
                sat::LBool::kTrue;
    }
    t.inputs.push_back(std::move(in));
  }
  return t;
}

Certificate Engine::make_certificate(aig::Lit r) const {
  aig::CompactResult c = aig::compact(space_.graph(), {r});
  return Certificate{std::move(c.graph), c.roots[0]};
}

void Engine::poll_invariants(EngineResult& out) {
  feed_.poll();
  aig::Aig& G = space_.graph();
  for (; inv_used_ < feed_.invariants.size(); ++inv_used_) {
    inv_ = G.make_and(inv_,
                      latch_clause_pred(G, feed_.invariants[inv_used_].clause));
    ++out.stats.lemmas_consumed;
  }
}

bool Engine::check_fixpoint(EngineResult& out, aig::Lit I, aig::Lit& R,
                            unsigned k, unsigned j) {
  aig::Aig& G = space_.graph();
  // Fixpoint modulo the invariant lemmas (inv_ = kTrue without a hub): new
  // states within inv_ are already covered, and R ∧ inv_ is the inductive
  // set the certificate reports.
  Implication imp =
      space_.implies(G.make_and(I, inv_), R, remaining(), opts_.cancel);
  if (imp == Implication::kHolds) {
    out.verdict = Verdict::kPass;
    out.k_fp = k;
    out.j_fp = j;
    out.certificate = make_certificate(G.make_and(R, inv_));
    return true;
  }
  if (imp == Implication::kUnknown) {
    out.verdict = Verdict::kUnknown;
    return true;
  }
  R = G.make_or(R, I);
  return false;
}

void Engine::absorb_stats(EngineResult& out, const sat::Solver& solver,
                          std::uint64_t queries) const {
  if (queries == 0) return;  // never solved
  out.stats.sat_calls += queries;
  const sat::SolverStats& s = solver.stats();
  out.stats.sat_conflicts += s.conflicts;
  out.stats.sat_propagations += s.propagations;
  out.stats.sat_bin_propagations += s.bin_propagations;
  out.stats.sat_gc_runs += s.gc_runs;
  out.stats.sat_arena_reclaimed += s.wasted_bytes_reclaimed;
  out.stats.sat_arena_peak = std::max<std::size_t>(
      out.stats.sat_arena_peak, s.peak_arena_bytes);
  for (std::size_t i = 0; i < s.glue_hist.size(); ++i)
    out.stats.sat_glue_hist[i] += s.glue_hist[i];
  out.stats.sat_inprocess_rounds += s.inprocess_rounds;
  out.stats.sat_subsumed += s.subsumed + s.strengthened;
  out.stats.sat_vars_eliminated += s.vars_eliminated;
  out.stats.sat_vivified += s.vivified;
  out.stats.sat_failed_literals += s.failed_literals;
  out.stats.sat_hyper_binaries += s.hyper_binaries;
  if (solver.proof_enabled() && solver.proof().complete())
    out.stats.proof_clauses += solver.proof().core().size();
}

}  // namespace itpseq::mc
