// portfolio.cpp — threaded portfolio scheduler with cooperative
// cancellation and cross-engine lemma exchange (see portfolio.hpp for the
// scheduler/cancellation/exchange contracts).
#include "mc/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "mc/kinduction.hpp"
#include "mc/lemma_exchange.hpp"
#include "mc/lemma_store.hpp"
#include "obs/trace.hpp"
#include "util/mem_budget.hpp"
#include "util/retry.hpp"

namespace itpseq::mc {

const char* to_string(PortfolioMember m) {
  switch (m) {
    case PortfolioMember::kRandomSim:
      return "RANDOM-SIM";
    case PortfolioMember::kBmc:
      return "BMC";
    case PortfolioMember::kItp:
      return "ITP";
    case PortfolioMember::kItpPartitioned:
      return "ITP-PART";
    case PortfolioMember::kItpSeq:
      return "ITPSEQ";
    case PortfolioMember::kSItpSeq:
      return "SITPSEQ";
    case PortfolioMember::kItpSeqCba:
      return "ITPSEQCBA";
    case PortfolioMember::kKInduction:
      return "KIND";
    case PortfolioMember::kPdr:
      return "PDR";
  }
  return "?";
}

void degrade_for_retry(EngineOptions& eo, ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kOutOfMemory:
      // Shed the allocation-heavy machinery: the inprocessing occurrence
      // index is the largest transient allocation, the learnt-clause arena
      // the largest persistent one, and the state-set AIG grows unboundedly
      // without compaction.
      eo.sat_inprocess = false;
      eo.sat_reduce_base = eo.sat_reduce_base > 0.0
                               ? std::min(eo.sat_reduce_base, 500.0)
                               : 500.0;
      if (eo.compact_threshold == 0 || eo.compact_threshold > 50000)
        eo.compact_threshold = 50000;
      break;
    case ErrorKind::kNone:
    case ErrorKind::kSolverLimit:  // the scheduler halves the leash instead
    case ErrorKind::kInternal:     // transient faults: plain retry
    case ErrorKind::kIoError:
      break;
  }
}

namespace {

/// Simple xorshift64 for reproducible word streams.
std::uint64_t next_word(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Run one member to completion under `eo` (budget, cancellation token and
/// exchange hub are all inside).  `sim_rounds` sizes the random-simulation
/// sweep and must be derived deterministically by the caller.
///
/// Containment boundary: a member that throws (engine construction, the
/// self-scheduled random-sim sweep — Engine::run() has its own boundary for
/// everything Engine-derived) becomes a kError *result*; the portfolio
/// keeps racing the survivors instead of std::terminate taking the process.
EngineResult run_member(const aig::Aig& model, std::size_t prop,
                        PortfolioMember m, const EngineOptions& eo,
                        std::uint64_t sim_seed, unsigned sim_rounds) {
  try {
    switch (m) {
      case PortfolioMember::kRandomSim:
        return check_random_sim(model, prop, /*depth=*/64, sim_rounds,
                                sim_seed, eo.cancel, eo.time_limit_sec);
      case PortfolioMember::kBmc:
        return check_bmc(model, prop, eo);
      case PortfolioMember::kItp:
        return check_itp(model, prop, eo);
      case PortfolioMember::kItpPartitioned: {
        EngineOptions e = eo;
        e.itp_partitioned = true;
        return check_itp(model, prop, e);
      }
      case PortfolioMember::kItpSeq:
        return check_itpseq(model, prop, eo);
      case PortfolioMember::kSItpSeq:
        return check_sitpseq(model, prop, eo);
      case PortfolioMember::kItpSeqCba:
        return check_itpseq_cba(model, prop, eo);
      case PortfolioMember::kKInduction:
        return check_kinduction(model, prop, eo);
      case PortfolioMember::kPdr:
        return check_pdr(model, prop, eo);
    }
  } catch (const std::exception& e) {
    EngineResult r;
    r.engine = to_string(m);
    r.verdict = Verdict::kError;
    r.error = classify_exception(e);
    if (obs::enabled()) {
      obs::emit("engine_error",
                {{"engine", to_string(m)}, {"kind", to_string(r.error.kind)}});
    }
    return r;
  } catch (...) {
    EngineResult r;
    r.engine = to_string(m);
    r.verdict = Verdict::kError;
    r.error = {ErrorKind::kInternal, "unknown exception"};
    if (obs::enabled()) {
      obs::emit("engine_error",
                {{"engine", to_string(m)}, {"kind", to_string(r.error.kind)}});
    }
    return r;
  }
  return {};
}

}  // namespace

EngineResult check_random_sim(const aig::Aig& model, std::size_t prop,
                              unsigned depth, unsigned rounds,
                              std::uint64_t seed,
                              const std::atomic<bool>* cancel,
                              double time_limit_sec) {
  // Random simulation bypasses Engine::run(), so it tags and times itself.
  obs::ScopedEngine obs_tag("RANDOM-SIM");
  obs::Span obs_span("run", {{"rounds", rounds}, {"depth", depth}});
  auto t0 = std::chrono::steady_clock::now();
  auto give_up = [&] {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed))
      return true;
    if (time_limit_sec < 0) return false;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count() >= time_limit_sec;
  };
  EngineResult out;
  out.engine = "RANDOM-SIM";
  out.verdict = Verdict::kUnknown;
  std::uint64_t rng = seed ? seed : 1;

  if (prop >= model.num_outputs()) {
    out.verdict = Verdict::kPass;
    return out;
  }
  // Topological order over the cone of all next-state functions + bad.
  std::vector<aig::Lit> roots;
  for (std::size_t i = 0; i < model.num_latches(); ++i)
    roots.push_back(model.latch_next(i));
  roots.push_back(model.output(prop));
  for (std::size_t i = 0; i < model.num_constraints(); ++i)
    roots.push_back(model.constraint(i));
  std::vector<aig::Var> order = model.cone(roots);

  std::vector<std::uint64_t> val(model.num_vars(), 0);
  auto lit_word = [&](aig::Lit l) {
    std::uint64_t base = aig::lit_var(l) == 0 ? 0ull : val[aig::lit_var(l)];
    return base ^ (aig::lit_sign(l) ? ~0ull : 0ull);
  };

  for (unsigned round = 0; round < rounds; ++round) {
    // Cancellation/time truncate the sweep but never permute it, so the
    // first counterexample found is a fixed function of the seed.
    if (give_up()) break;
    // Initial latch words.
    std::vector<std::uint64_t> init_words(model.num_latches());
    for (std::size_t i = 0; i < model.num_latches(); ++i) {
      switch (model.latch_init(i)) {
        case aig::LatchInit::kZero:
          init_words[i] = 0;
          break;
        case aig::LatchInit::kOne:
          init_words[i] = ~0ull;
          break;
        case aig::LatchInit::kUndef:
          init_words[i] = next_word(rng);
          break;
      }
      val[aig::lit_var(model.latch(i))] = init_words[i];
    }
    std::vector<std::vector<std::uint64_t>> input_words;
    std::uint64_t valid = ~0ull;  // lanes where constraints held so far

    for (unsigned t = 0; t <= depth; ++t) {
      input_words.emplace_back(model.num_inputs());
      for (std::size_t i = 0; i < model.num_inputs(); ++i) {
        input_words.back()[i] = next_word(rng);
        val[aig::lit_var(model.input(i))] = input_words.back()[i];
      }
      for (aig::Var v : order) {
        const aig::Node& n = model.node(v);
        if (n.type == aig::NodeType::kAnd)
          val[v] = lit_word(n.fanin0) & lit_word(n.fanin1);
      }
      for (std::size_t i = 0; i < model.num_constraints(); ++i)
        valid &= lit_word(model.constraint(i));
      std::uint64_t bad = lit_word(model.output(prop)) & valid;
      if (bad) {
        // Extract the failing lane into a concrete trace.
        unsigned lane = 0;
        while (!((bad >> lane) & 1)) ++lane;
        Trace trace;
        trace.initial_latches.resize(model.num_latches());
        for (std::size_t i = 0; i < model.num_latches(); ++i)
          trace.initial_latches[i] = (init_words[i] >> lane) & 1;
        for (unsigned f = 0; f <= t; ++f) {
          std::vector<bool> in(model.num_inputs());
          for (std::size_t i = 0; i < model.num_inputs(); ++i)
            in[i] = (input_words[f][i] >> lane) & 1;
          trace.inputs.push_back(std::move(in));
        }
        out.verdict = Verdict::kFail;
        out.k_fp = t;
        out.cex = std::move(trace);
        out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
        return out;
      }
      // Advance latches.
      std::vector<std::uint64_t> next(model.num_latches());
      for (std::size_t i = 0; i < model.num_latches(); ++i)
        next[i] = lit_word(model.latch_next(i));
      for (std::size_t i = 0; i < model.num_latches(); ++i)
        val[aig::lit_var(model.latch(i))] = next[i];
    }
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

EngineResult check_portfolio(const aig::Aig& model, std::size_t prop,
                             const PortfolioOptions& opts) {
  auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  EngineResult last;
  last.engine = "portfolio";
  last.verdict = Verdict::kUnknown;
  if (opts.members.empty()) return last;

  LemmaExchange hub(model.num_latches());
  LemmaExchange* hubp = opts.exchange ? &hub : nullptr;
  // Seed the hub from a restored snapshot.  The demotion to kCandidate
  // happens HERE, unconditionally — callers cannot opt out — so restored
  // lemmas only ever re-enter proofs through consumers' own soundness
  // checks (PDR's relative-induction query), exactly like any other
  // candidate.  A forged snapshot can waste work, never flip a verdict.
  std::uint64_t restored = 0;
  if (hubp != nullptr && !opts.seed_lemmas.empty()) {
    for (const Lemma& l : opts.seed_lemmas) {
      Lemma c;
      c.clause = l.clause;
      c.grade = LemmaGrade::kCandidate;
      if (hub.publish(std::move(c))) ++restored;
    }
    if (obs::enabled()) {
      obs::emit("snapshot_restore",
                {{"lemmas", opts.seed_lemmas.size()}, {"accepted", restored}});
    }
  }
  // Per-member fates (winners, losers and crashes alike) — attached to
  // every returned result so run_report can list them.  `mu` guards them
  // against the threaded workers and the checkpoint writer.
  std::mutex mu;
  std::vector<MemberOutcome> outcomes;
  auto record_outcome = [&outcomes](PortfolioMember m, const EngineResult& r) {
    MemberOutcome o;
    o.member = to_string(m);
    o.verdict = r.verdict;
    o.seconds = r.seconds;
    o.k_fp = r.k_fp;
    o.error = r.error;
    outcomes.push_back(std::move(o));
  };
  // Lemma checkpointing (see portfolio.hpp).  Failure containment:
  // checkpointing is an observer — an injected or real I/O failure here is
  // counted and dropped, never surfaced into the verdict path.
  const bool ckpt_on = !opts.checkpoint_path.empty() && hubp != nullptr;
  const std::uint64_t dhash = ckpt_on ? design_hash(model) : 0;
  double last_ckpt = 0.0;  // touched only by the scheduler driving thread
  // Serializes snapshot writes: the guard thread's periodic write can race
  // finalize()'s final one, and both use the same temp file.
  std::mutex ckpt_mu;
  auto write_checkpoint = [&](const char* reason) {
    if (!ckpt_on) return;
    std::lock_guard<std::mutex> ckpt_lock(ckpt_mu);
    try {
      LemmaSnapshot snap;
      snap.design = dhash;
      snap.num_latches = model.num_latches();
      {
        std::lock_guard<std::mutex> lock(mu);
        snap.progress.reserve(outcomes.size());
        for (const MemberOutcome& o : outcomes)
          snap.progress.push_back({o.member, o.k_fp});
      }
      snap.lemmas = hub.export_lemmas();
      std::string werr;
      bool ok = write_snapshot_file(opts.checkpoint_path, snap, &werr);
      if (obs::enabled()) {
        obs::emit("checkpoint", {{"reason", reason},
                                 {"lemmas", snap.lemmas.size()},
                                 {"ok", ok ? 1u : 0u}});
      }
    } catch (...) {
      if (obs::enabled()) obs::emit("checkpoint", {{"reason", reason}, {"ok", 0u}});
    }
  };
  auto finalize = [&](EngineResult r) {
    r.seconds = elapsed();
    // Final checkpoint before `outcomes` is moved out: even a run shorter
    // than the interval leaves a complete snapshot behind.
    write_checkpoint("final");
    r.members = std::move(outcomes);
    if (hubp != nullptr) {
      LemmaExchangeStats hs = hub.stats();
      r.stats.lemmas_published = hs.published;
      r.stats.lemmas_consumed = hs.fetched;
      r.stats.lemmas_restored = restored;
    }
    return r;
  };
  auto member_options = [&](const EngineOptions& base, std::size_t slot,
                            double budget) {
    EngineOptions eo = base;
    eo.time_limit_sec = budget;
    eo.exchange = hubp;
    eo.exchange_source = static_cast<std::uint8_t>((slot % 250) + 1);
    return eo;
  };
  std::atomic<bool>* external = opts.engine_defaults.cancel;

  unsigned jobs = opts.jobs;
  if (jobs == 0) {
    // One thread per member by default.  Members are pure CPU burners, so
    // even on fewer cores racing + early cancellation beats time slicing
    // (the OS preempts; the fastest member still finishes early and cancels
    // the rest) — only very long member lists are capped to the hardware.
    unsigned hw = std::thread::hardware_concurrency();
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(opts.members.size(), std::max(hw, 8u)));
  }
  jobs = static_cast<unsigned>(
      std::min<std::size_t>(jobs, opts.members.size()));

  if (jobs <= 1) {
    // Sequential round-robin scheduler (deterministic cross-check mode).
    // Lemmas survive the slice boundaries through the hub, so later slices
    // restart engines with everything earlier slices learned.  Each slice
    // gets a fresh publisher slot: a restarted member must see its own
    // previous slice's lemmas as foreign, or it could never re-seed itself.
    double slice = opts.slice_seconds;
    std::size_t slot = 0;
    unsigned round = 0;
    while (elapsed() < opts.time_limit_sec) {
      std::size_t round_errors = 0;
      EngineResult err;
      for (std::size_t i = 0; i < opts.members.size(); ++i) {
        if (external != nullptr && external->load(std::memory_order_relaxed)) {
          last.engine = "portfolio";  // no winner: don't leak a member name
          return finalize(std::move(last));
        }
        double budget = std::min(slice, opts.time_limit_sec - elapsed());
        if (budget <= 0) break;
        // Later rounds re-run the sweep *extended* (same prefix first), so
        // random-sim coverage still grows with the budget deterministically.
        unsigned sim_rounds = kSimSweepRounds << std::min(round, 10u);
        if (obs::enabled()) {
          obs::emit("member_start", {{"member", to_string(opts.members[i])},
                                     {"round", round},
                                     {"budget_sec", budget}});
        }
        EngineResult r =
            run_member(model, prop, opts.members[i],
                       member_options(opts.engine_defaults, slot++, budget),
                       opts.sim_seed, sim_rounds);
        if (obs::enabled()) {
          obs::emit("member_done", {{"member", to_string(opts.members[i])},
                                    {"verdict", to_string(r.verdict)},
                                    {"seconds", r.seconds}});
        }
        record_outcome(opts.members[i], r);
        // Slice boundaries are the sequential scheduler's checkpoint
        // cadence (no guard thread to drive the interval).
        if (ckpt_on && elapsed() - last_ckpt >= opts.checkpoint_interval_sec) {
          write_checkpoint("interval");
          last_ckpt = elapsed();
        }
        if (r.verdict == Verdict::kPass || r.verdict == Verdict::kFail) {
          r.engine = std::string("portfolio/") + to_string(opts.members[i]);
          return finalize(std::move(r));
        }
        if (r.verdict == Verdict::kError) {
          ++round_errors;
          err = std::move(r);
        } else {
          last = std::move(r);
        }
      }
      // A whole round of failures means no member can make progress —
      // surface the error instead of burning the rest of the budget.
      if (round_errors == opts.members.size()) {
        err.engine = "portfolio";
        return finalize(std::move(err));
      }
      slice *= 2.0;
      ++round;
    }
    last.engine = "portfolio";
    return finalize(std::move(last));
  }

  // Threaded scheduler: a pool of `jobs` workers drains the member queue;
  // the first definite verdict (kPass/kFail) flips the shared cancellation
  // token and every peer winds down cooperatively.  All threads are joined
  // before returning (engines never detach work — see engine.hpp).
  std::atomic<bool> cancel{false};
  std::atomic<bool> watchdog_fired{false};
  std::atomic<std::size_t> next{0};
  // Publisher slots for relaunched members, past the initial assignment:
  // a relaunch gets a *fresh* slot so the hub treats its previous
  // publications as foreign — re-reading them is exactly the warm start.
  std::atomic<std::size_t> pub_slot{opts.members.size()};
  int winner = -1;
  EngineResult win;
  bool have_unknown = false;  // guarded by mu; `last` holds a healthy result
  auto worker = [&] {
    try {
      while (!cancel.load(std::memory_order_relaxed)) {
        std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= opts.members.size()) break;
        double remaining = opts.time_limit_sec - elapsed();
        if (remaining <= 0) break;
        // Fair share when the pool is narrower than the member list: the
        // queue behind this member must still get its turn, so cap the
        // budget at this member's share of the pool's remaining capacity.
        // With jobs >= members the share is >= remaining (no cap) — every
        // member simply runs with the full remaining budget.
        std::size_t queued = opts.members.size() - i;
        double budget =
            std::min(remaining, remaining * jobs / static_cast<double>(queued));
        PortfolioMember m = opts.members[i];
        // The degraded option base survives across relaunches of this
        // slot, so ladder steps accumulate (an OOM clamp stays on even if
        // a later attempt dies of something else).
        EngineOptions base = opts.engine_defaults;
        MemberOutcome o;
        o.member = to_string(m);
        EngineResult r;
        unsigned attempt = 0;
        for (;;) {
          EngineOptions eo = member_options(
              base,
              attempt == 0 ? i
                           : pub_slot.fetch_add(1, std::memory_order_relaxed),
              budget);
          eo.cancel = &cancel;
          if (opts.active_probe != nullptr) opts.active_probe->fetch_add(1);
          if (obs::enabled()) {
            obs::emit("worker_start", {{"member", to_string(m)},
                                       {"slot", i},
                                       {"attempt", attempt},
                                       {"budget_sec", budget}});
          }
          r = run_member(model, prop, m, eo, opts.sim_seed,
                         kSimSweepMaxRounds);
          if (opts.active_probe != nullptr) opts.active_probe->fetch_sub(1);
          if (obs::enabled()) {
            obs::emit("worker_done", {{"member", to_string(m)},
                                      {"slot", i},
                                      {"verdict", to_string(r.verdict)},
                                      {"seconds", r.seconds}});
          }
          o.seconds += r.seconds;
          if (r.verdict != Verdict::kError) break;
          o.last_error = r.error;
          // Self-healing: relaunch the errored slot under the
          // RestartPolicy — bounded retries, exponential backoff with
          // deterministic jitter, degradation ladder — warm-started from
          // the current exchange (fresh publisher slot above).
          if (attempt >= opts.restart.max_retries) break;
          if (cancel.load(std::memory_order_relaxed)) break;
          double delay = util::backoff_delay_sec(
              opts.restart, attempt,
              opts.sim_seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
          if (opts.time_limit_sec - elapsed() <= delay) break;
          if (!util::interruptible_sleep(delay, &cancel)) break;
          degrade_for_retry(base, r.error.kind);
          // kSolverLimit relaunches with half the leash: the member
          // already proved it cannot finish in a full share, so leave the
          // reclaimed time to healthier peers.
          double leash =
              r.error.kind == ErrorKind::kSolverLimit ? 0.5 : 1.0;
          budget = std::min(budget, opts.time_limit_sec - elapsed()) * leash;
          if (budget <= 0) break;
          ++attempt;
          o.restarts = attempt;
          if (obs::enabled()) {
            obs::emit("member_restart",
                      {{"member", to_string(m)},
                       {"attempt", attempt},
                       {"error", to_string(o.last_error.kind)},
                       {"delay_sec", delay}});
          }
        }
        o.verdict = r.verdict;
        o.k_fp = r.k_fp;
        o.error = r.error;
        std::lock_guard<std::mutex> lock(mu);
        outcomes.push_back(std::move(o));
        if (r.verdict == Verdict::kPass || r.verdict == Verdict::kFail) {
          if (winner < 0) {
            winner = static_cast<int>(i);
            win = std::move(r);
            cancel.store(true, std::memory_order_relaxed);
            // The winning verdict propagates cancellation to every peer.
            if (obs::enabled()) {
              obs::emit("cancel", {{"winner", to_string(opts.members[i])},
                                   {"verdict", to_string(win.verdict)}});
            }
          }
        } else if (r.verdict == Verdict::kUnknown || !have_unknown) {
          // Prefer a healthy kUnknown over a crashed member's kError for
          // the no-winner return; a kError only sticks while nothing
          // healthy has reported.
          if (r.verdict == Verdict::kUnknown) have_unknown = true;
          last = std::move(r);
        }
      }
    } catch (const std::exception& e) {
      // run_member contains engine exceptions; this boundary covers the
      // scheduler bookkeeping itself (option copies, obs emission) so a
      // worker can never take down the process or skip its join.
      std::lock_guard<std::mutex> lock(mu);
      MemberOutcome o;
      o.member = "portfolio-worker";
      o.verdict = Verdict::kError;
      o.error = classify_exception(e);
      outcomes.push_back(std::move(o));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      MemberOutcome o;
      o.member = "portfolio-worker";
      o.verdict = Verdict::kError;
      o.error = {ErrorKind::kInternal, "unknown exception"};
      outcomes.push_back(std::move(o));
    }
  };

  // One guard thread serves three duties on a shared condition-variable
  // wait: relaying an external cancellation token into the pool's internal
  // one; the watchdog — if cooperative cancellation misses the deadline
  // (an engine stalled outside its poll loop), force internal cancellation
  // after a grace period and mark the escalation; and driving the periodic
  // lemma checkpoint (plus an extra snapshot on watchdog or memory-budget
  // escalation — the moments a crash becomes likely).  The CV (unlike the
  // former busy-poll) lets the exit path wake it immediately.
  struct Relay {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  Relay relay;
  const bool watchdog_on =
      opts.watchdog_grace_sec > 0 && opts.time_limit_sec >= 0;
  std::thread guard;
  if (external != nullptr || watchdog_on || ckpt_on) {
    guard = std::thread([&] {
      try {
        const double deadline =
            opts.time_limit_sec + std::max(0.0, opts.watchdog_grace_sec);
        bool mem_ckpt_done = false;
        std::unique_lock<std::mutex> lock(relay.mu);
        while (!relay.done) {
          relay.cv.wait_for(lock, std::chrono::milliseconds(2));
          if (relay.done) break;
          if (external != nullptr &&
              external->load(std::memory_order_relaxed)) {
            cancel.store(true, std::memory_order_relaxed);
          }
          if (ckpt_on) {
            util::MemoryBudget& mb = util::MemoryBudget::instance();
            if (mb.limited()) mb.poll();
            if (mb.soft() && !mem_ckpt_done) {
              // Memory pressure escalated: snapshot now, while the
              // allocator still can — the ladder's next rung is bailing
              // out, and past it the OOM killer.
              mem_ckpt_done = true;
              write_checkpoint("mem-budget");
              last_ckpt = elapsed();
            } else if (elapsed() - last_ckpt >=
                       opts.checkpoint_interval_sec) {
              write_checkpoint("interval");
              last_ckpt = elapsed();
            }
          }
          if (watchdog_on && elapsed() >= deadline &&
              !watchdog_fired.load(std::memory_order_relaxed)) {
            watchdog_fired.store(true, std::memory_order_relaxed);
            cancel.store(true, std::memory_order_relaxed);
            write_checkpoint("watchdog");
            if (obs::enabled()) {
              obs::emit("watchdog",
                        {{"grace_sec", opts.watchdog_grace_sec},
                         {"elapsed_sec", elapsed()}});
            }
          }
        }
      } catch (...) {
        // Never let the guard take the process down: losing it only means
        // cancellation waits for the workers' own deadline polls.
      }
    });
  }
  // Exception-safe teardown, in reverse declaration order: workers are
  // joined first (GuardPool below), then the guard is woken and joined —
  // on *every* exit path, including a throwing spawn loop.
  struct GuardJoin {
    Relay& relay;
    std::thread& t;
    ~GuardJoin() {
      {
        std::lock_guard<std::mutex> lock(relay.mu);
        relay.done = true;
      }
      relay.cv.notify_all();
      if (t.joinable()) t.join();
    }
  };
  GuardJoin guard_join{relay, guard};

  std::vector<std::thread> pool;
  struct PoolJoin {
    std::vector<std::thread>& pool;
    ~PoolJoin() {
      for (std::thread& t : pool)
        if (t.joinable()) t.join();
    }
  };
  PoolJoin pool_join{pool};
  pool.reserve(jobs);
  try {
    for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
  } catch (const std::system_error&) {
    // Thread creation failed under resource pressure: degrade to whatever
    // part of the pool did start instead of dying.
  }
  if (pool.empty()) worker();  // last resort: run the queue inline
  for (std::thread& t : pool) t.join();

  if (winner >= 0) {
    win.engine = std::string("portfolio/") +
                 to_string(opts.members[static_cast<std::size_t>(winner)]);
    return finalize(std::move(win));
  }
  // No winner.  Every member failing is a portfolio-level error; a mix of
  // kUnknown and crashes stays kUnknown (the healthy members simply ran
  // out of budget) with the crashes listed in `members`.
  bool all_error = !outcomes.empty();
  for (const MemberOutcome& o : outcomes)
    if (o.verdict != Verdict::kError) all_error = false;
  if (all_error) {
    last.verdict = Verdict::kError;
    last.error = outcomes.front().error;
  } else if (watchdog_fired.load(std::memory_order_relaxed) &&
             last.verdict == Verdict::kUnknown &&
             last.error.kind == ErrorKind::kNone) {
    last.error = {ErrorKind::kSolverLimit,
                  "watchdog: deadline passed without cooperative cancellation"};
  }
  last.engine = "portfolio";
  return finalize(std::move(last));
}

}  // namespace itpseq::mc
