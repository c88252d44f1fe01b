// portfolio.hpp — a portfolio of model-checking engines.
//
// The paper positions ITPSEQ as "an additional engine within a potential
// portfolio of available MC techniques" (Section IV).  This engine realizes
// that with a *threaded* scheduler: member engines run concurrently on
// std::threads, the first definite verdict wins, and all peers are torn
// down through cooperative cancellation.
//
// Scheduler.  With jobs > 1 (default: one per member; lists longer than
// max(8, hardware concurrency) are capped there), members are pulled from
// a work queue by a pool of worker threads.  With jobs >= members each
// member runs once with the full remaining wall-clock budget; with a
// narrower pool each member is capped at its fair share of the pool's
// remaining capacity (remaining * jobs / members still queued), so queued
// members cannot be starved.  Deliberate oversubscription by default:
// members are pure CPU burners, so even with fewer cores than members
// racing + early cancellation beats time slicing.  With jobs == 1 the legacy single-threaded round-robin scheduler
// is used: every member gets `slice_seconds`, doubled each round, until the
// budget is exhausted — useful as a deterministic cross-check and on
// single-core hosts.
//
// Cancellation contract.  The portfolio owns one std::atomic<bool> token
// handed to every member via EngineOptions::cancel.  Engines must *poll*
// it (loop heads + sat::Budget::cancel) and return kUnknown promptly; they
// never detach work.  check_portfolio() therefore joins every worker
// before returning — no engine thread outlives the call.  An external
// token in engine_defaults.cancel is relayed to the internal one, so a
// caller can cancel the whole portfolio.
//
// Lemma exchange.  Unless disabled, members share a LemmaExchange hub
// (EngineOptions::exchange): PDR publishes propagated frame clauses and
// proven-invariant clauses, the interpolation engines publish candidate
// latch clauses of their interpolants, and every subscriber injects
// foreign lemmas only at the safe points documented in
// mc/lemma_exchange.hpp — exchange accelerates members but can never
// change a verdict.  The returned result carries the hub totals in
// stats.lemmas_published / stats.lemmas_consumed.
//
// Failure containment.  A member that dies (bad_alloc, internal error) is
// a *result*, not a process death: run_member converts the exception into
// a Verdict::kError result carrying an ErrorInfo, the scheduler records it
// in EngineResult::members and keeps racing the survivors, and the
// portfolio itself returns kError only when every member failed.  A
// watchdog (sharing the external-cancel guard thread) escalates a deadline
// that cooperative cancellation missed — an engine stalled outside its
// poll loop — by forcing cancellation after watchdog_grace_sec past the
// budget and annotating the kUnknown result with ErrorKind::kSolverLimit.
//
// Self-healing (threaded mode).  On top of containment, an errored member
// slot is *relaunched* under PortfolioOptions::restart: bounded retries,
// exponential backoff with deterministic jitter (util::RestartPolicy), and
// a per-error degradation ladder (degrade_for_retry — e.g. kOutOfMemory
// relaunches with inprocessing off and a clamped learnt cap, kSolverLimit
// with half the leash).  The relaunch gets a fresh publisher slot, so it
// warm-starts by re-reading the whole exchange — its own prior
// publications included — instead of re-deriving everything.  Retry
// history (restarts / last_error) is preserved per member in
// EngineResult::members; each relaunch emits a member_restart obs event.
// The sequential scheduler's round-robin already is a retry loop, so the
// policy applies to the threaded scheduler only.
//
// Checkpointing.  With checkpoint_path set, the hub (plus per-member
// progress) is snapshotted to a versioned, checksummed file via atomic
// temp+rename — periodically (checkpoint_interval_sec, from the guard
// thread in threaded mode and between slices in sequential mode), on
// watchdog or memory-budget escalation, and once at the end of the run.
// seed_lemmas feeds a restored snapshot back in; every seeded lemma is
// demoted to kCandidate first (mc/lemma_store.hpp's trust model), so a
// corrupt or forged snapshot can never change a verdict.  Checkpoint I/O
// failures are contained: they are counted, never propagated.
//
// Determinism.  For a fixed sim_seed the random-simulation member explores
// one fixed trace enumeration of a fixed size under *both* schedulers
// (independent of wall-clock and thread interleaving), and every SAT
// member is deterministic in isolation, so the portfolio *verdict* is
// independent of `jobs` whenever the budget suffices; budget truncation
// can only degrade a definite verdict to UNKNOWN, never flip PASS/FAIL.
// On closed circuits (forced traces) the reported counterexample is
// jobs-independent too.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "mc/engine.hpp"
#include "mc/lemma_exchange.hpp"
#include "util/retry.hpp"

namespace itpseq::mc {

/// Member engines available to the portfolio.
enum class PortfolioMember : std::uint8_t {
  kRandomSim,  ///< 64-way random simulation (falsification only)
  kBmc,        ///< plain BMC (falsification only)
  kItp,        ///< standard interpolation (Fig. 1)
  kItpPartitioned,
  kItpSeq,     ///< parallel sequences (Fig. 2)
  kSItpSeq,    ///< serial sequences, alpha = 0.5 (Fig. 4)
  kItpSeqCba,  ///< sequences + abstraction (Fig. 5)
  kKInduction, ///< temporal induction baseline
  kPdr,        ///< property-directed reachability (IC3)
};

const char* to_string(PortfolioMember m);

struct PortfolioOptions {
  /// Default member list (a function, not an NSDMI initializer list: GCC 12
  /// flags the inlined initializer_list copy with -Wmaybe-uninitialized).
  static std::vector<PortfolioMember> default_members() {
    return {PortfolioMember::kRandomSim, PortfolioMember::kItp,
            PortfolioMember::kPdr, PortfolioMember::kSItpSeq,
            PortfolioMember::kItpSeqCba};
  }
  /// Member list.  Threaded mode starts them in order as worker slots free
  /// up; sequential mode time-slices them round-robin in order.
  std::vector<PortfolioMember> members = default_members();
  /// Worker threads: 0 = one per member (lists longer than max(8, hardware
  /// concurrency) are capped there), 1 = sequential round-robin scheduler,
  /// N = pool of N threads.
  unsigned jobs = 0;
  /// Cross-engine lemma exchange between members (see header comment).
  bool exchange = true;
  /// Seed of the random-simulation member; fixes its trace enumeration so
  /// verdicts are reproducible regardless of jobs/interleaving.
  std::uint64_t sim_seed = 1;
  /// Sequential mode only: first-round slice, doubled each round.
  double slice_seconds = 1.0;
  double time_limit_sec = 60.0;
  /// Threaded mode: grace period past time_limit_sec before the watchdog
  /// escalates (forces internal cancellation and tags the result with
  /// ErrorKind::kSolverLimit).  Engines are cooperative, so this only
  /// fires when a member misses its own deadline polls.  <= 0 disables.
  double watchdog_grace_sec = 5.0;
  EngineOptions engine_defaults;
  /// Self-healing relaunch policy for errored members (threaded mode; see
  /// header comment).  restart.max_retries = 0 disables relaunching — the
  /// first kError then sticks as that slot's outcome, as before.
  util::RestartPolicy restart;
  /// Lemma checkpointing: snapshot the exchange hub to this path ("" =
  /// off) every checkpoint_interval_sec, on watchdog/mem-budget
  /// escalation, and at the end of the run.  Written atomically
  /// (temp+rename), so readers only ever see complete snapshots.
  std::string checkpoint_path;
  double checkpoint_interval_sec = 5.0;
  /// Lemmas restored from a --resume snapshot, seeded into the hub before
  /// any member starts.  Every entry is demoted to kCandidate regardless
  /// of its recorded grade — snapshots are untrusted input, and candidates
  /// re-enter proofs only through consumers' own soundness checks.  The
  /// count accepted is reported in stats.lemmas_restored.
  std::vector<Lemma> seed_lemmas;
  /// Test instrumentation: incremented when a member starts, decremented
  /// when it returns.  After check_portfolio() returns it reads 0 — the
  /// join-all guarantee made observable.
  std::atomic<int>* active_probe = nullptr;
};

/// The degradation ladder: mutate `eo` so a relaunch avoids the failure
/// mode behind `kind` — kOutOfMemory sheds the allocation-heavy machinery
/// (inprocessing off, learnt cap clamped, earlier state-set compaction);
/// other kinds retry unchanged (the relaunch budget, which shrinks for
/// kSolverLimit, is the scheduler's side of the ladder).
void degrade_for_retry(EngineOptions& eo, ErrorKind kind);

/// Run the portfolio; the winning member's name is recorded in
/// EngineResult::engine (prefixed with "portfolio/").
EngineResult check_portfolio(const aig::Aig& model, std::size_t prop,
                             const PortfolioOptions& opts = {});

/// Base rounds of the random-simulation member's sweep, shared by both
/// schedulers so the explored trace enumeration never depends on
/// wall-clock or thread interleaving.  Sequential rounds *extend* the sweep
/// (kSimSweepRounds << round, up to kSimSweepMaxRounds); since a longer
/// sweep explores the identical prefix first, the first counterexample
/// found is still a pure function of the seed — budget/cancellation can
/// truncate (degrading FAIL to UNKNOWN) but never change which witness is
/// reported.
inline constexpr unsigned kSimSweepRounds = 4096;
/// The longest sweep: the sequential scheduler's from round 10 on, and the
/// threaded member's only one — it holds its whole budget in one run, so
/// the sweep extends until the budget (or a peer's verdict) stops it.
inline constexpr unsigned kSimSweepMaxRounds = kSimSweepRounds << 10;

/// Pure random-simulation falsifier: simulates `rounds` batches of 64
/// random input sequences of length `depth`; FAIL with a replayable trace
/// or UNKNOWN (never PASS).  The enumeration order depends only on `seed`,
/// so the outcome is deterministic; `cancel` and `time_limit_sec` only
/// truncate the sweep (returning UNKNOWN early).
EngineResult check_random_sim(const aig::Aig& model, std::size_t prop,
                              unsigned depth, unsigned rounds,
                              std::uint64_t seed = 1,
                              const std::atomic<bool>* cancel = nullptr,
                              double time_limit_sec = -1.0);

}  // namespace itpseq::mc
