#ifndef TSLRW_TESTING_CHAOS_H_
#define TSLRW_TESTING_CHAOS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "mediator/capability.h"
#include "mediator/fault.h"
#include "oem/database.h"
#include "service/server.h"
#include "tsl/ast.h"

namespace tslrw {

/// \brief One phase of a chaos drill: a named fault regime plus an
/// optional serving-layer disturbance, applied to a *live* QueryServer —
/// schedules change between phases while the server keeps serving, which
/// is exactly the flap/storm/recover shape real incidents have.
struct ChaosPhase {
  /// How the drill interferes with the serving layer during the phase.
  enum class Action : uint8_t {
    kNone,
    /// Compile the catalog index, corrupt its serialized image, prove the
    /// loader rejects it (kDataLoss — never a silently wrong index), then
    /// attach the pristine index to the running server mid-drill.
    kIndexCorruption,
    /// Publish an answer-equivalent catalog snapshot halfway through the
    /// phase's request stream: answers before and after must agree and the
    /// plan cache must survive the swap.
    kCatalogSwapRace,
    /// Block every worker inside a fetch, fill the bounded queue, and
    /// prove overflow rejects deterministically with kResourceExhausted
    /// while the retry-after hint reports the queued backlog; then release
    /// the gate and drain everything.
    kPoolSaturation,
  };

  std::string name;
  /// Fault schedules active while the phase runs. Keys are source names or
  /// capability-view names (FaultInjector::SetSchedule semantics); empty
  /// means the phase is fault-free.
  std::map<std::string, FaultSchedule> faults;
  Action action = Action::kNone;
};

/// \brief Drill-wide knobs. Everything that shapes outcomes is either here
/// or in the phase script, so one (script, options) pair replays
/// byte-identically.
struct ChaosOptions {
  /// Drives request seeds, and — in StandardChaosScript — the choice of
  /// flap/storm targets and fault magnitudes.
  uint64_t seed = 0;
  /// Sequential requests issued per phase (round-robin over the queries).
  size_t requests_per_phase = 6;
  /// End-to-end tick budget stamped on every drill request; storms and
  /// retry backoff draw it down, and exhaustion degrades per §7.
  uint64_t request_deadline_ticks = 256;
  /// Base server configuration. The harness overrides
  /// request_deadline_ticks from above and, when the breaker policy is
  /// left disabled, turns on breakers and hedging with their defaults (a
  /// chaos drill without breakers has nothing to recover).
  ServerOptions server;
  /// Submissions past threads + queue_capacity during kPoolSaturation —
  /// each must be rejected, deterministically.
  size_t saturation_overflow = 3;
  /// Fault-free request rounds allowed for every breaker to re-close
  /// after the scripted phases before the drill declares non-recovery.
  size_t max_recovery_rounds = 16;
};

/// \brief The outcome of one drill. `report` (and `traces`) are built only
/// from deterministic inputs — virtual-clock ticks, seeded coins, breaker
/// event counts — so two runs of the same (sources, catalog, queries,
/// script, options) produce byte-identical strings; the chaos tests and
/// the CI drill job diff them.
struct ChaosDrillResult {
  /// Per-phase outcome tallies, breaker states, recovery verdict.
  std::string report;
  /// The span tree of the first request of every sequential phase
  /// (Tracer::ToText on the request's virtual clock).
  std::string traces;
  /// Every answered request's roots were a subset of the fault-free
  /// baseline (degraded answers sound, §7), and every kComplete answer was
  /// byte-identical to it.
  bool sound = true;
  /// After the script: breakers re-closed, answers byte-identical to the
  /// baseline, plan cache retained.
  bool recovered = true;
  /// Human-readable descriptions of every violated invariant (empty iff
  /// sound && recovered).
  std::vector<std::string> violations;
};

/// \brief The standard drill script: baseline, endpoint flap (a dead
/// capability view), latency storm (slow replies on a view, provoking
/// hedges and deadline pressure), flaky network, index corruption
/// mid-drill, answer-equivalent snapshot swap race, and pool saturation.
/// Targets and magnitudes are drawn deterministically from options.seed,
/// preferring views of replicated sources (so failover and hedging have
/// somewhere to go).
std::vector<ChaosPhase> StandardChaosScript(
    const std::vector<SourceDescription>& sources,
    const ChaosOptions& options);

/// \brief Runs \p script against a live QueryServer over \p sources /
/// \p catalog and checks the drill invariants:
///
///  1. soundness — every answer's roots ⊆ the fault-free baseline's, and
///     complete answers are byte-identical to it;
///  2. determinism — the returned report/traces depend only on the
///     arguments (callers replay and diff);
///  3. recovery — after the script plus fault-free recovery rounds, every
///     breaker is closed, answers match the baseline byte-for-byte, and
///     the plan cache still holds the drilled queries' plans.
///
/// Fails (the Result) only on setup errors — unanswerable fixture queries,
/// Mediator::Make rejection; invariant violations are reported in the
/// ChaosDrillResult instead, with the evidence in `violations`.
Result<ChaosDrillResult> RunChaosDrill(
    const std::vector<SourceDescription>& sources,
    const SourceCatalog& catalog, const std::vector<TslQuery>& queries,
    const std::vector<ChaosPhase>& script, const ChaosOptions& options);

}  // namespace tslrw

#endif  // TSLRW_TESTING_CHAOS_H_
