#pragma once

// PartitionService — the trained predictor as a long-lived, thread-safe
// serving component.
//
// Clients on any thread submit() LaunchRequests (or call() synchronously)
// and the service answers "how should this task be split?" and executes
// the split on the target machine's simulated devices. Internals:
//
//   - a lock-free fingerprinted decision cache (serve/cache.hpp): the
//     (machine, program) pair is interned once (common::PairInterner) and
//     folded with the quantized launch signature into a 128-bit
//     fingerprint, so the warm path never builds a key string or
//     signature vector;
//   - inline hit serving: a warm request that hits the cache (and, with
//     refinement on, is not selected for a probe) is decided AND executed
//     on the caller's thread using a per-machine pool of atomically
//     claimed inline lanes — it never touches the batching queue, a
//     worker thread, or any mutex. The decision fast path (fingerprint,
//     cache lookup, stats) is allocation-free; the response payload
//     (partitioning copy, per-device execution report) still allocates,
//     as does submit()'s future (call() avoids it);
//   - a per-machine batching request queue for misses and refiner probes:
//     concurrently submitted requests coalesce and are drained in batches
//     (up to maxBatch per worker wakeup) by lane workers running on a
//     common::ThreadPool. Each lane owns a private vcl::Context +
//     runtime::Scheduler, so one process serves multi-machine fleets
//     (mc1 + mc2) concurrently while per-lane simulated clocks stay
//     isolated;
//   - an online feedback recorder (serve/feedback.hpp) that measures each
//     distinct executed launch into a FeatureDatabase; cache hits skip it
//     (the recorder deduplicates on the launch signature, and a hit's
//     signature was recorded when it first missed), so the warm path
//     takes no feedback lock — except after mergeRemoteWins() wrote
//     remote incumbents through into the cache, when hits backfill
//     through the recorder's dedup (see feedbackBackfill_).
//     retrain() refreshes every machine's model
//     from the accumulated traffic and bumps the cache version,
//     invalidating all cached decisions;
//   - an optional online refiner (adapt/refiner.hpp, config.refine): a
//     bounded local search per launch signature, addressed by the same
//     fingerprint the cache path computed. Probe decisions enqueue for
//     lane workers (carrying their decision, so it is made exactly once);
//     exploit decisions execute inline. With refinement on, the hit path
//     does take the refiner's shard mutex;
//   - striped stats (serve/stats.hpp): per-thread request counters,
//     machine load accumulators and latency reservoirs, merged on
//     stats() read — no statsMutex anywhere on the serving path.
//
// Machine registration freezes at the first submit(): after that the
// machine map is read without locking. Shutdown drains the queue: every
// accepted request is answered before the destructor returns;
// submissions after shutdown() throw tp::Error.

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "adapt/refiner.hpp"
#include "common/annotations.hpp"
#include "common/intern.hpp"
#include "common/striped.hpp"
#include "common/thread_pool.hpp"
#include "ml/classifier.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "ocl/queue.hpp"
#include "runtime/partitioning.hpp"
#include "serve/cache.hpp"
#include "serve/feedback.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "sim/machine.hpp"

namespace tp::serve {

/// Per-machine admission breaker: when the machine's SLO window burns
/// error budget past the ceiling (or inline lanes exhaust faster than
/// the ceiling), new requests for it are shed — answered immediately
/// with LaunchResponse::shed set, nothing decided or executed — until
/// the window recovers. Evaluation is amortized (every evalEvery-th
/// admission, single winner via CAS claim) so the warm path pays one
/// relaxed counter bump and one relaxed flag load. Trip and clear both
/// take consecutive agreeing evaluations (hysteresis mirroring
/// obs::HealthMonitor), so one bad window cannot flap the breaker.
struct BreakerConfig {
  bool enabled = false;
  /// Trip when the SLO report is breached AND max(burnRateP99,
  /// burnRateP999) exceeds this.
  double burnRateCeiling = 2.0;
  /// Trip when inline-lane-exhaustion bounces per submitted request
  /// (delta since the previous evaluation) exceed this.
  double laneExhaustionCeiling = 0.5;
  std::size_t tripAfter = 2;   ///< consecutive hot evaluations to open
  std::size_t clearAfter = 3;  ///< consecutive cool evaluations to close
  /// Evaluate once per this many admissions to the machine.
  std::uint64_t evalEvery = 256;
  /// Lane-exhaustion judgment needs at least this many submissions since
  /// the previous evaluation (the SLO arm judges regardless — its own
  /// minSamples gate lives in the tracker).
  std::uint64_t minSamplesPerEval = 64;
};

struct ServiceConfig {
  int divisions = 10;  ///< partitioning-space step granularity (10 = 10%)
  std::size_t cacheCapacity = 1024;  ///< rounded up to a power of two
  int cacheRoundDigits = 6;  ///< significant digits in cache keys
  /// Distinct (machine, program) pairs the intern table can hold; pairs
  /// beyond it serve uncached/unrefined (the model path still answers).
  std::size_t internCapacity = 4096;
  std::size_t maxBatch = 16;  ///< max requests drained per worker wakeup
  std::size_t lanesPerMachine = 2;  ///< concurrent scheduler lanes (queue path)
  /// Per-machine inline execution lanes for cache-hit serving on caller
  /// threads; 0 = auto (2x hardware concurrency in [16, 64]). Lane
  /// contexts are built lazily on first claim. When every inline lane is
  /// busy the hit falls back to the batching queue.
  std::size_t inlineLanes = 0;
  std::size_t workerThreads = 0;  ///< 0 = one thread per lane
  std::size_t latencyWindow = 8192;  ///< samples kept per latency stripe
  bool recordFeedback = true;  ///< measure executed launches for retrain()
  std::string retrainSpec = "forest:32";  ///< ml::makeClassifier spec
  std::uint64_t retrainSeed = 42;
  vcl::ExecMode execMode = vcl::ExecMode::TimeOnly;
  /// Online partition refinement (adapt::Refiner). Off by default: with
  /// refinement on, served labels may deliberately deviate from the pure
  /// model prediction on explored/refined traffic.
  bool refine = false;
  adapt::RefinerConfig refiner;
  /// Optional metrics registry. When set, the service registers readout
  /// callbacks for its existing striped counters, cache/refiner/interner
  /// counters and latency summary under `metricsPrefix` — the service
  /// counters stay the single source of truth; the registry samples them
  /// at exposition time (no double accounting). It also records request
  /// latency into an owned `<prefix>latency_ns` histogram. Everything
  /// under the prefix is removed in the destructor, so the registry must
  /// outlive the service.
  obs::Registry* metrics = nullptr;
  /// Namespace for this service's registry entries. Fleets override it
  /// per replica (e.g. "replica0.serve.") to keep entries distinct.
  std::string metricsPrefix = "serve.";
  /// Per-machine latency SLO tracking (obs::SloTracker). Off unless the
  /// config carries a target (slo.enabled()); when on, every served
  /// request also records into its machine's sliding-window tracker, and
  /// sloReport()/registerHealthRules() judge the window against the
  /// targets. With metrics set, per-machine burn-rate gauges register
  /// under `<metricsPrefix>slo.<machine>.*`.
  obs::SloConfig slo;
  /// SLO-driven admission breaker (load shedding). Off by default; the
  /// burn-rate arm additionally needs slo.enabled().
  BreakerConfig breaker;
};

/// Thresholds for the stock detector rules registerHealthRules()
/// installs. Rate rules judge deltas between consecutive evaluations —
/// recent behaviour, not lifetime averages — so each keeps its own
/// previous-counter state inside the rule closure (the monitor runs
/// rules serially under its mutex; see obs/health.hpp).
struct HealthRulesConfig {
  std::size_t triggerAfter = 2;  ///< consecutive firings before the event
  std::size_t clearAfter = 2;    ///< consecutive quiets before recovery
  /// cache_hit_collapse: hit rate since the last evaluation below this
  /// floor (with at least minLookupsPerEval lookups) fires.
  double hitRateFloor = 0.5;
  std::uint64_t minLookupsPerEval = 256;
  /// eviction_storm: evictions per lookup since the last evaluation.
  double evictionStormCeiling = 0.25;
  /// probe_storm (refinement only): exploration probes per refiner
  /// decision since the last evaluation.
  double probeStormCeiling = 0.5;
  /// lane_exhaustion: all-inline-lanes-busy bounces per submitted
  /// request since the last evaluation.
  double laneExhaustionCeiling = 0.25;
  std::uint64_t minSubmitsPerEval = 256;
  /// retrain_overrun: wall seconds of the most recent retrain() pass
  /// (stays firing until a faster retrain lands).
  double retrainOverrunSeconds = 30.0;
};

class PartitionService {
public:
  explicit PartitionService(ServiceConfig config = {});
  ~PartitionService();  ///< shutdown(): drains before destruction

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Register a machine with its deployed model. All machines must be
  /// registered before the first submit() (the worker pool is sized to
  /// the registered lanes and the machine map freezes), and must share
  /// one partitioning-space size (same device count) so feedback records
  /// share a schema.
  void addMachine(const sim::MachineConfig& machine,
                  std::shared_ptr<const ml::Classifier> model);
  /// Convenience: load a model saved with ml::Classifier::saveFile().
  void addMachine(const sim::MachineConfig& machine,
                  const std::string& modelPath);

  /// Enqueue a request; the future resolves when it has been decided and
  /// executed (or faults with tp::Error). Warm hits are served inline on
  /// the calling thread and return an already-resolved future.
  std::future<LaunchResponse> submit(LaunchRequest request);

  /// Synchronous entry point. For warm hits this is the allocation-light
  /// fast path (no future, no queue); misses fall back to submit().get().
  LaunchResponse call(LaunchRequest request);

  /// The unbatched, uncached reference path: extract features and ask the
  /// machine's current model directly. Served decisions always equal this
  /// (for the same model version).
  std::size_t predictLabel(const std::string& machine,
                           const runtime::Task& task) const;

  struct RetrainResult {
    std::uint64_t modelVersion = 0;  ///< cache generation after the bump
    std::size_t machinesRetrained = 0;
    std::size_t recordsUsed = 0;  ///< feedback records in the snapshot
  };
  /// Refresh every machine's model from the recorded traffic (machines
  /// without records keep their model), then invalidate the cache.
  RetrainResult retrain();

  // ---- fleet surface ------------------------------------------------------
  // Hooks for tp::fleet: replicated serving with gossiped refiner wins,
  // model fan-out and snapshot persistence. Each is safe to call
  // concurrently with traffic.

  /// Current cache/model generation.
  std::uint64_t modelVersion() const noexcept;

  struct DeployedModel {
    std::string machine;
    std::shared_ptr<const ml::Classifier> model;
  };
  /// The deployed model of every registered machine (name order), for
  /// snapshotting. The shared_ptrs alias the live models.
  std::vector<DeployedModel> deployedModels() const;

  /// Export the refiner's transferable state (empty when refinement is
  /// off). `refinedOnly` selects adopted wins (gossip) vs every tracked
  /// key (snapshots).
  std::vector<adapt::WinRecord> exportRefinedWins(bool refinedOnly = true) const;

  /// Merge win records from a peer replica (or a snapshot): stale-version
  /// records are rejected, accepted evidence merges into the refiner, and
  /// each adopted incumbent is written through into the decision cache so
  /// warm traffic serves it without a probe. With refinement off all
  /// records count as dropped.
  adapt::MergeResult mergeRemoteWins(const std::vector<adapt::WinRecord>& wins);

  /// The refiner's incumbent for a key at a model generation, addressed
  /// under the service's fingerprint scheme (test/introspection surface;
  /// untracked when refinement is off).
  adapt::Refiner::Incumbent refinedIncumbent(const adapt::RefineKey& key,
                                             std::uint64_t version) const;

  struct ModelUpdate {
    std::string machine;
    std::shared_ptr<const ml::Classifier> model;
  };
  /// Install externally trained models as generation `version` and sweep
  /// cached decisions of older generations. `version` must not be behind
  /// the current generation; installing AT the current generation drops
  /// every cached decision instead (the previous models' labels must not
  /// survive the swap as hits). Machines absent from `updates` keep
  /// their model but are stamped with the new generation (it is
  /// fleet-global). Used by fleet retrain fan-out and snapshot
  /// warm-start.
  void installModels(const std::vector<ModelUpdate>& updates,
                     std::uint64_t version);

  /// Consistent copy of the recorded feedback traffic; throws tp::Error
  /// before the first addMachine() (no schema yet).
  runtime::FeatureDatabase trafficSnapshot() const;

  /// Block until every accepted request has been answered.
  void drain();
  /// Stop accepting, then drain. Idempotent.
  void shutdown();

  ServiceStats stats() const;

  /// The machine's sliding-window SLO judgment (quantiles, burn rates,
  /// breached flag); a default-constructed Report when SLO tracking is
  /// disabled. Safe concurrently with traffic.
  obs::SloTracker::Report sloReport(const std::string& machine) const;

  /// Run one admission-breaker evaluation for `machine` right now
  /// (deterministic test hook; production evaluations ride every
  /// breaker.evalEvery-th admission). No-op unless config.breaker.enabled.
  void evaluateBreakerNow(const std::string& machine);
  /// Whether `machine`'s admission breaker is currently open (shedding).
  bool breakerOpen(const std::string& machine) const;

  /// Install this service's stock detector rules into `monitor`, named
  /// under metricsPrefix (so removeRulesByPrefix(metricsPrefix) unhooks
  /// them): latency_slo (Critical, aggregated over machines — a
  /// fleet-wide latency incident pages once, the firing names the worst
  /// burner), cache_hit_collapse, eviction_storm, probe_storm (with
  /// refinement on), lane_exhaustion and retrain_overrun. The closures
  /// capture `this`: stop the monitor (or remove the rules) before this
  /// service is destroyed.
  void registerHealthRules(obs::HealthMonitor& monitor,
                           const HealthRulesConfig& rules = {});

  const runtime::PartitioningSpace& space(const std::string& machine) const;
  const DecisionCache& cache() const noexcept { return *cache_; }
  const common::PairInterner& interner() const noexcept { return *interner_; }
  /// nullptr unless config.refine is set.
  const adapt::Refiner* refiner() const noexcept { return refiner_.get(); }

  /// Persist the recorded traffic database as CSV.
  void saveTraffic(const std::string& path) const;

private:
  struct PendingRequest;
  struct MachineState;

  /// A decision already made on the submit path, carried to the queue so
  /// refiner decisions are made (and counted) exactly once per request.
  struct PreDecision {
    bool decided = false;  ///< label/explore/refined/cacheHit are valid
    bool fingerprinted = false;  ///< fp/pairId/version are valid
    bool lookedUp = false;  ///< the cache probe already ran (and missed)
    common::Fingerprint fp;
    std::uint32_t pairId = common::PairInterner::kInvalid;
    std::uint64_t version = 0;
    std::size_t label = 0;
    bool cacheHit = false;
    bool explore = false;
    bool refined = false;
  };

  MachineState& state(const std::string& name) const;
  /// Lock-free machine lookup once the map is frozen; nullptr before.
  /// Callers must have observed frozen_ == true (acquire).
  MachineState* stateFast(const std::string& name) const noexcept
      TP_LOCK_FREE_AUDITED(
          "machines_ is immutable once frozen_ is published (release in "
          "ensurePool, acquire here); TSan: test_serve "
          "PartitionService.ConcurrentClientsGetConsistentDecisions");
  /// The feedback recorder after the freeze: the pointer was written by
  /// addMachine() under machinesMutex_ and published by the frozen_
  /// release store; post-freeze readers need no lock.
  FeedbackRecorder* feedbackPostFreeze() const noexcept
      TP_LOCK_FREE_AUDITED(
          "feedback_ is write-once before frozen_ is published; hot paths "
          "only read it after an acquire of frozen_; TSan: test_serve "
          "PartitionService.ConcurrentClientsGetConsistentDecisions") {
    return feedback_.get();
  }
  /// The worker pool after the freeze (same publication contract).
  common::ThreadPool& poolPostFreeze() const noexcept
      TP_LOCK_FREE_AUDITED(
          "pool_ is write-once before frozen_ is published; TSan: "
          "test_serve PartitionService.RetrainUnderLiveTrafficDoesNot"
          "Deadlock") {
    return *pool_;
  }
  /// The full decision key of a launch at an explicit generation — the
  /// one place the (machine, program, quantized signature) layout is
  /// materialized on serving paths.
  DecisionKey fullKeyAt(const MachineState& ms, const runtime::Task& task,
                        std::uint64_t version) const;
  common::ThreadPool& ensurePool();
  /// Hook this service's counters/summaries into config_.metrics under
  /// config_.metricsPrefix (constructor-only; callbacks capture `this`).
  void registerMetrics();
  /// Record one served request into the striped latency structures and
  /// the machine's SLO tracker (when configured).
  void recordLatency(MachineState& ms, double seconds) noexcept;
  void workerLoop(MachineState& ms, std::size_t lane);
  void process(MachineState& ms, std::size_t lane, PendingRequest pending);
  std::size_t predictWithModel(const MachineState& ms,
                               const runtime::Task& task) const;
  /// Serve a warm hit on the caller thread. Returns true when `response`
  /// was filled; false leaves `carry` for the queue path.
  bool tryServeInline(MachineState& ms, const LaunchRequest& request,
                      LaunchResponse& response, PreDecision& carry);
  struct AdmitResult {
    MachineState* ms = nullptr;
    bool served = false;
  };
  /// Shared prologue of submit()/call(): resolve the machine, run the
  /// lifecycle accounting (inFlight/accepting/submitted), and attempt
  /// inline serving. Validation failures (unknown machine, post-shutdown)
  /// throw with no request admitted; inline execution faults rethrow
  /// after failed_/inFlight accounting with `inlineFault` set so submit()
  /// can translate them into a faulted future.
  AdmitResult admitAndTryInline(LaunchRequest& request,
                                LaunchResponse& response, PreDecision& carry,
                                bool& inlineFault);
  /// Amortized breaker evaluation on the admission path: bumps the
  /// machine's admission tick and runs evaluateBreaker() on every
  /// breaker.evalEvery-th admission.
  void maybeEvaluateBreaker(MachineState& ms);
  /// One breaker evaluation: judge the SLO burn rate and lane-exhaustion
  /// delta, advance the trip/clear streaks, flip the shedding flag.
  void evaluateBreaker(MachineState& ms);
  std::future<LaunchResponse> enqueue(MachineState& ms, LaunchRequest request,
                                      PreDecision carry);
  /// Execute + observe + account one decided request (both paths).
  void finishDecided(MachineState& ms, runtime::Scheduler& lane,
                     const runtime::Task& task, LaunchResponse& response,
                     const PreDecision& decision);

  ServiceConfig config_;
  std::unique_ptr<common::PairInterner> interner_;
  std::unique_ptr<DecisionCache> cache_;
  std::unique_ptr<adapt::Refiner> refiner_;  ///< set when config_.refine

  /// Guards machines_, pool_ and feedback_ during registration; once
  /// frozen_ is published all three are immutable and the audited
  /// *PostFreeze()/stateFast() accessors read them lock-free.
  mutable common::Mutex machinesMutex_;
  std::map<std::string, std::unique_ptr<MachineState>> machines_
      TP_GUARDED_BY(machinesMutex_);
  std::unique_ptr<FeedbackRecorder> feedback_ TP_GUARDED_BY(machinesMutex_);
  /// Set (under machinesMutex_) when the pool spins up; from then on
  /// machines_ is immutable and read without the mutex.
  std::atomic<bool> frozen_{false};

  std::atomic<bool> accepting_{true};
  common::StripedLatch inFlight_;  ///< admitted vs answered; drain() waits
  /// Set once mergeRemoteWins() has written remote incumbents through
  /// into the cache: such keys can be served warm without ever having
  /// missed locally, so from then on cache hits also run the feedback
  /// recorder's dedup (one mutex probe) instead of skipping it — the
  /// local traffic database keeps capturing every launch this service
  /// serves. Never set outside fleet/snapshot use: the plain warm path
  /// stays recorder-free.
  std::atomic<bool> feedbackBackfill_{false};

  common::StripedCounter submitted_;
  common::StripedCounter completed_;
  common::StripedCounter failed_;
  common::StripedCounter inlineHits_;
  /// Warm hits bounced to the batching queue because every inline lane
  /// was busy (the lane_exhaustion detector's numerator).
  common::StripedCounter inlineLaneExhausted_;
  /// Requests fast-failed by an open admission breaker (they count as
  /// completed too — every admitted request is answered exactly once).
  common::StripedCounter shed_;
  /// Closed-to-open breaker transitions across all machines.
  std::atomic<std::uint64_t> breakerTrips_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> maxBatch_{0};
  std::atomic<std::uint64_t> retrains_{0};
  /// Wall seconds of the most recent retrain() pass (last-write-wins;
  /// the retrain_overrun detector's input).
  std::atomic<double> lastRetrainSeconds_{0.0};
  LatencyRecorder latency_;
  /// Owned by config_.metrics (created in registerMetrics, destroyed by
  /// the destructor's removeByPrefix); nullptr when metrics are off.
  obs::Histogram* obsLatency_ = nullptr;

  /// Created at first submit (under machinesMutex_, published by frozen_).
  std::unique_ptr<common::ThreadPool> pool_ TP_GUARDED_BY(machinesMutex_);
};

}  // namespace tp::serve
