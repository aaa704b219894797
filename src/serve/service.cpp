#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/striped.hpp"
#include "features/runtime_features.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "ocl/context.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"

namespace tp::serve {

namespace {

using Clock = obs::Clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::size_t autoInlineLanes(std::size_t configured) {
  // The default tracks the stripe heuristic (2x hardware concurrency in
  // [16, 64]): enough lanes that concurrent warm callers rarely collide,
  // bounded so lane *slots* stay cheap — contexts are built lazily on
  // first claim, so unused lanes cost a few pointers.
  return configured != 0 ? configured : common::defaultStripes();
}

}  // namespace

struct PartitionService::PendingRequest {
  LaunchRequest request;
  std::promise<LaunchResponse> promise;
  Clock::time_point enqueued;
  PreDecision carry;
};

struct PartitionService::MachineState {
  sim::MachineConfig machine;
  runtime::PartitioningSpace space;

  mutable common::SharedMutex modelMutex;
  std::shared_ptr<const ml::Classifier> model TP_GUARDED_BY(modelMutex);
  /// Cache generation this model serves.
  std::uint64_t modelVersion TP_GUARDED_BY(modelMutex) = 0;

  // Request queue + lane occupancy, guarded by queueMutex. Each lane owns
  // a private context/scheduler so simulated clocks never interleave.
  common::Mutex queueMutex;
  std::deque<PendingRequest> queue TP_GUARDED_BY(queueMutex);
  // laneContexts/lanes are built once in the constructor; a worker only
  // touches lanes[l] while it owns laneBusy[l] (set under queueMutex), so
  // the vectors themselves are immutable and carry no guard.
  std::vector<std::unique_ptr<vcl::Context>> laneContexts;
  std::vector<std::unique_ptr<runtime::Scheduler>> lanes;
  std::vector<char> laneBusy TP_GUARDED_BY(queueMutex);

  // Inline execution lanes for cache hits served on caller threads.
  // Claimed with a single CAS, never a mutex; like the queue lanes, each
  // owns a private context/scheduler, so simulated clocks stay isolated
  // and inline results are bit-identical to lane-worker results
  // (Scheduler::execute resets clocks per call). The context/scheduler
  // are built lazily by the first claimer (the claim CAS serializes
  // ownership; busy release/acquire publishes the construction), so
  // startup cost scales with actual client concurrency, not with
  // cores x machines. Each lane fills its own cache line: callers
  // claiming neighbouring lanes would otherwise bounce one shared line on
  // every claim and release.
  struct alignas(common::kCacheLineBytes) InlineLane {
    std::atomic<std::uint32_t> busy{0};
    std::unique_ptr<vcl::Context> context;
    std::unique_ptr<runtime::Scheduler> scheduler;
  };
  std::vector<InlineLane> inlineLanes;
  common::ThreadPool* computePool = nullptr;  ///< Compute-mode helper pool

  MachineLoadStats load;  ///< striped per-thread request accounting
  /// Sliding-window SLO judgment; set when config.slo.enabled(). Fed by
  /// recordLatency on both serving paths, drained by sloReport() and the
  /// latency_slo detector.
  std::unique_ptr<obs::SloTracker> slo;

  // Admission breaker (ServiceConfig::breaker). The warm path touches
  // only admitTick (relaxed bump) and shedding (relaxed load); everything
  // else belongs to the single evaluation winner holding evalBusy via
  // ClaimGuard — the claim's acq_rel CAS orders the streak/prev fields
  // between consecutive winners, so they need no mutex and no atomics.
  std::atomic<std::uint64_t> admitTick{0};
  std::atomic<std::uint32_t> evalBusy{0};
  std::atomic<std::uint32_t> shedding{0};
  std::size_t hotStreak = 0;            ///< evalBusy holder only
  std::size_t coolStreak = 0;           ///< evalBusy holder only
  std::uint64_t prevSubmitted = 0;      ///< evalBusy holder only
  std::uint64_t prevExhausted = 0;      ///< evalBusy holder only

  MachineState(const sim::MachineConfig& m,
               std::shared_ptr<const ml::Classifier> mdl,
               const ServiceConfig& config)
      : machine(m),
        space(m.numDevices(), config.divisions),
        model(std::move(mdl)),
        load(m.numDevices()) {
    const std::size_t numLanes = std::max<std::size_t>(1, config.lanesPerMachine);
    computePool =
        config.execMode == vcl::ExecMode::Compute ? &common::globalThreadPool()
                                                  : nullptr;
    for (std::size_t l = 0; l < numLanes; ++l) {
      laneContexts.push_back(
          std::make_unique<vcl::Context>(machine, config.execMode, computePool));
      lanes.push_back(std::make_unique<runtime::Scheduler>(*laneContexts.back()));
    }
    laneBusy.assign(numLanes, 0);
    inlineLanes = std::vector<InlineLane>(autoInlineLanes(config.inlineLanes));
    if (config.slo.enabled()) {
      slo = std::make_unique<obs::SloTracker>(config.slo);
    }
  }
};

PartitionService::PartitionService(ServiceConfig config)
    : config_(std::move(config)),
      interner_(std::make_unique<common::PairInterner>(config_.internCapacity)),
      cache_(std::make_unique<DecisionCache>(config_.cacheCapacity,
                                             config_.cacheRoundDigits)),
      latency_(config_.latencyWindow) {
  if (config_.refine) {
    // The refiner reuses the serving fingerprint scheme: keys map through
    // the same intern table + launchFingerprint as the decision cache, so
    // the warm path's fingerprint addresses both structures. Pairs the
    // intern table cannot hold serve unrefined.
    refiner_ = std::make_unique<adapt::Refiner>(
        config_.refiner,
        [this](const adapt::RefineKey& key)
            -> std::optional<common::Fingerprint> {
          const std::uint32_t pairId =
              interner_->intern(key.machine, key.program);
          if (pairId == common::PairInterner::kInvalid) return std::nullopt;
          return launchFingerprint(pairId, key.signature);
        });
  }
  if (config_.metrics != nullptr) registerMetrics();
}

PartitionService::~PartitionService() {
  shutdown();
  if (config_.metrics != nullptr) {
    // Drops the readout callbacks (they capture `this`) and the owned
    // latency histogram; no request can be in flight after shutdown().
    config_.metrics->removeByPrefix(config_.metricsPrefix);
  }
}

void PartitionService::registerMetrics()
    TP_LOCK_FREE_AUDITED(
        "registers readout lambdas doing relaxed loads of independent "
        "monotonic stat words; per-word exactness is the contract; TSan: "
        "test_serve PartitionService.StatsConcurrentWithAddMachineIs"
        "Consistent") {
  obs::Registry& reg = *config_.metrics;
  const std::string& p = config_.metricsPrefix;
  reg.registerCounter(p + "requests_submitted",
                      [this] { return submitted_.total(); });
  reg.registerCounter(p + "requests_completed",
                      [this] { return completed_.total(); });
  reg.registerCounter(p + "requests_failed",
                      [this] { return failed_.total(); });
  reg.registerCounter(p + "requests_inline",
                      [this] { return inlineHits_.total(); });
  reg.registerCounter(p + "inline_lane_exhausted",
                      [this] { return inlineLaneExhausted_.total(); });
  reg.registerCounter(p + "requests_shed", [this] { return shed_.total(); });
  reg.registerCounter(p + "breaker_trips", [this] {
    return breakerTrips_.load(std::memory_order_relaxed);
  });
  reg.registerGauge(p + "breaker_open", [this] {
    // Number of machines currently shedding (0 = all breakers closed).
    double open = 0.0;
    common::MutexLock lock(machinesMutex_);
    for (const auto& [name, ms] : machines_) {
      (void)name;
      if (ms->shedding.load(std::memory_order_relaxed) != 0) open += 1.0;
    }
    return open;
  });
  reg.registerCounter(p + "batches", [this] {
    return batches_.load(std::memory_order_relaxed);
  });
  reg.registerGauge(p + "max_batch", [this] {
    return static_cast<double>(maxBatch_.load(std::memory_order_relaxed));
  });
  reg.registerCounter(p + "retrains", [this] {
    return retrains_.load(std::memory_order_relaxed);
  });
  reg.registerGauge(p + "model_version", [this] {
    return static_cast<double>(cache_->version());
  });
  reg.registerCounter(p + "cache.lookups",
                      [this] { return cache_->counters().lookups; });
  reg.registerCounter(p + "cache.hits",
                      [this] { return cache_->counters().hits; });
  reg.registerCounter(p + "cache.misses",
                      [this] { return cache_->counters().misses; });
  reg.registerCounter(p + "cache.insertions",
                      [this] { return cache_->counters().insertions; });
  reg.registerCounter(p + "cache.evictions",
                      [this] { return cache_->counters().evictions; });
  reg.registerCounter(p + "cache.invalidations",
                      [this] { return cache_->counters().invalidations; });
  reg.registerCounter(p + "cache.collisions",
                      [this] { return cache_->counters().collisions; });
  reg.registerGauge(p + "cache.hit_rate",
                    [this] { return cache_->counters().hitRate(); });
  reg.registerGauge(p + "interned_pairs", [this] {
    return static_cast<double>(interner_->size());
  });
  reg.registerCounter(p + "intern_rejections",
                      [this] { return interner_->fullRejections(); });
  if (refiner_ != nullptr) {
    reg.registerCounter(p + "refiner.decisions",
                        [this] { return refiner_->counters().decisions; });
    reg.registerCounter(p + "refiner.explorations",
                        [this] { return refiner_->counters().explorations; });
    reg.registerCounter(p + "refiner.exploitations",
                        [this] { return refiner_->counters().exploitations; });
    reg.registerCounter(p + "refiner.observations",
                        [this] { return refiner_->counters().observations; });
    reg.registerCounter(p + "refiner.wins",
                        [this] { return refiner_->counters().wins; });
    reg.registerCounter(p + "refiner.merged_wins",
                        [this] { return refiner_->counters().mergedWins; });
    reg.registerCounter(p + "refiner.resets",
                        [this] { return refiner_->counters().resets; });
    reg.registerCounter(p + "refiner.stale_observations", [this] {
      return refiner_->counters().staleObservations;
    });
    reg.registerCounter(p + "refiner.untracked",
                        [this] { return refiner_->counters().untracked; });
    reg.registerGauge(p + "refiner.tracked_keys", [this] {
      return static_cast<double>(refiner_->trackedKeys());
    });
  }
  reg.registerSummary(p + "latency", [this] {
    const LatencyRecorder::Summary s = latency_.summary();
    return obs::SummarySnapshot{s.count, s.meanSeconds, s.maxSeconds,
                                s.p50Seconds, s.p95Seconds};
  });
  obsLatency_ = &reg.histogram(p + "latency_ns");
}

void PartitionService::recordLatency(MachineState& ms, double seconds) noexcept {
  latency_.add(seconds);
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  if (obsLatency_ != nullptr) obsLatency_->record(ns);
  if (ms.slo != nullptr) ms.slo->record(ns);
}

void PartitionService::addMachine(const sim::MachineConfig& machine,
                                  std::shared_ptr<const ml::Classifier> model) {
  TP_REQUIRE(model != nullptr, "PartitionService: null model for machine "
                                   << machine.name);
  TP_REQUIRE(machine.numDevices() > 0,
             "PartitionService: machine " << machine.name << " has no devices");
  auto state = std::make_unique<MachineState>(machine, std::move(model), config_);
  MachineState* ms = state.get();
  {
    common::MutexLock lock(machinesMutex_);
    // The worker pool is sized to the registered lanes at the first
    // submit(), and the machine map is read lock-free afterwards; a machine
    // added later would be both under-provisioned and unsynchronized.
    TP_REQUIRE(pool_ == nullptr,
               "PartitionService: register machine "
                   << machine.name << " before the first submit()");
    TP_REQUIRE(machines_.count(machine.name) == 0,
               "PartitionService: machine " << machine.name
                                            << " already registered");
    if (feedback_ == nullptr) {
      feedback_ = std::make_unique<FeedbackRecorder>(state->space.size(),
                                                     config_.cacheRoundDigits);
    } else {
      // Feedback records share one CSV schema: the time vector is indexed by
      // partitioning label, so every machine must span the same space.
      const auto firstSize = machines_.begin()->second->space.size();
      TP_REQUIRE(state->space.size() == firstSize,
                 "PartitionService: machine "
                     << machine.name << " has a partitioning space of size "
                     << state->space.size() << ", expected " << firstSize);
    }
    machines_.emplace(machine.name, std::move(state));
  }
  if (config_.metrics != nullptr && ms->slo != nullptr) {
    // Per-machine SLO gauges. The closures capture the MachineState
    // pointer directly: machines are never removed, report() is a
    // thread-safe snapshot surface, and the destructor's removeByPrefix
    // unhooks these before the state is destroyed.
    obs::Registry& reg = *config_.metrics;
    const std::string p = config_.metricsPrefix + "slo." + machine.name + ".";
    reg.registerGauge(p + "p99_seconds",
                      [ms] { return ms->slo->report().p99Seconds; });
    reg.registerGauge(p + "p999_seconds",
                      [ms] { return ms->slo->report().p999Seconds; });
    reg.registerGauge(p + "burn_rate_p99",
                      [ms] { return ms->slo->report().burnRateP99; });
    reg.registerGauge(p + "burn_rate_p999",
                      [ms] { return ms->slo->report().burnRateP999; });
    reg.registerGauge(p + "breached",
                      [ms] { return ms->slo->report().breached ? 1.0 : 0.0; });
  }
}

void PartitionService::addMachine(const sim::MachineConfig& machine,
                                  const std::string& modelPath) {
  addMachine(machine, std::shared_ptr<const ml::Classifier>(
                          ml::loadClassifierFile(modelPath)));
}

PartitionService::MachineState* PartitionService::stateFast(
    const std::string& name) const noexcept {
  // Only valid once frozen_: from then on machines_ is immutable, so the
  // map lookup (string compares, no allocation) is safe without the lock.
  const auto it = machines_.find(name);
  return it == machines_.end() ? nullptr : it->second.get();
}

PartitionService::MachineState& PartitionService::state(
    const std::string& name) const {
  if (frozen_.load(std::memory_order_acquire)) {
    MachineState* ms = stateFast(name);
    TP_REQUIRE(ms != nullptr,
               "PartitionService: unknown machine '" << name << "'");
    return *ms;
  }
  common::MutexLock lock(machinesMutex_);
  const auto it = machines_.find(name);
  TP_REQUIRE(it != machines_.end(),
             "PartitionService: unknown machine '" << name << "'");
  return *it->second;
}

DecisionKey PartitionService::fullKeyAt(const MachineState& ms,
                                        const runtime::Task& task,
                                        std::uint64_t version) const {
  DecisionKey key;
  key.machine = ms.machine.name;
  key.program = programKey(task);
  key.modelVersion = version;
  key.features = launchSignature(task);
  for (double& f : key.features) {
    f = roundSignificant(f, config_.cacheRoundDigits);
  }
  return key;
}

common::ThreadPool& PartitionService::ensurePool() {
  if (frozen_.load(std::memory_order_acquire)) return poolPostFreeze();
  common::MutexLock lock(machinesMutex_);
  if (pool_ == nullptr) {
    std::size_t threads = config_.workerThreads;
    if (threads == 0) {
      for (const auto& [name, ms] : machines_) {
        (void)name;
        threads += ms->lanes.size();
      }
    }
    pool_ = std::make_unique<common::ThreadPool>(
        std::max<std::size_t>(1, threads));
  }
  // Publishes pool_ AND freezes machines_ for lock-free reads.
  frozen_.store(true, std::memory_order_release);
  return *pool_;
}

bool PartitionService::tryServeInline(MachineState& ms,
                                      const LaunchRequest& request,
                                      LaunchResponse& response,
                                      PreDecision& carry)
    TP_LOCK_FREE_AUDITED(
        "acquire-load of frozen_ pairs with its release store (publishes "
        "pool_ and the machine map); lane ownership is a ClaimGuard CAS "
        "claim released on every path including unwind; TSan: test_serve "
        "PartitionService.ConcurrentClientsGetConsistentDecisions") {
  // Pre-freeze traffic takes the queue path (which initializes the pool
  // and freezes the machine map).
  if (!frozen_.load(std::memory_order_acquire)) return false;
  const runtime::Task& task = request.task;

  // Allocation-free decision fast path: interned pair id -> streamed
  // 128-bit fingerprint -> lock-free cache probe.
  const std::uint32_t pairId =
      interner_->find(request.machine, task.programName, task.kernelName);
  if (pairId == common::PairInterner::kInvalid) return false;  // first sighting
  carry.fingerprinted = true;
  carry.pairId = pairId;
  carry.version = cache_->version();
  carry.fp = launchFingerprint(pairId, task, config_.cacheRoundDigits);
  carry.lookedUp = true;
  const auto hit = cache_->lookup(carry.fp, carry.version);
  if (!hit.has_value()) return false;  // miss: model inference on a lane
  carry.decided = true;
  carry.label = *hit;
  carry.cacheHit = true;

  if (refiner_ != nullptr) {
    // The refiner may override the cached baseline. Probes enqueue for
    // lane workers (carrying this decision — it is made exactly once);
    // exploit decisions stay inline. nullptr key: a hit whose refiner
    // entry is missing serves unrefined rather than re-materializing key
    // strings on the warm path.
    const adapt::RefineDecision rd = refiner_->decide(
        carry.fp, nullptr, carry.version, carry.label, ms.space);
    carry.explore = rd.explore;
    carry.refined = rd.refined;
    if (rd.label != carry.label || rd.explore) {
      carry.cacheHit = false;
      carry.label = rd.label;
    }
    if (rd.explore) return false;  // probe: batching queue
  }

  // Claim an inline lane with one CAS; all busy -> batching queue (the
  // decision travels along). Start the scan at a per-thread offset so
  // concurrent callers spread over lanes instead of convoying on lane 0.
  // The RAII guard keeps the claim exception-safe: any throw below
  // releases the lane on unwind instead of leaking it (lint rule A3).
  const std::size_t numLanes = ms.inlineLanes.size();
  const std::size_t start = common::threadStripe(numLanes);
  MachineState::InlineLane* lane = nullptr;
  std::optional<common::ClaimGuard> claim;
  for (std::size_t i = 0; i < numLanes; ++i) {
    MachineState::InlineLane& candidate =
        ms.inlineLanes[(start + i) % numLanes];
    claim.emplace(candidate.busy);
    if (claim->claimed()) {
      lane = &candidate;
      break;
    }
  }
  if (lane == nullptr) {
    inlineLaneExhausted_.add();
    return false;
  }

  // Sampled (1-in-N per thread): the warm path stays allocation- and
  // lock-free; an unsampled pass costs one relaxed load + branch.
  TP_TRACE_SPAN_SAMPLED("serve.inline_hit", task.globalSize);
  const auto start_time = Clock::now();
  response.label = carry.label;
  response.cacheHit = carry.cacheHit;
  response.modelVersion = carry.version;
  response.explored = false;
  response.refined = carry.refined;
  if (lane->scheduler == nullptr) {
    // First claim of this lane: build its private context/scheduler now
    // (one-time; we own the lane exclusively until the busy release).
    lane->context = std::make_unique<vcl::Context>(
        ms.machine, config_.execMode, ms.computePool);
    lane->scheduler = std::make_unique<runtime::Scheduler>(*lane->context);
  }
  finishDecided(ms, *lane->scheduler, task, response, carry);
  // Release the lane before the feedback/stat trailing work — none of it
  // touches lane state, so the next claimant can start immediately.
  claim->release();
  // Post-freeze path (checked on entry), so the recorder pointer is
  // immutable and read through the audited accessor.
  FeedbackRecorder* feedback = feedbackPostFreeze();
  if (config_.recordFeedback && feedback != nullptr &&
      feedbackBackfill_.load(std::memory_order_relaxed)) {
    // Remote wins were merged into the cache at some point: this hit may
    // be a launch that never missed locally. Backfill through the
    // recorder's dedup so retrain() still sees it (see feedbackBackfill_).
    feedback->record(task, ms.machine, ms.space,
                     request.sizeLabel.empty()
                         ? "n=" + std::to_string(task.globalSize)
                         : request.sizeLabel);
  }
  recordLatency(ms, secondsSince(start_time));
  completed_.add();
  inlineHits_.add();
  return true;
}

void PartitionService::finishDecided(MachineState& ms,
                                     runtime::Scheduler& lane,
                                     const runtime::Task& task,
                                     LaunchResponse& response,
                                     const PreDecision& decision) {
  response.partitioning = ms.space.at(response.label);
  response.execution = lane.execute(task, response.partitioning);

  if (refiner_ != nullptr && decision.fingerprinted) {
    const adapt::Observation obs =
        refiner_->observe(decision.fp, decision.version, response.label,
                          response.execution.makespan, ms.space);
    const bool reinstallIncumbent = obs.tracked && response.refined &&
                                    !response.explored && !response.cacheHit;
    if (obs.improved || reinstallIncumbent) {
      // Measured win: future lookups of this signature serve the refined
      // label (a stale-version key is dropped harmlessly). The reinstall
      // case covers exploiting a previously adopted win whose cache entry
      // was evicted: reinstall the *current* incumbent — not this
      // request's own label, which a concurrent probe's win may have
      // superseded. The full key is materialized here (win write-backs
      // are rare), stamped with the version the decision was made under.
      cache_->insert(decision.fp, fullKeyAt(ms, task, decision.version),
                     obs.bestLabel);
    }
  }

  ms.load.record(response.execution.makespan, response.execution.devices);
}

std::future<LaunchResponse> PartitionService::enqueue(MachineState& ms,
                                                      LaunchRequest request,
                                                      PreDecision carry) {
  TP_TRACE_INSTANT("serve.submit_miss", request.task.globalSize);
  common::ThreadPool& pool = ensurePool();

  PendingRequest pending;
  pending.enqueued = Clock::now();
  if (request.sizeLabel.empty()) {
    request.sizeLabel = "n=" + std::to_string(request.task.globalSize);
  }
  pending.request = std::move(request);
  pending.carry = carry;
  std::future<LaunchResponse> future = pending.promise.get_future();

  {
    common::MutexLock lock(ms.queueMutex);
    ms.queue.push_back(std::move(pending));
    // Wake one idle lane; busy lanes will drain the queue in batches.
    for (std::size_t l = 0; l < ms.laneBusy.size(); ++l) {
      if (!ms.laneBusy[l]) {
        ms.laneBusy[l] = 1;
        pool.submit([this, &ms, l] { workerLoop(ms, l); });
        break;
      }
    }
  }
  return future;
}

PartitionService::AdmitResult PartitionService::admitAndTryInline(
    LaunchRequest& request, LaunchResponse& response, PreDecision& carry,
    bool& inlineFault)
    TP_LOCK_FREE_AUDITED(
        "seq_cst (deliberate, A1-explicit) striped-latch admit, then a "
        "seq_cst check of the accepting_ gate: pairs with shutdown()'s "
        "store-then-drain so no request slips past a closing service "
        "uncounted; TSan: test_serve "
        "PartitionService.ShutdownRacesDrainLoopAndMixedTraffic") {
  // Resolve + lifecycle-check before counting the request, mirroring the
  // queue-era semantics: unknown machines and post-shutdown submissions
  // throw and are never counted as submitted.
  MachineState& ms = state(request.machine);
  inFlight_.admit();
  if (!accepting_.load(std::memory_order_seq_cst)) {
    inFlight_.done();
    throw Error("PartitionService: submit after shutdown");
  }
  submitted_.add();
  if (config_.breaker.enabled) {
    maybeEvaluateBreaker(ms);
    if (ms.shedding.load(std::memory_order_relaxed) != 0) {
      // Fast-fail: answer immediately without deciding or executing.
      // Sheds count as completed — every admitted request is answered
      // exactly once — and the response carries the shed flag so the
      // client can back off.
      shed_.add();
      completed_.add();
      response = LaunchResponse{};
      response.shed = true;
      response.modelVersion = cache_->version();
      inFlight_.done();
      return AdmitResult{&ms, true};
    }
  }
  bool served = false;
  try {
    served = tryServeInline(ms, request, response, carry);
  } catch (...) {
    failed_.add();
    inFlight_.done();
    inlineFault = true;
    throw;
  }
  if (served) inFlight_.done();
  return AdmitResult{&ms, served};
}

std::future<LaunchResponse> PartitionService::submit(LaunchRequest request) {
  LaunchResponse response;
  PreDecision carry;
  bool inlineFault = false;
  AdmitResult admitted;
  try {
    admitted = admitAndTryInline(request, response, carry, inlineFault);
  } catch (...) {
    if (!inlineFault) throw;  // validation: unknown machine / shutdown
    // Inline execution faulted: deliver through the future, like a lane
    // worker fault would have been.
    std::promise<LaunchResponse> p;
    p.set_exception(std::current_exception());
    return p.get_future();
  }
  if (admitted.served) {
    std::promise<LaunchResponse> p;
    p.set_value(std::move(response));
    return p.get_future();
  }
  return enqueue(*admitted.ms, std::move(request), carry);
}

LaunchResponse PartitionService::call(LaunchRequest request) {
  LaunchResponse response;
  PreDecision carry;
  bool inlineFault = false;
  // Both validation and inline-execution faults propagate to the caller
  // directly on the synchronous path.
  const AdmitResult admitted =
      admitAndTryInline(request, response, carry, inlineFault);
  if (admitted.served) return response;
  return enqueue(*admitted.ms, std::move(request), carry).get();
}

void PartitionService::workerLoop(MachineState& ms, std::size_t lane) {
  while (true) {
    std::vector<PendingRequest> batch;
    {
      common::MutexLock lock(ms.queueMutex);
      if (ms.queue.empty()) {
        ms.laneBusy[lane] = 0;
        return;
      }
      const std::size_t take =
          std::min(std::max<std::size_t>(1, config_.maxBatch), ms.queue.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(ms.queue.front()));
        ms.queue.pop_front();
      }
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t seen = maxBatch_.load(std::memory_order_relaxed);
    while (seen < batch.size() &&
           !maxBatch_.compare_exchange_weak(seen, batch.size(),
                                            std::memory_order_relaxed)) {
    }
    TP_TRACE_SPAN_ARG("serve.lane_batch", batch.size());
    for (auto& pending : batch) {
      process(ms, lane, std::move(pending));
    }
  }
}

std::size_t PartitionService::predictWithModel(
    const MachineState& ms, const runtime::Task& task) const {
  const auto x =
      features::combinedFeatureVector(task.features, task.launchInfo());
  common::SharedMutexLockShared lock(ms.modelMutex);
  const int label = ms.model->predict(x);
  TP_REQUIRE(label >= 0 && static_cast<std::size_t>(label) < ms.space.size(),
             "PartitionService: model for "
                 << ms.machine.name << " predicted label " << label
                 << " outside the space of " << ms.space.size());
  return static_cast<std::size_t>(label);
}

void PartitionService::process(MachineState& ms, std::size_t lane,
                               PendingRequest pending)
    TP_LOCK_FREE_AUDITED(
        "relaxed read of the feedbackBackfill_ hint flag; a stale value "
        "only delays backfill by one request, the recorder dedups; TSan: "
        "test_serve PartitionService.ConcurrentClientsGetConsistent"
        "Decisions") {
  LaunchResponse response;
  bool ok = false;
  try {
    const runtime::Task& task = pending.request.task;
    PreDecision d = pending.carry;
    if (!d.fingerprinted) {
      // First sighting of this (machine, program) pair anywhere: intern it
      // (cold path; kInvalid when the table is full, in which case this
      // launch serves uncached and unrefined — the model still answers).
      d.version = cache_->version();
      d.pairId = interner_->intern(ms.machine.name, task.programName,
                                   task.kernelName);
      if (d.pairId != common::PairInterner::kInvalid) {
        d.fp = launchFingerprint(d.pairId, task, config_.cacheRoundDigits);
        d.fingerprinted = true;
      }
    }
    if (!d.decided) {
      // Exactly one cache probe per request: a miss already recorded on
      // the submit path is not probed (or counted) again here.
      std::optional<std::size_t> hit;
      if (d.fingerprinted && !d.lookedUp) {
        TP_TRACE_SPAN("serve.cache_probe");
        hit = cache_->lookup(d.fp, d.version);
      }
      // Materialized once, shared by the cache insert (which copies) and
      // the RefineKey (which moves out of it).
      DecisionKey full;
      if (d.fingerprinted && (!hit.has_value() || refiner_ != nullptr)) {
        full = fullKeyAt(ms, task, d.version);
      }
      if (hit.has_value()) {
        d.label = *hit;
        d.cacheHit = true;
      } else {
        {
          TP_TRACE_SPAN("serve.model_inference");
          d.label = predictWithModel(ms, task);
        }
        if (d.fingerprinted) {
          cache_->insert(d.fp, full, d.label);
        }
      }
      if (refiner_ != nullptr && d.fingerprinted) {
        TP_TRACE_SPAN("serve.refiner_decide");
        // Miss-path refinement: the full key is in hand, so absent
        // entries are created here.
        adapt::RefineKey refineKey;
        refineKey.machine = std::move(full.machine);
        refineKey.program = std::move(full.program);
        refineKey.signature = std::move(full.features);
        const adapt::RefineDecision rd = refiner_->decide(
            d.fp, &refineKey, d.version, d.label, ms.space);
        d.explore = rd.explore;
        d.refined = rd.refined;
        if (rd.label != d.label || rd.explore) {
          d.cacheHit = false;
          d.label = rd.label;
        }
      }
      d.decided = true;
    }

    response.label = d.label;
    response.cacheHit = d.cacheHit;
    response.modelVersion = d.version;
    response.explored = d.explore;
    response.refined = d.refined;
    {
      TP_TRACE_SPAN_ARG("serve.execute", task.globalSize);
      finishDecided(ms, *ms.lanes[lane], task, response, d);
    }

    if (config_.recordFeedback &&
        (!response.cacheHit ||
         feedbackBackfill_.load(std::memory_order_relaxed))) {
      // Cache hits skip the recorder entirely: it deduplicates on the
      // launch signature, and a hit's signature was recorded when it
      // first missed — so the warm path never takes the feedback lock.
      // Exception: once remote wins were merged into the cache, hits may
      // be launches that never missed locally (see feedbackBackfill_).
      // Lane workers only run post-freeze, so the audited accessor is the
      // right read.
      feedbackPostFreeze()->record(task, ms.machine, ms.space,
                                   pending.request.sizeLabel);
    }
    ok = true;
  } catch (...) {
    failed_.add();
    pending.promise.set_exception(std::current_exception());
  }
  if (ok) {
    recordLatency(ms, secondsSince(pending.enqueued));
    completed_.add();
    pending.promise.set_value(std::move(response));
  }
  inFlight_.done();
}

std::size_t PartitionService::predictLabel(const std::string& machine,
                                           const runtime::Task& task) const {
  return predictWithModel(state(machine), task);
}

PartitionService::RetrainResult PartitionService::retrain() {
  TP_TRACE_SPAN("serve.retrain");
  const auto retrainStart = Clock::now();
  RetrainResult result;
  FeedbackRecorder* feedback = nullptr;
  std::vector<MachineState*> states;
  {
    // feedback_ is written by addMachine() under machinesMutex_; read the
    // pointer under the same lock (it is never reset once set, so using
    // it after the unlock is safe).
    common::MutexLock lock(machinesMutex_);
    feedback = feedback_.get();
    states.reserve(machines_.size());
    for (const auto& [name, ms] : machines_) {
      (void)name;
      states.push_back(ms.get());
    }
  }
  TP_REQUIRE(feedback != nullptr,
             "PartitionService: retrain before any machine was added");
  const runtime::FeatureDatabase db = [&] {
    TP_TRACE_SPAN("serve.retrain.snapshot");
    return feedback->snapshot();
  }();
  result.recordsUsed = db.size();
  for (MachineState* ms : states) {
    if (db.forMachine(ms->machine.name).empty()) continue;
    TP_TRACE_SPAN_ARG("serve.retrain.fit", result.recordsUsed);
    // Train outside the model lock: serving continues on the old model
    // until the swap below.
    auto model = runtime::trainDeploymentModel(
        db, ms->machine.name, config_.retrainSpec,
        runtime::FeatureSet::Combined, config_.retrainSeed);
    {
      common::SharedMutexLock lock(ms->modelMutex);
      ms->model = std::move(model);
    }
    ++result.machinesRetrained;
  }
  TP_TRACE_SPAN("serve.retrain.sweep");
  // New generation: every cached decision of the old models is stale.
  // (Swap-then-bump: a prediction racing the swap is cached under the old
  // version and swept here; the reverse order would let old-model labels
  // survive into the new generation.)
  result.modelVersion = cache_->bumpVersion();
  // Version plumbing: stamp every machine with the generation its model
  // now serves, so stats and the refiner's decay agree on "current".
  for (MachineState* ms : states) {
    common::SharedMutexLock lock(ms->modelMutex);
    ms->modelVersion = result.modelVersion;
  }
  retrains_.fetch_add(1, std::memory_order_relaxed);
  lastRetrainSeconds_.store(secondsSince(retrainStart),
                            std::memory_order_relaxed);
  return result;
}

std::uint64_t PartitionService::modelVersion() const noexcept {
  return cache_->version();
}

std::vector<PartitionService::DeployedModel> PartitionService::deployedModels()
    const {
  std::vector<DeployedModel> out;
  common::MutexLock lock(machinesMutex_);
  out.reserve(machines_.size());
  for (const auto& [name, ms] : machines_) {
    common::SharedMutexLockShared modelLock(ms->modelMutex);
    out.push_back(DeployedModel{name, ms->model});
  }
  return out;
}

std::vector<adapt::WinRecord> PartitionService::exportRefinedWins(
    bool refinedOnly) const {
  if (refiner_ == nullptr) return {};
  return refiner_->exportWins(refinedOnly);
}

adapt::MergeResult PartitionService::mergeRemoteWins(
    const std::vector<adapt::WinRecord>& wins) {
  TP_TRACE_SPAN_ARG("serve.merge_remote_wins", wins.size());
  adapt::MergeResult result;
  std::size_t spaceSize = 0;
  {
    // Every machine spans the same space (enforced by addMachine), so
    // any registered one bounds the valid labels.
    common::MutexLock lock(machinesMutex_);
    if (!machines_.empty()) spaceSize = machines_.begin()->second->space.size();
  }
  if (refiner_ == nullptr || spaceSize == 0) {
    result.dropped = wins.size();
    return result;
  }
  // Remote state is wire-decoded and not ours to trust: a label outside
  // the partitioning space would be elected, cached, and then throw on
  // every warm request for its key. Drop such records at the edge.
  std::vector<adapt::WinRecord> valid;
  valid.reserve(wins.size());
  for (const adapt::WinRecord& rec : wins) {
    const bool labelsOk =
        rec.baseLabel < spaceSize && rec.incumbentLabel < spaceSize &&
        std::all_of(rec.arms.begin(), rec.arms.end(),
                    [&](const adapt::WinArm& arm) {
                      return arm.label < spaceSize;
                    });
    if (labelsOk) {
      valid.push_back(rec);
    } else {
      ++result.dropped;
    }
  }
  const std::uint64_t version = cache_->version();
  // From here on, warm hits may serve launches this service never
  // measured; make the hit paths backfill feedback (see the member).
  if (!valid.empty()) {
    feedbackBackfill_.store(true, std::memory_order_relaxed);
  }
  // The refiner addresses records through the service fingerprinter (its
  // constructor injection), so merged keys land exactly where live
  // traffic for the same launches does.
  const adapt::MergeResult merged = refiner_->mergeWins(valid, version);
  result.adopted = merged.adopted;
  result.updated = merged.updated;
  result.stale = merged.stale;
  result.dropped += merged.dropped;
  // Write adopted incumbents through into the decision cache, so warm
  // lookups serve the merged win immediately. The incumbent is re-read
  // from the refiner (not taken from the record): a concurrent local
  // observation or a better peer record may have superseded it.
  for (const adapt::WinRecord& rec : valid) {
    if (rec.modelVersion != version) continue;
    const std::uint32_t pairId =
        interner_->intern(rec.key.machine, rec.key.program);
    if (pairId == common::PairInterner::kInvalid) continue;
    const common::Fingerprint fp =
        launchFingerprint(pairId, rec.key.signature);
    const auto inc = refiner_->incumbent(fp, version);
    if (!inc.tracked) continue;
    DecisionKey key;
    key.machine = rec.key.machine;
    key.program = rec.key.program;
    key.modelVersion = version;
    key.features = rec.key.signature;  // already quantized by the sender
    cache_->insert(fp, key, inc.label);
  }
  return result;
}

adapt::Refiner::Incumbent PartitionService::refinedIncumbent(
    const adapt::RefineKey& key, std::uint64_t version) const {
  if (refiner_ == nullptr) return {};
  return refiner_->incumbent(key, version);
}

void PartitionService::installModels(const std::vector<ModelUpdate>& updates,
                                     std::uint64_t version) {
  TP_REQUIRE(version >= cache_->version(),
             "PartitionService: installModels would move the generation "
             "backward (" << version << " < " << cache_->version() << ")");
  std::vector<MachineState*> states;
  {
    common::MutexLock lock(machinesMutex_);
    for (const ModelUpdate& update : updates) {
      TP_REQUIRE(update.model != nullptr,
                 "PartitionService: null model for machine "
                     << update.machine);
      const auto it = machines_.find(update.machine);
      TP_REQUIRE(it != machines_.end(),
                 "PartitionService: installModels for unknown machine '"
                     << update.machine << "'");
      common::SharedMutexLock modelLock(it->second->modelMutex);
      it->second->model = update.model;
    }
    states.reserve(machines_.size());
    for (const auto& [name, ms] : machines_) {
      (void)name;
      states.push_back(ms.get());
    }
  }
  // Swap-then-advance, like retrain(): decisions racing the swap are
  // cached under the old generation and swept by the advance.
  const std::uint64_t before = cache_->version();
  const std::uint64_t current = cache_->advanceVersion(version);
  if (version == before) {
    // Same-generation install (snapshot warm-start at the current
    // generation, or a second retrain coordinator racing to the same
    // number): advanceVersion was a no-op and swept nothing, but the
    // previous models' labels must not keep serving as cache hits under
    // a generation they no longer belong to. Drop everything.
    cache_->clear();
  }
  for (MachineState* ms : states) {
    common::SharedMutexLock lock(ms->modelMutex);
    ms->modelVersion = current;
  }
}

runtime::FeatureDatabase PartitionService::trafficSnapshot() const {
  FeedbackRecorder* feedback = nullptr;
  {
    // Racing a concurrent addMachine(): the recorder pointer is guarded
    // by machinesMutex_ until the freeze, so read it under the lock (the
    // pointee is internally synchronized and never destroyed before us).
    common::MutexLock lock(machinesMutex_);
    feedback = feedback_.get();
  }
  TP_REQUIRE(feedback != nullptr,
             "PartitionService: no feedback schema before addMachine()");
  return feedback->snapshot();
}

void PartitionService::drain() { inFlight_.wait(); }

void PartitionService::shutdown() {
  accepting_.store(false, std::memory_order_seq_cst);
  drain();
  // Wait for lane workers to finish their queue-empty bookkeeping before
  // any member they touch can be destroyed.
  common::ThreadPool* pool = nullptr;
  {
    common::MutexLock lock(machinesMutex_);
    pool = pool_.get();
  }
  if (pool != nullptr) pool->waitIdle();
}

ServiceStats PartitionService::stats() const {
  ServiceStats s;
  s.requestsSubmitted = submitted_.total();
  s.requestsCompleted = completed_.total();
  s.requestsFailed = failed_.total();
  s.batches = batches_.load(std::memory_order_relaxed);
  s.maxBatch = maxBatch_.load(std::memory_order_relaxed);
  s.requestsInline = inlineHits_.total();
  s.inlineLaneExhausted = inlineLaneExhausted_.total();
  s.requestsShed = shed_.total();
  s.breakerTrips = breakerTrips_.load(std::memory_order_relaxed);
  s.cache = cache_->counters();
  s.cacheHitRate = s.cache.hitRate();
  s.modelVersion = cache_->version();
  s.retrains = retrains_.load(std::memory_order_relaxed);
  if (refiner_ != nullptr) {
    s.refiner = refiner_->counters();
    s.refinedKeys = refiner_->trackedKeys();
  }
  s.latency = latency_.summary();

  // feedback_ is guarded by machinesMutex_ during registration — reading
  // it outside the lock here raced a concurrent first addMachine() (the
  // annotation pass surfaced this; the regression test hammers stats()
  // against addMachine under TSan).
  common::MutexLock lock(machinesMutex_);
  s.feedbackRecords = feedback_ != nullptr ? feedback_->size() : 0;
  s.internedPairs = interner_->size();
  s.internRejections = interner_->fullRejections();
  for (const auto& [name, ms] : machines_) {
    (void)name;
    MachineStats m;
    m.machine = ms->machine.name;
    {
      common::SharedMutexLockShared modelLock(ms->modelMutex);
      m.modelVersion = ms->modelVersion;
    }
    const MachineLoadStats::Snapshot load = ms->load.snapshot();
    m.requests = load.requests;
    m.makespanSeconds = load.makespanSum;
    for (std::size_t d = 0; d < load.deviceBusySeconds.size(); ++d) {
      DeviceUtilization util;
      util.device = ms->machine.devices[d].name;
      util.busySeconds = load.deviceBusySeconds[d];
      util.utilization =
          load.makespanSum > 0.0 ? util.busySeconds / load.makespanSum : 0.0;
      m.devices.push_back(std::move(util));
    }
    s.machines.push_back(std::move(m));
  }
  return s;
}

const runtime::PartitioningSpace& PartitionService::space(
    const std::string& machine) const {
  return state(machine).space;
}

obs::SloTracker::Report PartitionService::sloReport(
    const std::string& machine) const {
  const MachineState& ms = state(machine);
  return ms.slo != nullptr ? ms.slo->report() : obs::SloTracker::Report{};
}

void PartitionService::maybeEvaluateBreaker(MachineState& ms)
    TP_LOCK_FREE_AUDITED(
        "relaxed admission-tick bump; an occasionally duplicated or "
        "skipped evaluation only shifts WHEN the breaker re-judges the "
        "window, never what it judges; TSan: test_serve "
        "PartitionService.BreakerShedsUnderOverloadAndRecovers") {
  const std::uint64_t tick = ms.admitTick.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t every = std::max<std::uint64_t>(1, config_.breaker.evalEvery);
  if (tick % every != 0) return;
  evaluateBreaker(ms);
}

void PartitionService::evaluateBreaker(MachineState& ms)
    TP_LOCK_FREE_AUDITED(
        "single-winner evaluation: the ClaimGuard CAS (acq_rel) hands the "
        "streak/prev words from winner to winner; losers return without "
        "touching them; the shedding flag itself is a relaxed on/off word "
        "read by the admission path; TSan: test_serve "
        "PartitionService.BreakerShedsUnderOverloadAndRecovers") {
  common::ClaimGuard claim(ms.evalBusy);
  if (!claim.claimed()) return;  // another admission is already judging

  bool hot = false;
  double value = 0.0;
  double threshold = 0.0;
  if (ms.slo != nullptr) {
    const obs::SloTracker::Report report = ms.slo->report();
    const double burn = std::max(report.burnRateP99, report.burnRateP999);
    if (report.breached && burn > config_.breaker.burnRateCeiling) {
      hot = true;
      value = burn;
      threshold = config_.breaker.burnRateCeiling;
    }
  }
  // Lane-exhaustion arm: bounce rate since the previous evaluation.
  // Service-wide counters (they are striped per thread, not per machine);
  // with one overloaded machine that is exactly the victim signal.
  const std::uint64_t submitted = submitted_.total();
  const std::uint64_t exhausted = inlineLaneExhausted_.total();
  const std::uint64_t dSubmitted = submitted - ms.prevSubmitted;
  const std::uint64_t dExhausted = exhausted - ms.prevExhausted;
  ms.prevSubmitted = submitted;
  ms.prevExhausted = exhausted;
  if (!hot && dSubmitted >= config_.breaker.minSamplesPerEval) {
    const double rate =
        static_cast<double>(dExhausted) / static_cast<double>(dSubmitted);
    if (rate > config_.breaker.laneExhaustionCeiling) {
      hot = true;
      value = rate;
      threshold = config_.breaker.laneExhaustionCeiling;
    }
  }

  if (hot) {
    ms.coolStreak = 0;
    ++ms.hotStreak;
    if (ms.hotStreak >= config_.breaker.tripAfter &&
        ms.shedding.load(std::memory_order_relaxed) == 0) {
      ms.shedding.store(1, std::memory_order_relaxed);
      breakerTrips_.fetch_add(1, std::memory_order_relaxed);
      TP_WARN("admission breaker OPEN on " << ms.machine.name << ": "
                                           << value << " > " << threshold
                                           << " — shedding load");
    }
  } else {
    ms.hotStreak = 0;
    ++ms.coolStreak;
    if (ms.coolStreak >= config_.breaker.clearAfter &&
        ms.shedding.load(std::memory_order_relaxed) != 0) {
      ms.shedding.store(0, std::memory_order_relaxed);
      TP_INFO("admission breaker closed on " << ms.machine.name
                                             << ": window recovered");
    }
  }
}

void PartitionService::evaluateBreakerNow(const std::string& machine) {
  if (!config_.breaker.enabled) return;
  evaluateBreaker(state(machine));
}

bool PartitionService::breakerOpen(const std::string& machine) const
    TP_LOCK_FREE_AUDITED(
        "one relaxed load of the on/off shedding word; TSan: test_serve "
        "PartitionService.BreakerShedsUnderOverloadAndRecovers") {
  return state(machine).shedding.load(std::memory_order_relaxed) != 0;
}

void PartitionService::registerHealthRules(obs::HealthMonitor& monitor,
                                           const HealthRulesConfig& rules)
    TP_LOCK_FREE_AUDITED(
        "registers rule lambdas reading thread-safe snapshot surfaces "
        "(SLO reports, cache counter snapshots, striped-counter totals, "
        "one relaxed load of the last-retrain word); the monitor runs "
        "them serially under its own mutex; TSan: test_health "
        "HealthMonitor.BreachWhileDrainStaysConsistent") {
  const std::string p = config_.metricsPrefix;

  // ONE aggregated latency rule, not one per machine: a fleet-wide
  // latency incident should page once. The firing carries the worst
  // burn rate and names its machine.
  {
    obs::DetectorRule rule;
    rule.name = p + "latency_slo";
    rule.severity = obs::Severity::Critical;
    rule.triggerAfter = rules.triggerAfter;
    rule.clearAfter = rules.clearAfter;
    rule.evaluate = [this]() -> std::optional<obs::Firing> {
      double worstBurn = 0.0;
      std::string worstMachine;
      common::MutexLock lock(machinesMutex_);
      for (const auto& [name, ms] : machines_) {
        if (ms->slo == nullptr) continue;
        const obs::SloTracker::Report r = ms->slo->report();
        if (!r.breached) continue;
        const double burn = std::max(r.burnRateP99, r.burnRateP999);
        if (burn >= worstBurn) {
          worstBurn = burn;
          worstMachine = name;
        }
      }
      if (worstMachine.empty()) return std::nullopt;
      return obs::Firing{worstBurn, 1.0,
                         "latency SLO breached on " + worstMachine +
                             ": error budget burning at " +
                             std::to_string(worstBurn) + "x"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule;
    rule.name = p + "cache_hit_collapse";
    rule.triggerAfter = rules.triggerAfter;
    rule.clearAfter = rules.clearAfter;
    rule.evaluate = [this, rules, prevLookups = std::uint64_t{0},
                     prevHits =
                         std::uint64_t{0}]() mutable -> std::optional<obs::Firing> {
      const CacheCounters c = cache_->counters();
      const std::uint64_t dLookups = c.lookups - prevLookups;
      const std::uint64_t dHits = c.hits - prevHits;
      prevLookups = c.lookups;
      prevHits = c.hits;
      if (dLookups < rules.minLookupsPerEval) return std::nullopt;
      const double rate = static_cast<double>(dHits) / dLookups;
      if (rate >= rules.hitRateFloor) return std::nullopt;
      return obs::Firing{rate, rules.hitRateFloor,
                         "cache hit rate collapsed to " +
                             std::to_string(rate) + " over the last " +
                             std::to_string(dLookups) + " lookups"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule;
    rule.name = p + "eviction_storm";
    rule.triggerAfter = rules.triggerAfter;
    rule.clearAfter = rules.clearAfter;
    rule.evaluate = [this, rules, prevLookups = std::uint64_t{0},
                     prevEvictions =
                         std::uint64_t{0}]() mutable -> std::optional<obs::Firing> {
      const CacheCounters c = cache_->counters();
      const std::uint64_t dLookups = c.lookups - prevLookups;
      const std::uint64_t dEvictions = c.evictions - prevEvictions;
      prevLookups = c.lookups;
      prevEvictions = c.evictions;
      if (dLookups < rules.minLookupsPerEval) return std::nullopt;
      const double rate = static_cast<double>(dEvictions) / dLookups;
      if (rate <= rules.evictionStormCeiling) return std::nullopt;
      return obs::Firing{rate, rules.evictionStormCeiling,
                         "cache evicting at " + std::to_string(rate) +
                             " per lookup (undersized for the working set)"};
    };
    monitor.addRule(std::move(rule));
  }

  if (refiner_ != nullptr) {
    obs::DetectorRule rule;
    rule.name = p + "probe_storm";
    rule.triggerAfter = rules.triggerAfter;
    rule.clearAfter = rules.clearAfter;
    rule.evaluate = [this, rules, prevDecisions = std::uint64_t{0},
                     prevExplorations =
                         std::uint64_t{0}]() mutable -> std::optional<obs::Firing> {
      const adapt::RefinerCounters c = refiner_->counters();
      const std::uint64_t dDecisions = c.decisions - prevDecisions;
      const std::uint64_t dExplorations = c.explorations - prevExplorations;
      prevDecisions = c.decisions;
      prevExplorations = c.explorations;
      if (dDecisions < rules.minLookupsPerEval) return std::nullopt;
      const double rate = static_cast<double>(dExplorations) / dDecisions;
      if (rate <= rules.probeStormCeiling) return std::nullopt;
      return obs::Firing{rate, rules.probeStormCeiling,
                         "refiner probing on " + std::to_string(rate) +
                             " of decisions (exploration never converging)"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule;
    rule.name = p + "lane_exhaustion";
    rule.triggerAfter = rules.triggerAfter;
    rule.clearAfter = rules.clearAfter;
    rule.evaluate = [this, rules, prevSubmitted = std::uint64_t{0},
                     prevExhausted =
                         std::uint64_t{0}]() mutable -> std::optional<obs::Firing> {
      const std::uint64_t submitted = submitted_.total();
      const std::uint64_t exhausted = inlineLaneExhausted_.total();
      const std::uint64_t dSubmitted = submitted - prevSubmitted;
      const std::uint64_t dExhausted = exhausted - prevExhausted;
      prevSubmitted = submitted;
      prevExhausted = exhausted;
      if (dSubmitted < rules.minSubmitsPerEval) return std::nullopt;
      const double rate = static_cast<double>(dExhausted) / dSubmitted;
      if (rate <= rules.laneExhaustionCeiling) return std::nullopt;
      return obs::Firing{rate, rules.laneExhaustionCeiling,
                         "inline lanes exhausted on " + std::to_string(rate) +
                             " of submissions (warm hits convoying on the "
                             "batching queue)"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule;
    rule.name = p + "retrain_overrun";
    rule.triggerAfter = rules.triggerAfter;
    rule.clearAfter = rules.clearAfter;
    rule.evaluate = [this, rules]() -> std::optional<obs::Firing> {
      const double last = lastRetrainSeconds_.load(std::memory_order_relaxed);
      if (last <= rules.retrainOverrunSeconds) return std::nullopt;
      return obs::Firing{last, rules.retrainOverrunSeconds,
                         "last retrain took " + std::to_string(last) +
                             "s (model refresh falling behind traffic)"};
    };
    monitor.addRule(std::move(rule));
  }

  if (config_.breaker.enabled) {
    // load_shed fires while the service sheds (new sheds since the last
    // evaluation OR a breaker still open), clears once shedding stopped
    // and every breaker closed — so one overload incident produces one
    // deduped breach/clear pair, not one per shed request.
    obs::DetectorRule rule;
    rule.name = p + "load_shed";
    rule.severity = obs::Severity::Critical;
    rule.triggerAfter = 1;  // the breaker's own hysteresis already gates
    rule.clearAfter = rules.clearAfter;
    rule.evaluate = [this, prevShed = std::uint64_t{0}]() mutable
        -> std::optional<obs::Firing> {
      const std::uint64_t shed = shed_.total();
      const std::uint64_t dShed = shed - prevShed;
      prevShed = shed;
      bool anyOpen = false;
      {
        common::MutexLock lock(machinesMutex_);
        for (const auto& [name, ms] : machines_) {
          (void)name;
          if (ms->shedding.load(std::memory_order_relaxed) != 0) {
            anyOpen = true;
            break;
          }
        }
      }
      if (dShed == 0 && !anyOpen) return std::nullopt;
      return obs::Firing{static_cast<double>(dShed), 0.0,
                         "admission breaker shedding load (" +
                             std::to_string(dShed) +
                             " requests since the last evaluation)"};
    };
    monitor.addRule(std::move(rule));
  }
}

void PartitionService::saveTraffic(const std::string& path) const {
  FeedbackRecorder* feedback = nullptr;
  {
    common::MutexLock lock(machinesMutex_);
    feedback = feedback_.get();
  }
  TP_REQUIRE(feedback != nullptr, "PartitionService: no traffic recorded yet");
  feedback->saveCsv(path);
}

}  // namespace tp::serve
