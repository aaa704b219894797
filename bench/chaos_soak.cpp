// Chaos soak: a replicated serving fleet survives a seeded fault
// schedule and converges after it heals.
//
// A manual 3-replica fleet (the same wiring fleet::Fleet does, minus the
// class — so replicas can be killed and restarted mid-run) serves Zipf
// traffic through every phase of a scripted chaos schedule:
//
//   warmup      — clean traffic, gossip rounds, periodic snapshots
//   drop storm  — FaultyTransport default plan: drops, corruption,
//                 duplicates, delays (ends itself via the seen-count
//                 schedule); gossip keeps running through it
//   partition   — the coordinator is cut off: its solo retrain aborts
//                 without quorum while the majority side retrains
//                 successfully; then the partition heals
//   kill        — one replica is destroyed mid-gossip, its newest
//                 snapshot is corrupted on disk, and the restart
//                 warm-starts from the salvaged older snapshot
//   overload    — an impossible SLO trips the admission breaker on the
//                 coordinator (hysteresis, then shedding); the window
//                 drains and the breaker closes; the load_shed health
//                 rule emits exactly one deduped breach/clear pair and
//                 the flight recorder dumps a postmortem bundle
//   calm        — one clean fleet retrain, convergence traffic and
//                 anti-entropy refresh rounds
//
// Post-heal assertions (the run exits non-zero if any fails):
//   - decision equivalence: identical model predictions on every replica
//     AND identical refined incumbents per key after anti-entropy;
//   - counter reconciliation: the FaultyTransport injection identity,
//     the inner transport's sent/delivered/dropped identity, and each
//     replica's winsReceived == winsMerged + winsRejectedStale +
//     winsDropped;
//   - exactly one load_shed breach/clear pair (deduped health events);
//   - the restarted replica salvaged a corrupt snapshot.
//
// Usage: chaos_soak [--waves W] [--requests R] [--seed S] [--json PATH]
//                   [--postmortem-dir DIR] [--state-dir DIR]
//
// With --json the headline numbers (shed rate, breaker recovery time,
// injected-fault counters, convergence checks) are written as a flat
// JSON object; scripts/bench.sh appends it to the repo trajectory as
// BENCH_soak.json, and CI's chaos-smoke step sweeps seeds and validates
// each run's postmortem bundle with scripts/validate_postmortem.py. A
// failing run with --postmortem-dir dumps one more bundle whose reason
// names the seed and the first failed check.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "fleet/faulty_transport.hpp"
#include "fleet/gossip.hpp"
#include "fleet/replica.hpp"
#include "fleet/transport.hpp"
#include "harness_util.hpp"
#include "obs/clock.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

using namespace tp;

namespace {

struct Options {
  std::size_t replicas = 3;
  std::size_t waves = 4;       ///< calm convergence waves after the chaos
  std::size_t requests = 240;  ///< traffic requests per wave
  std::uint64_t seed = 0xC405u;
  std::string jsonPath;
  std::string postmortemDir;
  std::string stateDir = "chaos_soak_state";  ///< snapshot root (wiped)
};

Options parseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--waves") {
      opt.waves = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--requests") {
      opt.requests = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--json") {
      opt.jsonPath = value();
    } else if (arg == "--postmortem-dir") {
      opt.postmortemDir = value();
    } else if (arg == "--state-dir") {
      opt.stateDir = value();
    } else {
      std::fprintf(stderr,
                   "usage: chaos_soak [--waves W] [--requests R] [--seed S] "
                   "[--json PATH] [--postmortem-dir DIR] [--state-dir DIR]\n");
      std::exit(2);
    }
  }
  return opt;
}

int failures = 0;
std::string firstFailure;

void check(bool ok, const std::string& what) {
  if (ok) return;
  if (failures++ == 0) firstFailure = what;
  std::fprintf(stderr, "chaos_soak: FAIL: %s\n", what.c_str());
}

// ---- workload --------------------------------------------------------------

struct Workload {
  std::vector<sim::MachineConfig> machines = sim::evaluationMachines();
  std::vector<runtime::Task> tasks;
  std::shared_ptr<const ml::Classifier> weakModel;
  std::vector<double> zipfCdf;  ///< over distinct (task, machine) launches

  explicit Workload(std::size_t programs, std::size_t sizesPerProgram) {
    const auto& all = suite::allBenchmarks();
    for (std::size_t b = 0; b < programs && b < all.size(); ++b) {
      for (std::size_t s = 0;
           s < std::min(sizesPerProgram, all[b].sizes.size()); ++s) {
        tasks.push_back(all[b].make(all[b].sizes[s]).task);
      }
    }
    const runtime::PartitioningSpace space(machines[0].numDevices(), 10);
    ml::Dataset seed;
    seed.numClasses = static_cast<int>(space.size());
    seed.featureNames = {"f0"};
    seed.add({0.0}, static_cast<int>(space.cpuOnlyIndex()), "seed");
    auto model = ml::makeClassifier("mostfreq");
    model->train(seed);
    weakModel = std::shared_ptr<const ml::Classifier>(std::move(model));

    // Zipf(1.1) over the distinct launches: realistic skew — a few hot
    // launches dominate, the tail still shows up.
    double total = 0.0;
    for (std::size_t i = 0; i < distinctLaunches(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
      zipfCdf.push_back(total);
    }
  }

  std::size_t distinctLaunches() const {
    return tasks.size() * machines.size();
  }

  std::size_t zipfDraw(common::Rng& rng) const {
    const double u = rng.uniform(0.0, zipfCdf.back());
    const auto it = std::lower_bound(zipfCdf.begin(), zipfCdf.end(), u);
    return static_cast<std::size_t>(it - zipfCdf.begin()) % distinctLaunches();
  }

  serve::LaunchRequest request(std::size_t launch) const {
    serve::LaunchRequest r;
    r.machine = machines[launch % machines.size()].name;
    r.task = tasks[(launch / machines.size()) % tasks.size()];
    return r;
  }
};

// ---- manual fleet ----------------------------------------------------------

/// What fleet::Fleet wires up internally, held by hand so the soak can
/// destroy and reconstruct individual replicas mid-run.
struct SoakFleet {
  const Options& opt;
  const Workload& wl;
  fleet::LoopbackTransport inner;
  fleet::FaultyTransport net;
  fleet::GossipBus bus;
  std::vector<std::unique_ptr<fleet::Replica>> replicas;

  SoakFleet(const Options& options, const Workload& workload)
      : opt(options), wl(workload), net(inner, options.seed) {
    for (std::size_t r = 0; r < opt.replicas; ++r) {
      replicas.push_back(makeReplica(r));
    }
  }

  fleet::ReplicaConfig configFor(std::size_t index) const {
    fleet::ReplicaConfig rc;
    rc.id = "replica-" + std::to_string(index);
    rc.service.refine = true;
    rc.service.lanesPerMachine = 2;
    rc.service.refiner.exploreFraction = 0.4;
    rc.service.refiner.probeSamples = 1;
    rc.service.refiner.neighborRadius = 2;
    rc.service.refiner.seed = 0xF1EE7ull + 0x9E3779B9ull * index;
    rc.service.metrics = &obs::defaultRegistry();
    // Registry names reject '-' (the id is a transport address).
    rc.service.metricsPrefix = "replica_" + std::to_string(index) + ".serve.";
    // Impossible SLO + breaker with evaluation pushed out of reach: the
    // overload phase trips it deterministically via evaluateBreakerNow.
    rc.service.slo.windowSeconds = 0.25;
    rc.service.slo.subWindows = 2;
    rc.service.slo.targetP99Seconds = 1e-9;
    rc.service.slo.minSamples = 8;
    rc.service.breaker.enabled = true;
    rc.service.breaker.burnRateCeiling = 1.0;
    rc.service.breaker.tripAfter = 2;
    rc.service.breaker.clearAfter = 2;
    rc.service.breaker.evalEvery = std::uint64_t{1} << 30;
    rc.snapshotDir = opt.stateDir + "/" + rc.id;
    rc.retrainWaitSeconds = 0.25;  // partitioned peers abort fast
    rc.retryBackoffBaseSeconds = 0.0;  // failed peers retry next round
    rc.retryBackoffCapSeconds = 0.0;
    rc.gossipRefreshRounds = 2;  // restarted replicas reconverge quickly
    return rc;
  }

  std::unique_ptr<fleet::Replica> makeReplica(std::size_t index) {
    auto replica =
        std::make_unique<fleet::Replica>(configFor(index), net, &bus);
    for (const auto& machine : wl.machines) {
      replica->addMachine(machine, wl.weakModel);
    }
    return replica;
  }

  fleet::Replica& at(std::size_t index) { return *replicas[index]; }

  /// Issue `count` Zipf-drawn requests round-robin across live replicas
  /// (or at one replica when `only` is set). Returns sheds observed.
  std::uint64_t trafficWave(common::Rng& rng, std::size_t count,
                            std::ptrdiff_t only = -1) {
    std::uint64_t shed = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t r = only >= 0 ? static_cast<std::size_t>(only)
                                      : i % replicas.size();
      if (!replicas[r]) continue;  // killed
      const auto response =
          replicas[r]->call(wl.request(wl.zipfDraw(rng)));
      if (response.shed) {
        ++shed;
      } else {
        check(response.execution.makespan > 0.0,
              "served response with zero makespan");
      }
    }
    return shed;
  }

  void saveSnapshots() {
    for (auto& replica : replicas) {
      if (replica) (void)replica->saveSnapshot();
    }
  }
};

/// Corrupt the highest-sequence snapshot file under `dir` so the next
/// warm start must salvage the one before it.
void corruptNewestSnapshot(const std::string& dir) {
  std::string newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name > newest) newest = name;
  }
  check(!newest.empty(), "no snapshot to corrupt under " + dir);
  if (newest.empty()) return;
  std::ofstream out(dir + "/" + newest,
                    std::ios::binary | std::ios::trunc);
  out << "bit rot, definitely not a snapshot";
}

/// Refiner incumbents as a comparable map: key-identity -> incumbent
/// label, over EVERY tracked key. Keys without an adopted win carry the
/// (shared) model's label; adopted wins are gossiped — so after
/// anti-entropy the full maps must agree across replicas.
std::map<std::string, std::size_t> incumbentMap(fleet::Replica& replica) {
  std::map<std::string, std::size_t> map;
  for (const auto& win :
       replica.service().exportRefinedWins(/*refinedOnly=*/false)) {
    std::string id = win.key.machine + "|" + win.key.program;
    for (const double v : win.key.signature) {
      id.append("|").append(std::to_string(v));
    }
    map[id] = win.incumbentLabel;
  }
  return map;
}

}  // namespace

int main(int argc, char** argv) {
  common::setLogLevel(common::LogLevel::Warn);
  const Options opt = parseArgs(argc, argv);
  const Workload wl(/*programs=*/6, /*sizesPerProgram=*/2);
  std::filesystem::remove_all(opt.stateDir);
  if (!opt.postmortemDir.empty()) obs::traceRecorder().enable();

  std::printf("chaos_soak: %zu launches x %zu machines, %zu replicas, "
              "seed 0x%llx\n",
              wl.tasks.size(), wl.machines.size(), opt.replicas,
              static_cast<unsigned long long>(opt.seed));

  SoakFleet fleet(opt, wl);
  common::Rng traffic(opt.seed ^ 0x7EAFF1Cull);

  // Health + black box on the coordinator (replica 0 — never killed, so
  // the rule closures cannot dangle).
  obs::HealthMonitor monitor;
  fleet::FleetHealthConfig health;
  health.gossipStallEvals = 100;  // manual rounds; liveness not under test
  fleet.at(0).registerHealthRules(monitor, health);
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!opt.postmortemDir.empty()) {
    obs::FlightRecorderConfig frc;
    frc.dir = opt.postmortemDir;
    frc.metrics = &obs::defaultRegistry();
    frc.trace = &obs::traceRecorder();
    frc.health = &monitor;
    recorder = std::make_unique<obs::FlightRecorder>(frc);
    recorder->attach();
  }

  // ---- warmup --------------------------------------------------------------
  for (int wave = 0; wave < 2; ++wave) {
    (void)fleet.trafficWave(traffic, opt.requests);
    fleet.bus.runRound();
    fleet.saveSnapshots();
    (void)monitor.evaluateOnce();
  }

  // ---- drop storm ----------------------------------------------------------
  // The storm plan applies immediately and schedules its own end: after
  // 36 more link-messages the default plan reverts to clean (exercising
  // the seen-count schedule in anger). Gossip runs straight through it.
  {
    fleet::FaultPlan storm;
    storm.dropProbability = 0.25;
    storm.corruptProbability = 0.10;
    storm.duplicateProbability = 0.10;
    storm.delayProbability = 0.10;
    fleet.net.setDefaultPlan(storm);
    fleet.net.scheduleDefaultPlan(fleet.net.faultCounters().seen + 36, {});
  }
  for (int wave = 0; wave < 3; ++wave) {
    (void)fleet.trafficWave(traffic, opt.requests);
    fleet.bus.runRound();
    (void)monitor.evaluateOnce();
  }
  fleet.net.clearFaults();
  (void)fleet.net.flushDelayed();
  check(fleet.net.pendingDelayed() == 0, "delayed messages still pending");

  // ---- partition -----------------------------------------------------------
  // replica-0 is cut off from the majority. Its solo retrain must abort
  // as a safe no-op; the majority side (replica-1 + replica-2) retrains
  // successfully without it.
  fleet.net.partition("replica-0", "replica-1");
  fleet.net.partition("replica-0", "replica-2");
  const auto solo = fleet.at(0).coordinateRetrain();
  check(solo.aborted, "partitioned coordinator did not abort");
  check(solo.leaseGrants == 1, "partitioned coordinator heard peer grants");
  const auto majority = fleet.at(1).coordinateRetrain();
  check(!majority.aborted, "majority-side retrain aborted");
  check(fleet.at(2).service().modelVersion() == majority.modelVersion,
        "majority peer missed the install");
  check(fleet.at(0).service().modelVersion() < majority.modelVersion,
        "partitioned replica received an install through the partition");
  (void)fleet.trafficWave(traffic, opt.requests);  // serving is unaffected
  fleet.net.heal();
  fleet.bus.runRound();
  (void)monitor.evaluateOnce();

  // ---- kill / restart ------------------------------------------------------
  // replica-2 dies mid-gossip; its newest snapshot rots on disk; the
  // restart salvages the next-older snapshot and rejoins the fleet.
  fleet.saveSnapshots();
  fleet.replicas[2].reset();  // leaves the bus, detaches from the net
  fleet.bus.runRound();       // the survivors gossip without it
  (void)fleet.trafficWave(traffic, opt.requests);
  corruptNewestSnapshot(opt.stateDir + "/replica-2");
  fleet.replicas[2] = fleet.makeReplica(2);
  check(fleet.at(2).warmStart(), "restarted replica could not warm-start");
  const auto salvaged = fleet.at(2).stats().fleet;
  check(salvaged.snapshotsSalvaged == 1,
        "restart did not salvage the corrupt snapshot");
  check(salvaged.snapshotsLoaded == 1, "restart loaded no snapshot");
  fleet.bus.runRound();
  fleet.bus.runRound();  // refresh rounds reconverge the rejoiner

  // ---- overload (breaker + load shedding) ----------------------------------
  // Prime the impossible SLO with enough samples, then trip replica-0's
  // breakers deterministically: one evaluation arms the streak, the
  // second opens. Shed traffic, let the window drain, close again.
  (void)fleet.trafficWave(traffic, 48, /*only=*/0);
  for (const auto& machine : wl.machines) {
    check(fleet.at(0).service().sloReport(machine.name).breached,
          "impossible SLO not breached on " + machine.name);
    fleet.at(0).service().evaluateBreakerNow(machine.name);
    fleet.at(0).service().evaluateBreakerNow(machine.name);
    check(fleet.at(0).service().breakerOpen(machine.name),
          "breaker did not open on " + machine.name);
  }
  const std::uint64_t openTicks = obs::nowTicks();
  const std::uint64_t shedBefore = fleet.at(0).stats().requestsShed;
  const std::size_t overloadRequests = 40;
  const std::uint64_t shed =
      fleet.trafficWave(traffic, overloadRequests, /*only=*/0);
  check(shed == overloadRequests, "open breaker served traffic");
  check(fleet.at(0).stats().requestsShed == shedBefore + shed,
        "requestsShed does not match observed sheds");
  (void)monitor.evaluateOnce();  // load_shed breach (one event + bundle)
  (void)monitor.evaluateOnce();  // sustained: suppressed, no second event
  // Shed responses record no latency, so the window drains while open.
  std::this_thread::sleep_for(std::chrono::milliseconds(320));
  for (const auto& machine : wl.machines) {
    fleet.at(0).service().evaluateBreakerNow(machine.name);
    fleet.at(0).service().evaluateBreakerNow(machine.name);
    check(!fleet.at(0).service().breakerOpen(machine.name),
          "breaker did not close after the window drained");
  }
  const double breakerRecoverySeconds =
      static_cast<double>(obs::nowTicks() - openTicks) / 1e9;
  (void)monitor.evaluateOnce();  // clear streak (rule clearAfter = 2)
  (void)monitor.evaluateOnce();

  // ---- calm: reconverge ----------------------------------------------------
  // One clean fleet-wide retrain from the majority side (replica-1 holds
  // the highest generation), then identical convergence traffic on every
  // replica plus anti-entropy refresh rounds.
  const auto calm = fleet.at(1).coordinateRetrain();
  check(!calm.aborted, "post-heal retrain aborted");
  for (std::size_t r = 0; r < opt.replicas; ++r) {
    check(fleet.at(r).service().modelVersion() == calm.modelVersion,
          "replica-" + std::to_string(r) + " missed the final install");
  }
  for (std::size_t wave = 0; wave < opt.waves; ++wave) {
    for (std::size_t launch = 0; launch < wl.distinctLaunches(); ++launch) {
      for (std::size_t r = 0; r < opt.replicas; ++r) {
        (void)fleet.at(r).call(wl.request(launch));
      }
    }
    fleet.bus.runRound();
    (void)monitor.evaluateOnce();
  }
  for (int round = 0; round < 4; ++round) fleet.bus.runRound();

  // ---- post-heal convergence -----------------------------------------------
  std::uint64_t predictMismatches = 0;
  for (const auto& machine : wl.machines) {
    for (const auto& task : wl.tasks) {
      const auto expected = fleet.at(0).service().predictLabel(
          machine.name, task);
      for (std::size_t r = 1; r < opt.replicas; ++r) {
        if (fleet.at(r).service().predictLabel(machine.name, task) !=
            expected) {
          ++predictMismatches;
        }
      }
    }
  }
  check(predictMismatches == 0, "model predictions diverge across replicas");

  std::uint64_t incumbentMismatches = 0;
  const auto reference = incumbentMap(fleet.at(0));
  check(!reference.empty(), "no refined incumbents after the soak");
  for (std::size_t r = 1; r < opt.replicas; ++r) {
    if (incumbentMap(fleet.at(r)) != reference) ++incumbentMismatches;
  }
  check(incumbentMismatches == 0,
        "refined incumbents diverge across replicas after anti-entropy");

  // ---- counter reconciliation ----------------------------------------------
  const auto faults = fleet.net.faultCounters();
  {
    const std::uint64_t clean =
        faults.seen - faults.injectedDrops - faults.partitionedDrops -
        faults.injectedThrows - faults.injectedCorruptions -
        faults.injectedDuplicates - faults.injectedDelays;
    check(faults.forwarded == clean + faults.injectedCorruptions +
                                  2 * faults.injectedDuplicates +
                                  faults.deliveredLate,
          "FaultyTransport forwarding identity violated");
    check(faults.deliveredLate == faults.injectedDelays,
          "delayed messages not fully released");
  }
  const auto inner = fleet.inner.counters();
  check(inner.sent == inner.delivered + inner.dropped,
        "inner transport sent != delivered + dropped");
  check(inner.deliveryFailures == 0,
        "replica handlers leaked exceptions into the transport");
  std::uint64_t retrainsAborted = 0;
  for (std::size_t r = 0; r < opt.replicas; ++r) {
    const auto stats = fleet.at(r).stats();
    check(stats.fleet.winsReceived ==
              stats.fleet.winsMerged + stats.fleet.winsRejectedStale +
                  stats.fleet.winsDropped,
          "replica-" + std::to_string(r) + " wins identity violated");
    check(stats.requestsCompleted == stats.requestsSubmitted,
          "replica-" + std::to_string(r) + " lost requests");
    retrainsAborted += stats.fleet.retrainsAborted;
  }
  check(retrainsAborted == 1, "unexpected retrain abort count");

  // ---- deduped health events -----------------------------------------------
  std::uint64_t shedBreaches = 0, shedClears = 0;
  for (const auto& event : monitor.events()) {
    if (event.rule.find("load_shed") == std::string::npos) continue;
    event.cleared ? ++shedClears : ++shedBreaches;
  }
  check(shedBreaches == 1, "load_shed breach events not deduped");
  check(shedClears == 1, "load_shed did not clear exactly once");
  if (recorder) {
    check(recorder->bundleCount() >= 1, "no postmortem bundle dumped");
  }

  // ---- report --------------------------------------------------------------
  std::uint64_t decodeFailures = 0, replaysRejected = 0, sendFailures = 0,
                sendRetries = 0;
  for (std::size_t r = 0; r < opt.replicas; ++r) {
    const auto g = fleet.at(r).gossipCounters();
    decodeFailures += g.decodeFailures;
    replaysRejected += g.replaysRejected;
    sendFailures += g.sendFailures;
    sendRetries += g.sendRetries;
  }
  const double shedRate =
      static_cast<double>(shed) / static_cast<double>(overloadRequests);

  bench::TablePrinter table({"metric", "value"});
  const auto row = [&](const char* name, double v, int precision = 0) {
    table.addRow({name, bench::fmt(v, precision)});
  };
  row("injected drops", static_cast<double>(faults.injectedDrops));
  row("injected throws", static_cast<double>(faults.injectedThrows));
  row("injected corruptions",
      static_cast<double>(faults.injectedCorruptions));
  row("injected duplicates",
      static_cast<double>(faults.injectedDuplicates));
  row("injected delays", static_cast<double>(faults.injectedDelays));
  row("partitioned drops", static_cast<double>(faults.partitionedDrops));
  row("decode failures", static_cast<double>(decodeFailures));
  row("replays rejected", static_cast<double>(replaysRejected));
  row("send failures", static_cast<double>(sendFailures));
  row("send retries", static_cast<double>(sendRetries));
  row("requests shed", static_cast<double>(shed));
  row("shed rate (overload)", shedRate, 2);
  row("breaker recovery s", breakerRecoverySeconds, 3);
  row("gossip round errors",
      static_cast<double>(fleet.bus.roundErrors()));
  row("convergence mismatches",
      static_cast<double>(predictMismatches + incumbentMismatches));
  table.print();

  if (!opt.jsonPath.empty()) {
    bench::JsonObject json;
    json.set("bench", "chaos_soak");
    json.setInt("seed", opt.seed);
    json.setInt("calm_waves", opt.waves);
    json.setInt("requests_per_wave", opt.requests);
    json.setInt("injected_drops", faults.injectedDrops);
    json.setInt("injected_throws", faults.injectedThrows);
    json.setInt("injected_corruptions", faults.injectedCorruptions);
    json.setInt("injected_duplicates", faults.injectedDuplicates);
    json.setInt("injected_delays", faults.injectedDelays);
    json.setInt("partitioned_drops", faults.partitionedDrops);
    json.setInt("decode_failures", decodeFailures);
    json.setInt("replays_rejected", replaysRejected);
    json.setInt("send_failures", sendFailures);
    json.setInt("send_retries", sendRetries);
    json.setInt("requests_shed", shed);
    json.set("shed_rate_overload", shedRate);
    json.set("breaker_recovery_seconds", breakerRecoverySeconds);
    json.setInt("retrains_aborted", retrainsAborted);
    json.setInt("snapshots_salvaged", salvaged.snapshotsSalvaged);
    json.setInt("gossip_round_errors", fleet.bus.roundErrors());
    json.setInt("predict_mismatches", predictMismatches);
    json.setInt("incumbent_mismatches", incumbentMismatches);
    json.setInt("load_shed_breaches", shedBreaches);
    json.setInt("load_shed_clears", shedClears);
    json.setInt("check_failures", static_cast<std::uint64_t>(failures));
    bench::writeJson(opt.jsonPath, json);
    std::printf("wrote %s\n", opt.jsonPath.c_str());
  }

  if (failures > 0) {
    char reason[96];
    std::snprintf(reason, sizeof(reason),
                  "chaos_soak: seed 0x%llx failed %d check(s): ",
                  static_cast<unsigned long long>(opt.seed), failures);
    std::fprintf(stderr, "%s%s\n", reason, firstFailure.c_str());
    // The bundle names the seed, so a failure found by a seed sweep can
    // be replayed from the artifact alone.
    if (recorder) {
      const std::uint64_t seq = recorder->dump(reason + firstFailure);
      std::fprintf(stderr, "chaos_soak: failure bundle %s\n",
                   recorder->pathFor(seq).c_str());
    }
    return 1;
  }
  std::printf("chaos_soak: all post-heal checks passed\n");
  return 0;
}
