#include "runner.hpp"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include <malloc.h>

#include "features/runtime_features.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ocl/context.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"
#include "stats_util.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace serve = tp::serve;
namespace rt = tp::runtime;
using Clock = std::chrono::steady_clock;
using ModelSet = std::vector<std::shared_ptr<const tp::ml::Classifier>>;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans reported per name in the traced run: the benchmark's own spans
/// around calls into the service, and the service's spans on the shipped
/// serving path (refinement and fleet spans cannot occur on it).
const std::vector<std::string>& reportedSpans() {
  static const std::vector<std::string> names = {
      "bench.call",           "bench.retrain",
      "serve.inline_hit",     "serve.lane_batch",
      "serve.cache_probe",    "serve.model_inference",
      "serve.execute",        "serve.retrain",
      "serve.retrain.snapshot", "serve.retrain.fit",
      "serve.retrain.sweep"};
  return names;
}
/// Stage spans whose duration is explained work inside a call(); the
/// rest of bench.call is the unattributed row.
const std::vector<std::string>& stageSpans() {
  static const std::vector<std::string> names = {
      "serve.inline_hit", "serve.cache_probe", "serve.model_inference",
      "serve.execute"};
  return names;
}

/// One service the clients drive, with the deployment models of every
/// model generation it served (captured before traffic and after each
/// retrain(), so responses are checked against the model that decided).
struct Target {
  explicit Target(serve::PartitionService* s) : service(s) {}

  serve::PartitionService* service;
  /// Odd while client 0 is inside retrain(): a checked request that saw
  /// an odd or changed value raced a model swap.
  std::atomic<std::uint64_t> retrainSeq{0};
  std::mutex modelsMutex;
  std::map<std::uint64_t, ModelSet> models;
  serve::ServiceStats before;  ///< at the start of the timed phase

  void captureModels(const std::vector<tp::sim::MachineConfig>& machines) {
    const std::uint64_t version = service->modelVersion();
    ModelSet byMachine(machines.size());
    for (const auto& deployed : service->deployedModels()) {
      for (std::size_t m = 0; m < machines.size(); ++m) {
        if (machines[m].name == deployed.machine) byMachine[m] = deployed.model;
      }
    }
    std::lock_guard<std::mutex> lock(modelsMutex);
    models[version] = std::move(byMachine);
  }
};

struct Checked {
  LaunchSpec spec;
  std::size_t target = 0;
  bool overlapped = false;  ///< raced a retrain() on its target
  bool quality = false;     ///< scored against the oracle
  serve::LaunchResponse response;
};

struct Client {
  explicit Client(ClientStream s) : stream(std::move(s)) {}

  ClientStream stream;
  std::uint64_t index = 0;  ///< timed-phase requests sent so far
  std::vector<LaunchSpec> specs;
  std::vector<serve::LaunchRequest> requests;
  std::size_t next = 0;  ///< first request of `requests` not yet sent
  std::vector<float> latencyUs;  ///< this round
  std::vector<std::uint8_t> hit;  ///< this round, per latency sample
  std::vector<Checked> checked;  ///< since the last round end
  std::vector<double> retrainMs;
  PhaseCount round;
  double retrainS = 0.0;  ///< this round
  Clock::time_point start;
  Clock::time_point end;
  bool tampered = false;
  std::string error;
};

struct RoundStats {
  double wall = 0.0;
  std::uint64_t requests = 0;
  double rps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double retrainS = 0.0;  ///< client 0's time inside retrain()
  double client0S = 0.0;  ///< client 0's time in the round
};

/// Persistent closed-loop client threads driven round by round.
class Engine {
public:
  Engine(const LaunchSet& launches, const Deployment& deployment,
         const WorkloadParams& params, const RunOptions& options,
         std::vector<ClientStream> streams, std::vector<Target*> targets,
         std::size_t batchSize,
         std::function<void(std::vector<Client>&)> onRoundEnd)
      : launches_(launches),
        deployment_(deployment),
        params_(params),
        options_(options),
        targets_(std::move(targets)),
        batchSize_(batchSize),
        onRoundEnd_(std::move(onRoundEnd)),
        ready_(static_cast<std::ptrdiff_t>(streams.size())),
        sync_(static_cast<std::ptrdiff_t>(streams.size() + 1)),
        callSpan_(tp::obs::traceRecorder().internName("bench.call")),
        retrainSpan_(tp::obs::traceRecorder().internName("bench.retrain")) {
    for (auto& s : streams) clients_.emplace_back(std::move(s));
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads_.emplace_back([this, c] { clientLoop(c); });
    }
  }
  ~Engine() { stop(); }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Blocks until every client has built its first batch.
  void waitReady() { ready_.wait(); }

  /// One round on `target`; with `retrain`, client 0 calls retrain() on
  /// it first (when the workload retrains). Adds the round's counts to
  /// `phase`; when `hitUs`/`missUs` are given, appends the round's
  /// latencies by class. The round-end hook sees every client while all
  /// of them wait.
  RoundStats round(std::size_t target, bool traced, bool retrain,
                   PhaseCount& phase, std::vector<float>* hitUs = nullptr,
                   std::vector<float>* missUs = nullptr) {
    target_ = target;
    traced_ = traced;
    retrain_ = retrain && params_.retrainEachRound;
    roundOver_.store(false, std::memory_order_relaxed);
    passed_.store(0, std::memory_order_relaxed);
    sync_.arrive_and_wait();  // start
    sync_.arrive_and_wait();  // every client done
    RoundStats rs;
    Clock::time_point first = clients_.front().start;
    Clock::time_point last = clients_.front().end;
    std::vector<double> latencies;
    for (const Client& cl : clients_) {
      first = std::min(first, cl.start);
      last = std::max(last, cl.end);
      rs.requests += cl.round.sent;
      phase.sent += cl.round.sent;
      phase.succeeded += cl.round.succeeded;
      phase.failed += cl.round.failed;
      phase.shed += cl.round.shed;
      latencies.insert(latencies.end(), cl.latencyUs.begin(), cl.latencyUs.end());
      if (hitUs != nullptr && missUs != nullptr) {
        for (std::size_t i = 0; i < cl.latencyUs.size(); ++i) {
          (cl.hit[i] ? hitUs : missUs)->push_back(cl.latencyUs[i]);
        }
      }
    }
    rs.wall = seconds(first, last);
    rs.retrainS = clients_.front().retrainS;
    rs.client0S = seconds(clients_.front().start, clients_.front().end);
    rs.rps = rs.wall > 0.0 ? static_cast<double>(rs.requests) / rs.wall : 0.0;
    if (!latencies.empty()) {
      rs.p50 = quantile(latencies, 0.50);
      rs.p99 = quantile(std::move(latencies), 0.99);
    }
    onRoundEnd_(clients_);
    sync_.arrive_and_wait();  // released: clients build their next batch
    return rs;
  }

  void stop() {
    if (threads_.empty()) return;
    stop_ = true;
    sync_.arrive_and_wait();
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  std::vector<Client>& clients() { return clients_; }

private:
  void clientLoop(std::size_t c) {
    Client& cl = clients_[c];
    refill(cl);
    ready_.count_down();
    while (true) {
      sync_.arrive_and_wait();
      if (stop_) return;
      runBatch(cl, c);
      sync_.arrive_and_wait();
      sync_.arrive_and_wait();
      refill(cl);
    }
  }

  void refill(Client& cl) {
    const auto sent = static_cast<std::ptrdiff_t>(cl.next);
    cl.specs.erase(cl.specs.begin(), cl.specs.begin() + sent);
    cl.requests.erase(cl.requests.begin(), cl.requests.begin() + sent);
    cl.next = 0;
    cl.latencyUs.clear();
    cl.hit.clear();
    auto request = [&](const LaunchSpec& spec) {
      return serve::LaunchRequest{deployment_.machines[spec.machine].name,
                                  launches_.build(spec), {}};
    };
    try {
      while (cl.requests.size() < batchSize_) {
        const LaunchSpec spec = cl.stream.next();
        cl.specs.push_back(spec);
        cl.requests.push_back(request(spec));
      }
    } catch (const std::exception& e) {
      cl.specs.resize(cl.requests.size());
      if (cl.error.empty()) cl.error = e.what();
    }
    cl.latencyUs.reserve(batchSize_);
    cl.hit.reserve(batchSize_);
    cl.checked.reserve(cl.checked.size() + batchSize_ / params_.checkStride + 1);
  }

  void runBatch(Client& cl, std::size_t c) {
    Target& target = *targets_[target_];
    serve::PartitionService& service = *target.service;
    const bool traced = traced_;
    cl.round = PhaseCount{};
    cl.retrainS = 0.0;
    cl.start = Clock::now();
    const auto deadline =
        cl.start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(params_.roundSeconds * options_.scale));
    if (retrain_ && c == 0) retrain(cl, target, traced);
    bool pastDeadline = false;
    while (true) {
      if (cl.next == cl.requests.size()) {
        roundOver_.store(true, std::memory_order_relaxed);
        break;
      }
      const std::size_t k = cl.next++;
      const bool sampled = cl.index++ % params_.checkStride == 0;
      const std::uint64_t seq0 =
          sampled ? target.retrainSeq.load(std::memory_order_acquire) : 0;
      serve::LaunchResponse response;
      bool ok = true;
      const auto t0 = Clock::now();
      {
        tp::obs::ScopedSpan span;
        if (traced) span.open(callSpan_, 0, false);
        try {
          response = service.call(std::move(cl.requests[k]));
        } catch (const std::exception& e) {
          ok = false;
          if (cl.error.empty()) cl.error = e.what();
        }
      }
      const auto t1 = Clock::now();
      ++cl.round.sent;
      if (!ok) {
        ++cl.round.failed;
      } else {
        ++(response.shed ? cl.round.shed : cl.round.succeeded);
        cl.latencyUs.push_back(static_cast<float>(seconds(t0, t1) * 1e6));
        cl.hit.push_back(response.cacheHit ? 1 : 0);
        if (sampled) {
          const std::uint64_t seq1 =
              target.retrainSeq.load(std::memory_order_acquire);
          if (c == 0 && options_.tamper && !cl.tampered) {
            options_.tamper(response);
            cl.tampered = true;
          }
          cl.checked.push_back(Checked{cl.specs[k], target_,
                                       seq0 != seq1 || (seq0 & 1) != 0,
                                       false, std::move(response)});
        }
      }
      // Keep sending until every client has passed its deadline, so no
      // client idles while another finishes a long call or a retrain.
      if (!pastDeadline && Clock::now() >= deadline) {
        pastDeadline = true;
        passed_.fetch_add(1, std::memory_order_relaxed);
      }
      if ((pastDeadline &&
           passed_.load(std::memory_order_relaxed) == clients_.size()) ||
          roundOver_.load(std::memory_order_relaxed)) {
        break;
      }
    }
    cl.end = Clock::now();
  }

  void retrain(Client& cl, Target& target, bool traced) {
    target.retrainSeq.fetch_add(1, std::memory_order_acq_rel);
    const auto t0 = Clock::now();
    {
      tp::obs::ScopedSpan span;
      if (traced) span.open(retrainSpan_, 0, false);
      target.service->retrain();
    }
    cl.retrainS = seconds(t0, Clock::now());
    cl.retrainMs.push_back(cl.retrainS * 1e3);
    target.retrainSeq.fetch_add(1, std::memory_order_acq_rel);
    target.captureModels(deployment_.machines);
  }

  const LaunchSet& launches_;
  const Deployment& deployment_;
  const WorkloadParams& params_;
  const RunOptions& options_;
  std::vector<Target*> targets_;
  std::size_t batchSize_;
  std::function<void(std::vector<Client>&)> onRoundEnd_;
  std::atomic<bool> roundOver_{false};  ///< a client ran out of requests
  std::atomic<std::size_t> passed_{0};  ///< clients past their deadline
  std::vector<Client> clients_;
  std::latch ready_;
  std::barrier<> sync_;
  // Round configuration: written by the driving thread before the start
  // barrier, read by clients after it.
  std::size_t target_ = 0;
  bool traced_ = false;
  bool retrain_ = false;
  bool stop_ = false;
  std::uint32_t callSpan_;
  std::uint32_t retrainSpan_;
  std::vector<std::thread> threads_;  ///< last: joined before the rest dies
};

/// Folds trace snapshots into per-name count, total and self time. Self
/// time is a span's duration minus its direct children on the same
/// thread. Snapshots are taken after every traced round of one session;
/// only events recorded since the previous snapshot are folded.
class SpanFolder {
public:
  void newSession() { consumed_.clear(); }

  void absorb(const tp::obs::TraceRecorder::Snapshot& snap) {
    for (const auto& thread : snap.threads) {
      const std::uint64_t total = thread.dropped + thread.events.size();
      std::uint64_t& seen = consumed_[thread.tid];
      const std::uint64_t fresh = total - seen;
      seen = total;
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(fresh, thread.events.size()));
      lost += fresh - take;
      fold(std::vector<tp::obs::TraceEvent>(thread.events.end() - static_cast<std::ptrdiff_t>(take),
                                            thread.events.end()),
           snap.names);
    }
  }

  std::map<std::string, SpanRow> rows;
  std::uint64_t lost = 0;  ///< events overwritten before a snapshot saw them

private:
  void fold(std::vector<tp::obs::TraceEvent> events,
            const std::vector<std::string>& names) {
    std::vector<tp::obs::TraceEvent> spans;
    for (const auto& e : events) {
      if (e.end == 0) {
        row(names, e.nameId).count += 1;
      } else {
        spans.push_back(e);
      }
    }
    std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
    });
    std::vector<std::uint64_t> childTicks(spans.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()].end <= spans[i].begin) {
        open.pop_back();
      }
      if (!open.empty()) childTicks[open.back()] += spans[i].end - spans[i].begin;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t dur = spans[i].end - spans[i].begin;
      SpanRow& r = row(names, spans[i].nameId);
      r.count += 1;
      r.totalUs += tp::obs::ticksToMicros(dur);
      r.selfUs += tp::obs::ticksToMicros(dur - std::min(dur, childTicks[i]));
    }
  }

  SpanRow& row(const std::vector<std::string>& names, std::uint32_t id) {
    const std::string name = id < names.size() ? names[id] : "?";
    SpanRow& r = rows[name];
    r.name = name;
    return r;
  }

  std::map<std::uint32_t, std::uint64_t> consumed_;
};

/// A field of /proc/self/status in MB: "VmRSS" (resident now) or "VmHWM"
/// (peak resident). NaN when the field is missing.
double statusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return std::nan("");
}

/// Resets the kernel's peak-resident counter (VmHWM) to the current
/// resident set. False when the kernel refuses.
bool resetPeakRss() {
  std::ofstream clearRefs("/proc/self/clear_refs");
  clearRefs << "5" << std::flush;
  return static_cast<bool>(clearRefs);
}

template <typename Fn>
double timeUs(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds(t0, Clock::now()) * 1e6;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}


struct Reference {
  double oracle = 0.0;
  double cpu = 0.0;
  double gpu = 0.0;
};

/// Checks served responses against independent answers, at every round
/// end while the clients wait, and scores the quality sample. Checking as
/// the run goes lets it drop the responses and every model generation no
/// later response can name.
class Checker {
public:
  Checker(const Deployment& dep, const LaunchSet& launches,
          const std::vector<std::unique_ptr<Target>>& targets,
          const std::map<std::uint64_t, Reference>& refs)
      : dep_(dep), launches_(launches), targets_(targets), refs_(refs) {
    for (const auto& machine : dep.machines) {
      contexts_.push_back(std::make_unique<tp::vcl::Context>(
          machine, tp::vcl::ExecMode::TimeOnly));
      schedulers_.push_back(std::make_unique<rt::Scheduler>(*contexts_.back()));
    }
  }

  void absorb(std::vector<Client>& clients) {
    for (Client& cl : clients) {
      for (const Checked& ck : cl.checked) check(ck);
      cl.checked.clear();
    }
    // Every request of the round has been answered, so no later response
    // names a generation older than the current one.
    for (const auto& target : targets_) {
      const std::uint64_t current = target->service->modelVersion();
      std::lock_guard<std::mutex> lock(target->modelsMutex);
      auto& models = target->models;
      models.erase(models.begin(), models.lower_bound(current));
    }
  }

  /// Checks one response; scores it when it is a quality request.
  void check(const Checked& ck) {
    ++checked;
    const serve::LaunchResponse& r = ck.response;
    // The task is built only when a memo misses or a check fails.
    std::optional<rt::Task> built;
    auto task = [&]() -> const rt::Task& {
      if (!built) built = launches_.build(ck.spec);
      return *built;
    };
    auto where = [&] {
      return "launch " + std::to_string(ck.spec.id) + " (" + task().programName +
             " on " + dep_.machines[ck.spec.machine].name + ")";
    };
    if (r.shed) {
      mismatch(where() + ": shed");
      return;
    }
    if (r.label >= dep_.space.size() ||
        !(r.partitioning == dep_.space.at(r.label))) {
      mismatch(where() + ": partitioning does not match label " +
               std::to_string(r.label));
      return;
    }
    const long expected = expectedLabel(ck.target, r.modelVersion, ck.spec, task);
    bool labelOk = expected == static_cast<long>(r.label);
    if (!labelOk && ck.overlapped) {
      // Raced retrain(): the service swaps models before it bumps the
      // generation, so a decision in that window may come from the next
      // generation's model.
      ++overlapped;
      labelOk = expectedLabel(ck.target, r.modelVersion + 1, ck.spec, task) ==
                static_cast<long>(r.label);
    }
    if (!labelOk) {
      mismatch(where() + ": served label " + std::to_string(r.label) +
               " but predictLabel gives " + std::to_string(expected) +
               " for model generation " + std::to_string(r.modelVersion));
      return;
    }
    const auto mkey = std::make_pair(ck.spec.id, r.label);
    auto ms = makespanMemo_.find(mkey);
    if (ms == makespanMemo_.end()) {
      ms = makespanMemo_
               .emplace(mkey, schedulers_[ck.spec.machine]
                                  ->execute(task(), dep_.space.at(r.label))
                                  .makespan)
               .first;
    }
    if (r.execution.makespan != ms->second) {
      mismatch(where() + ": served makespan " + jsonNumber(r.execution.makespan) +
               " but Scheduler::execute gives " + jsonNumber(ms->second));
      return;
    }
    if (ck.quality) {
      const Reference& ref = refs_.at(ck.spec.id);
      overOracle.push_back(ref.oracle / r.execution.makespan);
      overCpu.push_back(ref.cpu / r.execution.makespan);
      overGpu.push_back(ref.gpu / r.execution.makespan);
    }
    if (ck.target == 1 && stageSample.size() < kStageSample &&
        stageIds_.insert(ck.spec.id).second) {
      stageSample.emplace_back(ck.spec, r.label);
    }
  }

  std::uint64_t checked = 0;
  std::uint64_t wrong = 0;
  std::uint64_t overlapped = 0;  ///< raced a retrain and needed the next model
  std::vector<std::string> mismatches;  ///< the first few
  std::vector<double> overOracle;
  std::vector<double> overCpu;
  std::vector<double> overGpu;
  /// Distinct launches the traced service (target 1) served, with the
  /// served label: the sample the stage costs are timed on.
  std::vector<std::pair<LaunchSpec, std::size_t>> stageSample;

private:
  static constexpr std::size_t kStageSample = 256;

  void mismatch(const std::string& what) {
    ++wrong;
    if (mismatches.size() < 8) mismatches.push_back(what);
  }

  /// The label the model of generation `version` gives: predictLabel()
  /// itself for the current generation, the captured model of that
  /// generation (same features, same predict) for older ones. -1 when no
  /// model of that generation was captured.
  template <typename TaskFn>
  long expectedLabel(std::size_t t, std::uint64_t version,
                     const LaunchSpec& spec, TaskFn&& taskFn) {
    const auto key = std::make_tuple(t, version, spec.id);
    const auto memo = labelMemo_.find(key);
    if (memo != labelMemo_.end()) return memo->second;
    long label = -1;
    Target& target = *targets_[t];
    if (version == target.service->modelVersion()) {
      label = static_cast<long>(target.service->predictLabel(
          dep_.machines[spec.machine].name, taskFn()));
    } else {
      std::lock_guard<std::mutex> lock(target.modelsMutex);
      if (const auto it = target.models.find(version); it != target.models.end()) {
        label = it->second[spec.machine]->predict(
            tp::features::combinedFeatureVector(taskFn().features,
                                                taskFn().launchInfo()));
      }
    }
    labelMemo_[key] = label;
    return label;
  }

  const Deployment& dep_;
  const LaunchSet& launches_;
  const std::vector<std::unique_ptr<Target>>& targets_;
  const std::map<std::uint64_t, Reference>& refs_;
  std::vector<std::unique_ptr<tp::vcl::Context>> contexts_;
  std::vector<std::unique_ptr<rt::Scheduler>> schedulers_;
  std::map<std::tuple<std::size_t, std::uint64_t, std::uint64_t>, long> labelMemo_;
  std::map<std::pair<std::uint64_t, std::size_t>, double> makespanMemo_;
  std::set<std::uint64_t> stageIds_;
};

}  // namespace

const std::vector<WorkloadParams>& workloads() {
  // name, round deadline (s), prebuilt requests per client, retrain every
  // round, quality requests per client, their fresh share, check stride.
  static const std::vector<WorkloadParams> all = {
      {"warm_skew", 0.05, 24576, false, 4096, 0.0, 64},
      {"retrain_churn", 0.1, 32768, true, 4096, 0.01, 16},
  };
  return all;
}

const WorkloadParams& workloadByName(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string RunResult::json() const {
  std::ostringstream os;
  os << "{\"workload\": " << jsonString(workload) << ", \"seed\": " << seed
     << ", \"trace\": " << (trace ? 1 : 0) << ", \"clients\": " << clients
     << ", \"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"shed\": " << shed << ", \"wrong\": " << wrong
     << ", \"checked\": " << checked << ", \"phases\": [";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseCount& p = phases[i];
    os << (i ? ", " : "") << "{\"name\": " << jsonString(p.name)
       << ", \"sent\": " << p.sent << ", \"succeeded\": " << p.succeeded
       << ", \"failed\": " << p.failed << ", \"shed\": " << p.shed << "}";
  }
  os << "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << jsonString(metrics[i].name)
       << ": {\"value\": " << jsonNumber(metrics[i].value)
       << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
  }
  os << "}, \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": " << jsonString(spans[i].name)
       << ", \"count\": " << spans[i].count
       << ", \"total_us\": " << jsonNumber(spans[i].totalUs)
       << ", \"self_us\": " << jsonNumber(spans[i].selfUs) << "}";
  }
  os << "], \"rounds\": [";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    os << (i ? ", " : "") << "[" << jsonNumber(rounds[i][0]) << ", "
       << jsonNumber(rounds[i][1]) << ", " << jsonNumber(rounds[i][2]) << ", "
       << jsonNumber(rounds[i][3]) << "]";
  }
  os << "], \"notes\": {";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    os << (i ? ", " : "") << jsonString(notes[i].first) << ": "
       << jsonString(notes[i].second);
  }
  os << "}, \"mismatches\": [";
  for (std::size_t i = 0; i < mismatches.size(); ++i) {
    os << (i ? ", " : "") << jsonString(mismatches[i]);
  }
  os << "]}";
  return os.str();
}

RunResult runWorkload(const RunOptions& opt) {
  const WorkloadParams& wp = workloadByName(opt.workload);
  // One CPU is left to the service's lane workers, retrain() and the
  // system, so a client is not descheduled whenever one of them runs.
  const std::size_t clients = std::clamp<std::size_t>(
      std::max(2u, std::thread::hardware_concurrency()) - 1, 1, 4);
  const std::size_t batchSize = std::max<std::size_t>(
      8, static_cast<std::size_t>(static_cast<double>(wp.batchPerClient) * opt.scale));
  const std::size_t qualitySize = std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(wp.qualityPerClient) * opt.scale));
  const double roundSeconds = wp.roundSeconds * opt.scale;
  const auto timedRounds = static_cast<std::size_t>(
      std::max(4.0, std::round(opt.seconds / roundSeconds)));

  RunResult res;
  res.workload = wp.name;
  res.seed = opt.seed;
  res.trace = opt.trace;
  res.clients = clients;
  auto note = [&](const std::string& key, const std::string& value) {
    res.notes.emplace_back(key, value);
  };
  auto metric = [&](const std::string& name, double value,
                    const std::string& unit) {
    res.metrics.push_back(Metric{name, value, unit});
  };

  // ---- set-up, repeated; the last deployment serves -------------------
  std::vector<SetupTimes> setups;
  Deployment dep = setUp(opt.ladderSizes);
  setups.push_back(dep.times);
  for (std::size_t rep = 1; rep < std::max<std::size_t>(1, opt.setupReps); ++rep) {
    dep = setUp(opt.ladderSizes);
    setups.push_back(dep.times);
  }
  // Hand the set-ups' freed inputs back to the system and restart the
  // peak-resident counter, so peak_rss_mb covers serving only.
  malloc_trim(0);
  const bool peakReset = resetPeakRss();
  auto setupMedian = [&](auto field) {
    std::vector<double> v;
    for (const auto& s : setups) v.push_back(field(s));
    return median(std::move(v));
  };

  // The traced run drives a second service, configured with the metrics
  // registry, over the same models; its rounds alternate in blocks with
  // untraced rounds on the first service.
  tp::obs::Registry registry;  // outlives tracedService
  std::unique_ptr<serve::PartitionService> tracedService;
  std::vector<std::unique_ptr<Target>> targets;
  targets.push_back(std::make_unique<Target>(dep.service.get()));
  if (opt.trace) {
    serve::ServiceConfig config;
    config.metrics = &registry;
    tracedService = makeService(config, dep);
    targets.push_back(std::make_unique<Target>(tracedService.get()));
  }
  for (auto& t : targets) t->captureModels(dep.machines);

  // Streams 0..clients-1 feed the timed clients (warm launches only),
  // streams clients.. the quality sample, the only fresh launches of a run.
  const LaunchSet launches(opt.seed, dep.machines.size(), 2, 2,
                           wp.qualityFreshShare > 0.0 ? 2 : 0);
  std::vector<ClientStream> streams;
  std::vector<std::vector<LaunchSpec>> qualitySpecs(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    streams.emplace_back(launches, 0.0, opt.seed, c, 2 * clients);
    ClientStream quality(launches, wp.qualityFreshShare, opt.seed, clients + c,
                         2 * clients);
    for (std::size_t q = 0; q < qualitySize; ++q) {
      qualitySpecs[c].push_back(quality.next());
    }
  }

  // ---- oracle / single-device references of the quality sample ---------
  std::map<std::uint64_t, Reference> refs;
  const std::size_t cpuIdx = dep.space.cpuOnlyIndex();
  const std::size_t gpuIdx = dep.space.singleDeviceIndex(1);
  for (const auto& specs : qualitySpecs) {
    for (const LaunchSpec& spec : specs) {
      if (refs.count(spec.id) != 0) continue;
      const auto rec = rt::measureLaunch(launches.build(spec),
                                         dep.machines[spec.machine], dep.space,
                                         "quality");
      refs[spec.id] = Reference{rec.bestTime(), rec.times[cpuIdx], rec.times[gpuIdx]};
    }
  }

  auto send = [&](Target& t, const LaunchSpec& spec, PhaseCount& phase,
                  serve::LaunchResponse& out) {
    ++phase.sent;
    try {
      out = t.service->call(serve::LaunchRequest{
          dep.machines[spec.machine].name, launches.build(spec), {}});
      ++(out.shed ? phase.shed : phase.succeeded);
      return true;
    } catch (const std::exception& e) {
      ++phase.failed;
      if (res.mismatches.size() < 8) {
        res.mismatches.push_back("call failed: " + std::string(e.what()));
      }
      return false;
    }
  };

  // ---- fill: every warm launch once per service ------------------------
  PhaseCount fill{"fill"};
  for (auto& t : targets) {
    for (const LaunchSpec& spec : launches.warm()) {
      serve::LaunchResponse r;
      (void)send(*t, spec, fill, r);
    }
  }

  // ---- quality: every client's quality stream, one request at a time,
  // on every service, before any retrain; scored on the first ----------
  Checker checker(dep, launches, targets, refs);
  PhaseCount quality{"quality"};
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (const auto& specs : qualitySpecs) {
      for (const LaunchSpec& spec : specs) {
        Checked ck{spec, t, false, t == 0, {}};
        if (send(*targets[t], spec, quality, ck.response)) checker.check(ck);
      }
    }
  }

  std::vector<Target*> targetPtrs;
  for (auto& t : targets) targetPtrs.push_back(t.get());
  Engine engine(launches, dep, wp, opt, std::move(streams), targetPtrs, batchSize,
                [&checker](std::vector<Client>& clients) { checker.absorb(clients); });
  engine.waitReady();
  const double batchesRss = statusMb("VmRSS");

  // ---- warm-up: untimed rounds per service, run as the timed ones, a
  // fifth as many: lazy lanes and pools start, and the prebuilt requests
  // are recycled until the heap holds them as scattered as it will -------
  const std::size_t warmupRounds = std::max<std::size_t>(2, timedRounds / 5);
  PhaseCount warmup{"warmup"};
  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (std::size_t r = 0; r < warmupRounds; ++r) engine.round(t, false, true, warmup);
  }
  for (auto& t : targets) t->before = t->service->stats();

  // ---- timed rounds ------------------------------------------------------
  PhaseCount timed{"timed"};
  PhaseCount timedTraced{"timed_traced"};
  std::vector<RoundStats> plainRounds;
  std::vector<RoundStats> tracedRounds;
  std::vector<float> hitUs;
  std::vector<float> missUs;
  SpanFolder folder;
  std::uint64_t tracedRequests = 0;
  auto& recorder = tp::obs::traceRecorder();
  if (!opt.trace) {
    for (std::size_t r = 0; r < timedRounds; ++r) {
      plainRounds.push_back(engine.round(0, false, true, timed));
    }
  } else {
    // Four blocks, untraced / traced alternating, so drift hits both.
    // One trace session per traced block; the folder reads each round.
    constexpr std::size_t kBlocks = 4;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const bool traced = b % 2 == 1;
      if (traced) {
        tp::obs::TraceRecorder::Config config;
        config.ringCapacity = 1 << 16;
        config.sampleEveryN = 1;  // every inline hit, so self times add up
        recorder.enable(config);
        folder.newSession();
      }
      for (std::size_t r = 0; r < std::max<std::size_t>(2, timedRounds / kBlocks); ++r) {
        if (traced) {
          RoundStats rs = engine.round(1, true, true, timedTraced);
          tracedRequests += rs.requests;
          folder.absorb(recorder.snapshot());
          tracedRounds.push_back(rs);
        } else {
          plainRounds.push_back(engine.round(0, false, true, timed, &hitUs, &missUs));
        }
      }
      if (traced) recorder.disable();
    }
  }
  engine.stop();

  std::vector<serve::ServiceStats> after;
  for (auto& t : targets) after.push_back(t->service->stats());

  // ---- phase accounting --------------------------------------------------
  res.phases = {fill, quality, warmup, timed};
  if (opt.trace) res.phases.push_back(timedTraced);
  for (const auto& p : res.phases) {
    res.attempted += p.sent;
    res.failed += p.failed;
    res.shed += p.shed;
  }
  for (const Client& cl : engine.clients()) {
    if (!cl.error.empty()) res.mismatches.push_back("client error: " + cl.error);
  }

  // ---- correctness: every checked response, checked at each round end ----
  res.checked = checker.checked;
  res.wrong = checker.wrong;
  res.mismatches.insert(res.mismatches.end(), checker.mismatches.begin(),
                        checker.mismatches.end());
  const std::vector<double>& overOracle = checker.overOracle;
  auto mismatch = [&](const std::string& what) {
    ++res.wrong;
    res.mismatches.push_back(what);
  };
  if (res.checked == 0) mismatch("no response was checked");
  if (overOracle.empty()) mismatch("no response was scored against the oracle");
  res.correct = res.wrong == 0 && res.failed == 0 && res.shed == 0 &&
                res.mismatches.empty();
  const double errorRate =
      res.attempted == 0
          ? 1.0
          : static_cast<double>(res.failed + res.shed + res.wrong) /
                static_cast<double>(res.attempted);

  for (const auto& rs : plainRounds) {
    res.rounds.push_back({rs.rps, rs.p50, rs.p99, rs.retrainS * 1e3});
  }

  // ---- sample notes ------------------------------------------------------
  std::uint64_t latencySamples = 0;
  for (const auto& rs : plainRounds) latencySamples += rs.requests;
  note("timed_rounds", std::to_string(plainRounds.size()));
  note("timed_requests", std::to_string(latencySamples));
  note("latency", "p50/p99 per round, median over " +
                      std::to_string(plainRounds.size()) + " rounds of " +
                      std::to_string(static_cast<int>(roundSeconds * 1e3)) +
                      " ms (" + std::to_string(latencySamples) + " samples)");
  note("checked", std::to_string(res.checked) +
                      " responses: every quality response, then every " +
                      std::to_string(wp.checkStride) + "th of each client");
  note("quality_sample", std::to_string(overOracle.size()) + " responses (" +
                             std::to_string(qualitySize) + " per client, " +
                             jsonNumber(wp.qualityFreshShare) + " fresh share), " +
                             std::to_string(refs.size()) + " distinct launches");
  note("retrain_races_checked_against_next_model", std::to_string(checker.overlapped));
  note("setup_reps", std::to_string(setups.size()));

  auto roundMedian = [](const std::vector<RoundStats>& rounds, auto field) {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(field(r));
    return v.empty() ? 0.0 : median(std::move(v));
  };
  const double plainRps = roundMedian(plainRounds, [](const RoundStats& r) { return r.rps; });
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };

  // What retraining costs the untraced rounds: its rate, client 0's time
  // inside retrain(), and the misses each retrain's cache invalidation
  // causes (timed traffic is warm, so every miss is one).
  const serve::ServiceStats& pb = targets[0]->before;
  const serve::ServiceStats& pa = after[0];
  const double plainMisses =
      d(pa.cache.lookups, pb.cache.lookups) - d(pa.cache.hits, pb.cache.hits);
  if (wp.retrainEachRound) {
    double wall = 0.0, retrainS = 0.0, client0S = 0.0;
    for (const auto& rs : plainRounds) {
      wall += rs.wall;
      retrainS += rs.retrainS;
      client0S += rs.client0S;
    }
    const auto retrains = static_cast<double>(plainRounds.size());
    note("retrains_per_s", jsonNumber(ratio(retrains, wall)));
    note("retrain_share_of_client0", jsonNumber(ratio(retrainS, client0S)));
    note("retrain_ms_median",
         jsonNumber(1e3 * roundMedian(plainRounds, [](const RoundStats& r) {
           return r.retrainS;
         })));
    note("invalidation_misses_per_retrain",
         jsonNumber(ratio(plainMisses, retrains)));
  }

  auto geo = [](const std::vector<double>& v) {
    return v.empty() ? std::nan("") : geomean(v);
  };
  if (!opt.trace) {
    metric("throughput_rps", plainRps, "req/s");
    metric("latency_p50_us",
           roundMedian(plainRounds, [](const RoundStats& r) { return r.p50; }), "us");
    metric("latency_p99_us",
           roundMedian(plainRounds, [](const RoundStats& r) { return r.p99; }), "us");
    metric("success_rate", 1.0 - errorRate, "fraction");
    metric("oracle_frac", geo(checker.overOracle), "ratio");
    metric("speedup_vs_cpu", geo(checker.overCpu), "x");
    metric("speedup_vs_gpu", geo(checker.overGpu), "x");
    metric("setup_s", setupMedian([](const SetupTimes& s) { return s.totalS(); }), "s");
    metric("peak_rss_mb", statusMb("VmHWM"), "MB");
    note("peak_rss_basis",
         peakReset ? "VmHWM, reset after set-up; it includes the benchmark's "
                     "own launch set and prebuilt requests"
                   : "VmHWM since process start (the kernel refused the reset)");
    note("rss_after_batches_built_mb", jsonNumber(batchesRss));
    note("rss_growth_while_serving_mb", jsonNumber(statusMb("VmHWM") - batchesRss));
    note("error_rate", jsonNumber(errorRate));
    return res;
  }

  // ---- per-layer (traced run) --------------------------------------------
  const serve::ServiceStats& tb = targets[1]->before;
  const serve::ServiceStats& ta = after[1];
  metric("serve.cache.hit_rate",
         ratio(d(ta.cache.hits, tb.cache.hits), d(ta.cache.lookups, tb.cache.lookups)),
         "fraction");
  metric("serve.cache.evictions", d(ta.cache.evictions, tb.cache.evictions), "count");
  metric("serve.cache.invalidations",
         d(ta.cache.invalidations, tb.cache.invalidations), "count");
  const double completed = d(ta.requestsCompleted, tb.requestsCompleted);
  const double inlined = d(ta.requestsInline, tb.requestsInline);
  metric("serve.inline_frac", ratio(inlined, completed), "fraction");
  metric("serve.lane_exhausted_frac",
         ratio(d(ta.inlineLaneExhausted, tb.inlineLaneExhausted),
               d(ta.requestsSubmitted, tb.requestsSubmitted)),
         "fraction");
  metric("serve.mean_batch",
         ratio(completed - inlined - d(ta.requestsShed, tb.requestsShed),
               d(ta.batches, tb.batches)),
         "requests");
  // The database size: on both workloads every record comes from the fill
  // and the quality sample, so it grows with what a run sent, not its speed.
  metric("serve.feedback.records", static_cast<double>(ta.feedbackRecords), "count");

  // Stage costs, timed from outside on launches the traced service served.
  std::vector<std::unique_ptr<tp::vcl::Context>> contexts;
  std::vector<std::unique_ptr<rt::Scheduler>> schedulers;
  for (const auto& machine : dep.machines) {
    contexts.push_back(std::make_unique<tp::vcl::Context>(
        machine, tp::vcl::ExecMode::TimeOnly));
    schedulers.push_back(std::make_unique<rt::Scheduler>(*contexts.back()));
  }
  constexpr int kReps = 5;
  std::vector<double> featuresUs, predictUs, predictLabelUs, executeUs, sweepUs;
  const ModelSet finalModels = [&] {
    std::lock_guard<std::mutex> lock(targets[1]->modelsMutex);
    return targets[1]->models.rbegin()->second;
  }();
  for (std::size_t i = 0; i < checker.stageSample.size(); ++i) {
    const auto& [spec, label] = checker.stageSample[i];
    const rt::Task task = launches.build(spec);
    const std::string& machine = dep.machines[spec.machine].name;
    const rt::Partitioning& served = dep.space.at(label);
    std::vector<double> x;
    for (int rep = 0; rep < kReps; ++rep) {
      featuresUs.push_back(timeUs([&] {
        x = tp::features::combinedFeatureVector(task.features, task.launchInfo());
      }));
      predictUs.push_back(timeUs([&] {
        volatile int predicted = finalModels[spec.machine]->predict(x);
        (void)predicted;
      }));
      predictLabelUs.push_back(timeUs([&] {
        volatile std::size_t predicted = tracedService->predictLabel(machine, task);
        (void)predicted;
      }));
      executeUs.push_back(timeUs([&] {
        (void)schedulers[spec.machine]->execute(task, served);
      }));
    }
    if (i < 64) {
      sweepUs.push_back(timeUs([&] {
        (void)rt::measureLaunch(task, dep.machines[spec.machine], dep.space,
                                "sweep");
      }));
    }
  }
  auto med = [](std::vector<double> v) { return v.empty() ? 0.0 : median(std::move(v)); };
  const double featuresMed = med(featuresUs);
  const double predictMed = med(predictUs);
  const double executeMed = med(executeUs);
  const double sweepMed = med(sweepUs);
  metric("features.vector_us", featuresMed, "us");
  metric("ml.predict_us", predictMed, "us");
  metric("ml.predict_label_us", med(predictLabelUs), "us");
  metric("runtime.execute_us", executeMed, "us");
  metric("serve.feedback.sweep_us", sweepMed, "us");

  // Time in a call() the stage costs do not explain, from the untraced
  // service: a miss pays features + predict + execute and, when it is a
  // launch not yet recorded, the feedback sweep; a hit pays execute.
  const double records = d(pa.feedbackRecords, pb.feedbackRecords);
  double unattributed = 0.0;
  if (missUs.size() >= 100) {
    std::vector<double> v(missUs.begin(), missUs.end());
    unattributed = median(std::move(v)) -
                   (featuresMed + predictMed + executeMed +
                    sweepMed * std::min(1.0, ratio(records, plainMisses)));
    note("unattributed_basis", "miss median over " + std::to_string(missUs.size()) + " untraced misses");
  } else {
    std::vector<double> v(hitUs.begin(), hitUs.end());
    unattributed = (v.empty() ? 0.0 : median(std::move(v))) - executeMed;
    note("unattributed_basis", "hit median over " + std::to_string(hitUs.size()) +
                                   " untraced hits (" + std::to_string(missUs.size()) + " misses)");
  }
  metric("serve.unattributed_us", unattributed, "us");

  std::vector<double> retrainMs;
  for (const Client& cl : engine.clients()) {
    retrainMs.insert(retrainMs.end(), cl.retrainMs.begin(), cl.retrainMs.end());
  }
  if (retrainMs.empty()) {
    // No retrain in this workload's traffic: time one on the traced
    // service's recorded traffic, after every check above.
    retrainMs.push_back(timeUs([&] { tracedService->retrain(); }) / 1e3);
  }
  note("retrain_samples", std::to_string(retrainMs.size()));
  metric("ml.retrain_ms", med(retrainMs), "ms");

  metric("setup.compile_s", setupMedian([](const SetupTimes& s) { return s.compileS; }), "s");
  metric("setup.inputs_s", setupMedian([](const SetupTimes& s) { return s.inputsS; }), "s");
  metric("setup.sweep_s", setupMedian([](const SetupTimes& s) { return s.sweepS; }), "s");
  metric("setup.train_s", setupMedian([](const SetupTimes& s) { return s.trainS; }), "s");
  metric("setup.service_s", setupMedian([](const SetupTimes& s) { return s.serviceS; }), "s");

  // Folded spans, per name, plus the explicit unattributed row: the part
  // of bench.call that no stage span covers, per traced request.
  double stageTotal = 0.0;
  for (const auto& name : stageSpans()) {
    const auto it = folder.rows.find(name);
    if (it != folder.rows.end()) stageTotal += it->second.totalUs;
  }
  for (const auto& name : reportedSpans()) {
    const auto it = folder.rows.find(name);
    const SpanRow row = it == folder.rows.end() ? SpanRow{name, 0, 0.0, 0.0} : it->second;
    metric("obs.span." + name + ".count", static_cast<double>(row.count), "count");
    metric("obs.span." + name + ".self_us",
           ratio(row.selfUs, static_cast<double>(row.count)), "us");
  }
  {
    const auto it = folder.rows.find("serve.submit_miss");
    metric("obs.span.serve.submit_miss.count",
           it == folder.rows.end() ? 0.0 : static_cast<double>(it->second.count),
           "count");
  }
  const auto call = folder.rows.find("bench.call");
  const double callTotal = call == folder.rows.end() ? 0.0 : call->second.totalUs;
  metric("obs.span.unattributed.self_us",
         ratio(callTotal - stageTotal, static_cast<double>(tracedRequests)), "us");
  for (const auto& [name, row] : folder.rows) res.spans.push_back(row);
  res.spans.push_back(SpanRow{"(unattributed in bench.call)", tracedRequests, callTotal - stageTotal,
                              callTotal - stageTotal});
  note("trace_events_lost", std::to_string(folder.lost));

  const double tracedRps =
      roundMedian(tracedRounds, [](const RoundStats& r) { return r.rps; });
  metric("obs.trace_overhead_frac", 1.0 - ratio(tracedRps, plainRps), "fraction");
  note("trace_overhead_basis", "median req/s of " + std::to_string(tracedRounds.size()) +
                                   " traced vs " + std::to_string(plainRounds.size()) +
                                   " untraced rounds");
  return res;
}

}  // namespace perfbench
