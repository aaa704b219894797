// perfbench_selftest: the benchmark's own checks.
//
//   1. the quantile / median / geomean helpers;
//   2. the traffic generator: seeded, and fresh keys never repeat;
//   3. a tiny-load run of every workload, untraced and traced, that must
//      pass, with quality metrics that repeat exactly for the same seed,
//      and tampered runs that must fail: a served label changed (with a
//      matching partitioning) and a served makespan changed.
//
// Exit code 0 when every check holds. Run it with
// `python3 perfbench/run.py --self-test`.

#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "runner.hpp"
#include "runtime/partitioning.hpp"
#include "sim/machine.hpp"
#include "stats_util.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * (1.0 + std::fabs(b)); }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void testHelpers() {
  using perfbench::geomean;
  using perfbench::median;
  using perfbench::quantile;
  expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "quantile: even-sized median interpolates");
  expect(near(quantile({4, 1, 3, 2}, 0.0), 1.0), "quantile: q=0 is the minimum");
  expect(near(quantile({4, 1, 3, 2}, 1.0), 4.0), "quantile: q=1 is the maximum");
  expect(near(quantile({4, 1, 3, 2}, 0.25), 1.75), "quantile: type-7 interpolation");
  expect(near(quantile({7}, 0.99), 7.0), "quantile: single sample is every quantile");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(quantile(hundred, 0.99), 99.01), "quantile: p99 of 1..100");
  expect(near(median({5, 1, 3}), 3.0), "median: odd-sized");
  expect(throws([] { (void)quantile({}, 0.5); }), "quantile: empty sample throws");
  expect(throws([] { (void)quantile({1.0}, 1.5); }), "quantile: q outside [0,1] throws");
  expect(near(geomean({1, 4}), 2.0), "geomean: {1, 4}");
  expect(near(geomean({2, 8, 4}), 4.0), "geomean: {2, 8, 4}");
  expect(near(geomean({0.5, 2}), 1.0), "geomean: reciprocal pair");
  expect(throws([] { (void)geomean({}); }), "geomean: empty sample throws");
  expect(throws([] { (void)geomean({1.0, 0.0}); }), "geomean: zero throws");
  expect(throws([] { (void)geomean({1.0, -2.0}); }), "geomean: negative throws");
}

void testStreams() {
  const perfbench::LaunchSet launches(7, 2);
  expect(launches.warm().size() == 2 * 2 * launches.programs(),
         "launch set: programs x 2 sizes x 2 machines warm launches");
  auto draw = [&](std::uint64_t seed, double fresh, std::size_t client) {
    perfbench::ClientStream s(launches, fresh, seed, client, 4);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 500; ++i) ids.push_back(s.next().id);
    return ids;
  };
  expect(draw(7, 0.5, 1) == draw(7, 0.5, 1), "stream: same seed, same requests");
  expect(draw(7, 0.5, 1) != draw(8, 0.5, 1), "stream: another seed, other requests");
  std::set<std::uint64_t> fresh;
  std::size_t drawn = 0;
  for (std::size_t c = 0; c < 4; ++c) {
    for (const auto id : draw(7, 1.0, c)) {
      fresh.insert(id);
      ++drawn;
    }
  }
  expect(fresh.size() == drawn, "stream: fresh launches never repeat across clients");
  bool allWarm = true;
  for (const auto id : draw(7, 0.0, 0)) allWarm = allWarm && id < launches.warm().size();
  expect(allWarm, "stream: fresh share 0 sends warm launches only");
}

perfbench::RunOptions tiny(const std::string& workload, bool trace) {
  perfbench::RunOptions opt;
  opt.workload = workload;
  opt.seed = 3;
  opt.seconds = 0.2;
  opt.trace = trace;
  opt.setupReps = 1;
  opt.ladderSizes = 2;
  opt.scale = 0.05;
  return opt;
}

void testRuns() {
  const tp::runtime::PartitioningSpace space(
      tp::sim::evaluationMachines().front().numDevices(), 10);
  auto quality = [](const perfbench::RunResult& r) {
    std::vector<double> v;
    for (const auto& m : r.metrics) {
      if (m.name == "oracle_frac" || m.name.rfind("speedup_vs_", 0) == 0) {
        v.push_back(m.value);
      }
    }
    return v;
  };
  for (const auto& w : perfbench::workloads()) {
    std::vector<double> firstQuality;
    for (const bool trace : {false, true}) {
      const auto r = perfbench::runWorkload(tiny(w.name, trace));
      std::string why = r.mismatches.empty() ? "" : ": " + r.mismatches.front();
      expect(r.correct && r.wrong == 0 && r.checked > 0,
             w.name + (trace ? " traced" : "") + ": tiny run passes every check" + why);
      bool finite = !r.metrics.empty();
      for (const auto& m : r.metrics) finite = finite && std::isfinite(m.value);
      expect(finite, w.name + (trace ? " traced" : "") + ": every metric is a number");
      if (!trace) firstQuality = quality(r);
    }
    const auto again = quality(perfbench::runWorkload(tiny(w.name, false)));
    expect(firstQuality.size() == 3 && again == firstQuality,
           w.name + ": quality metrics repeat exactly for the same seed");

    auto label = tiny(w.name, false);
    label.tamper = [&space](tp::serve::LaunchResponse& r) {
      r.label = (r.label + 1) % space.size();
      r.partitioning = space.at(r.label);
    };
    const auto badLabel = perfbench::runWorkload(label);
    expect(!badLabel.correct && badLabel.wrong == 1,
           w.name + ": a tampered label fails the run");

    auto makespan = tiny(w.name, false);
    makespan.tamper = [](tp::serve::LaunchResponse& r) {
      r.execution.makespan = std::nextafter(r.execution.makespan, 1.0);
    };
    const auto badMakespan = perfbench::runWorkload(makespan);
    expect(!badMakespan.correct && badMakespan.wrong == 1,
           w.name + ": a tampered makespan fails the run");
  }
}

}  // namespace

int main() {
  tp::common::setLogLevel(tp::common::LogLevel::Warn);
  try {
    testHelpers();
    testStreams();
    testRuns();
  } catch (const std::exception& e) {
    std::printf("FAIL  uncaught exception: %s\n", e.what());
    ++failures;
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
