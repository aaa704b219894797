// perfbench_serve: run one workload of the repository benchmark and print
// its result as one JSON object on stdout.
//
//   perfbench_serve --workload warm_skew --seed 1 --seconds 15 --trace 0
//
// Exit code 0 when every check passed, 1 when a response was wrong or a
// request failed, 2 on a usage error. perfbench/run.py builds this binary,
// runs it and formats the result.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/log.hpp"
#include "runner.hpp"

int main(int argc, char** argv) {
  tp::common::setLogLevel(tp::common::LogLevel::Warn);
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: perfbench_serve --workload "
                   "NAME --seed N --seconds S --trace 0|1\n",
                   arg.c_str());
      return 2;
    }
  }
  try {
    (void)perfbench::workloadByName(opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  try {
    const perfbench::RunResult result = perfbench::runWorkload(opt);
    std::printf("%s\n", result.json().c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    return 1;
  }
}
