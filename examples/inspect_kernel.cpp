// Kernel inspection tool: runs the compiler pipeline on an OpenCL-C file
// (or a built-in demo kernel) and reports everything the partitioning
// decision is based on — static features as symbolic polynomials, the
// buffer distribution plan, and the predicted cost profile on every device
// of both machines at a chosen problem size.
//
// Usage: inspect_kernel [kernel.cl] [globalSize]

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/log.hpp"
#include "features/runtime_features.hpp"
#include "ir/printer.hpp"
#include "runtime/compiler.hpp"
#include "sim/machine.hpp"

using namespace tp;

namespace {

const char* kDemoKernel = R"(
__kernel void blend(__global const float* a, __global const float* b,
                    __global float* out, float t, int n) {
  int i = get_global_id(0);
  if (i < n) {
    float x = a[i];
    float y = b[i];
    out[i] = x + t * (y - x) + sqrt(fabs(x * y));
  }
}
)";

}  // namespace

int main(int argc, char** argv) {
  common::setLogLevel(common::LogLevel::Warn);

  std::string source = kDemoKernel;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  }
  const std::size_t globalSize =
      argc > 2 ? static_cast<std::size_t>(std::stoull(argv[2])) : (1 << 20);

  runtime::CompiledKernel compiled = [&] {
    try {
      return runtime::CompiledKernel::compile(source);
    } catch (const Error& e) {
      std::fprintf(stderr, "compilation failed: %s\n", e.what());
      std::exit(1);
    }
  }();

  const auto& kernel = compiled.kernel();
  std::printf("kernel: %s (%zu parameters)\n", kernel.name().c_str(),
              kernel.params().size());
  std::printf("\n--- normalized source (round-tripped through the IR) ---\n%s",
              ir::printKernel(kernel).c_str());

  const auto& f = compiled.features();
  std::printf("\n--- static features (per work item, symbolic) ---\n");
  std::printf("  int ops:        %s\n", f.intOps.toString().c_str());
  std::printf("  float ops:      %s\n", f.floatOps.toString().c_str());
  std::printf("  special ops:    %s\n", f.specialOps.toString().c_str());
  std::printf("  global loads:   %s\n", f.globalLoads.toString().c_str());
  std::printf("  global stores:  %s\n", f.globalStores.toString().c_str());
  std::printf("  branches:       %s\n", f.branches.toString().c_str());
  std::printf("  barriers:       %s\n", f.barriers.toString().c_str());
  std::printf("  loops: %d (max depth %d), local memory: %s\n", f.numLoops,
              f.maxLoopDepth, f.usesLocalMemory ? "yes" : "no");

  std::printf("\n--- buffer distribution plan ---\n");
  for (const auto& access : compiled.accesses()) {
    std::printf("  %-10s %-10s%s%s", access.param.c_str(),
                features::accessKindName(access.kind),
                access.isRead ? " read" : "", access.isWritten ? " write" : "");
    if (access.kind == features::AccessKind::Split) {
      std::printf("  (block = %s elements/item)",
                  access.blockSize.toString().c_str());
    }
    std::printf("\n");
  }

  std::printf("\n--- device cost profile at globalSize = %zu ---\n",
              globalSize);
  std::map<std::string, double> bindings;
  for (const auto& p : kernel.params()) {
    if (!p.type.isPointer() && p.type.isIntegral()) {
      bindings[p.name] = static_cast<double>(globalSize);
    }
  }
  const auto perItem =
      compiled.compiledFeatures().counts(bindings, globalSize);
  const double bytes = perItem.globalBytes * static_cast<double>(globalSize);

  for (const auto& machine : sim::evaluationMachines()) {
    std::printf("  %s:\n", machine.name.c_str());
    for (const auto& d : machine.devices) {
      const double kernelTime =
          d.kernelTime(perItem, static_cast<double>(globalSize), 64.0);
      const double transfer = d.transferTime(bytes);
      std::printf("    %-30s kernel %9.3f ms + transfers %8.3f ms\n",
                  d.name.c_str(), kernelTime * 1e3, transfer * 1e3);
    }
  }
  std::printf("\n(integer scalar parameters were bound to globalSize for "
              "this preview; use the TaskBuilder API for exact values)\n");
  return 0;
}
