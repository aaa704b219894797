#pragma once

// A Task is one multi-device-ready kernel launch: the compiled kernel's
// features and buffer access classification, the native work-group
// semantics, the bound arguments, and the NDRange. Tasks are what
// partitioning strategies decide about and what the scheduler executes.

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "features/access_analysis.hpp"
#include "features/compiled_features.hpp"
#include "features/runtime_features.hpp"
#include "features/static_features.hpp"
#include "ocl/buffer.hpp"
#include "ocl/kernel.hpp"

namespace tp::runtime {

/// One bound kernel argument.
struct BufferArg {
  std::shared_ptr<vcl::Buffer> buffer;
  features::AccessKind access = features::AccessKind::Replicate;
  /// For Split buffers: elements owned per work item (blockSize evaluated
  /// under this launch's bindings).
  std::size_t blockElems = 1;
  bool isWritten = false;
  bool isRead = true;
};

using TaskArg = std::variant<BufferArg, int, float>;

struct Task {
  std::string programName;   ///< benchmark / application name
  std::string kernelName;

  /// Shared with the compiled kernel and every other Task of it.
  features::CompiledFeatures features;
  std::vector<TaskArg> args;           ///< in kernel-parameter order
  vcl::NativeKernel native;            ///< work-group semantics (Compute mode)

  std::size_t globalSize = 0;          ///< total work items, dimension 0
  std::size_t localSize = 64;          ///< work-group size
  std::map<std::string, double> sizeBindings;  ///< param name → value

  /// Transfer amortization (Gregg & Hazelwood [5]): iterative applications
  /// (stencil solvers, CG, k-means, MD timesteps) keep data resident on the
  /// device across kernel launches, so one measured launch carries only
  /// 1/iterations of the transfer volume. 1.0 = one-shot kernel, every
  /// launch pays full transfers.
  double transferScale = 1.0;

  std::size_t numGroups() const { return globalSize / localSize; }

  /// Bindings including the get_global_size pseudo-parameter.
  std::map<std::string, double> fullBindings() const;

  /// Host→device / device→host volume of an *unsplit* (single device)
  /// execution; used for the partitioning-independent runtime features.
  double totalBytesIn() const;
  double totalBytesOut() const;

  /// The paper's runtime feature view of this launch.
  features::LaunchInfo launchInfo() const;

  /// Sanity checks (group-aligned NDRange, split sizes match buffers, ...).
  /// Throws tp::Error on violations.
  void validate() const;
};

}  // namespace tp::runtime
