#pragma once

// The compiled, shared form of a kernel's static features.
//
// Every launch of a kernel binds the same symbolic per-work-item counts to
// its problem size. CompiledFeatures does the symbolic part once: it holds
// the KernelFeatures plus a flat cost plan (ir::SlotProgram) of the nine
// per-item polynomials the device cost model consumes, with globalBytes()
// pre-merged. Tasks share one immutable instance through a pointer, so a
// Task copy costs a reference-count bump instead of ten polynomial maps,
// and counts() evaluates a launch with arithmetic only.

#include <cstddef>
#include <map>
#include <memory>
#include <string>

#include "features/static_features.hpp"
#include "ir/workexpr.hpp"

namespace tp::features {

/// Per-work-item counts of one launch, each clamped at zero: symbolic
/// counts can evaluate slightly negative for degenerate bindings (e.g.
/// zero-trip loops), which means "no work". This is the input of
/// sim::DeviceModel::kernelTime.
struct WorkCounts {
  double intOps = 0.0;
  double floatOps = 0.0;
  double specialOps = 0.0;
  double branches = 0.0;
  double atomics = 0.0;
  double barriers = 0.0;
  double globalBytes = 0.0;  ///< KernelFeatures::globalBytes()
  double localAccesses = 0.0;
  double privateAccesses = 0.0;
};

/// Immutable handle to a kernel's features and their compiled cost plan.
/// Copies share one instance. Converts implicitly from and to
/// KernelFeatures, so hand-built features still make a handle and every
/// consumer of `const KernelFeatures&` accepts one.
class CompiledFeatures {
public:
  /// Empty features (all counts zero).
  CompiledFeatures();
  /// Compiles the cost plan. Implicit on purpose (see the class comment).
  CompiledFeatures(KernelFeatures features);

  const KernelFeatures& get() const noexcept { return impl_->features; }
  operator const KernelFeatures&() const noexcept { return get(); }

  /// Per-item counts of a launch: `sizeBindings` plus the get_global_size
  /// pseudo-parameter, which overrides a size binding of the same name;
  /// unbound parameters evaluate at 16, like WorkExpr::eval(). Bit-
  /// identical to clamping each count's WorkExpr::eval() under
  /// runtime::Task::fullBindings(). Allocates nothing unless the plan has
  /// more than kInlineSlots parameters.
  WorkCounts counts(const std::map<std::string, double>& sizeBindings,
                    std::size_t globalSize) const;

  static constexpr std::size_t kInlineSlots = 16;

private:
  struct Impl {
    explicit Impl(KernelFeatures f);

    KernelFeatures features;
    ir::SlotProgram plan;  ///< the WorkCounts polynomials, in field order
    std::size_t globalSizeSlot;  ///< plan slot of kGlobalSizeParam or npos
  };

  std::shared_ptr<const Impl> impl_;
};

}  // namespace tp::features
