#pragma once

// The source-to-source "compiler" entry point: OpenCL-C-subset source →
// verified IR → static features + buffer access classification. This is
// the training- and deployment-phase front half of the paper's framework
// (Insieme code analyzer + multi-device backend).
//
// A CompiledKernel is immutable and cheaply copyable (shared state); the
// suite compiles each benchmark once and instantiates many Tasks from it.

#include <memory>
#include <string>

#include "features/access_analysis.hpp"
#include "features/compiled_features.hpp"
#include "features/static_features.hpp"
#include "ir/node.hpp"
#include "runtime/task.hpp"

namespace tp::runtime {

class CompiledKernel {
public:
  /// Parse + verify + analyze. Throws tp::ParseError / tp::Error on
  /// malformed source.
  static CompiledKernel compile(const std::string& source);

  const std::string& source() const { return state_->source; }
  const ir::KernelDecl& kernel() const { return *state_->kernel; }
  const features::KernelFeatures& features() const {
    return state_->features.get();
  }
  /// The features with their cost plan, shared by every Task built from
  /// this kernel.
  const features::CompiledFeatures& compiledFeatures() const {
    return state_->features;
  }
  const std::vector<features::BufferAccess>& accesses() const {
    return state_->accesses;
  }

  /// Access classification of a named __global pointer parameter.
  const features::BufferAccess& accessFor(const std::string& param) const;

  /// Elements per work item of a Split buffer under the given bindings.
  std::size_t blockElemsFor(const std::string& param,
                            const std::map<std::string, double>& bindings) const;

private:
  struct State {
    std::string source;
    std::unique_ptr<ir::KernelDecl> kernel;
    features::CompiledFeatures features;
    std::vector<features::BufferAccess> accesses;
  };

  explicit CompiledKernel(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

/// Fluent Task construction. Buffer/scalar arguments are supplied in kernel
/// parameter order; buffer access modes and split block sizes come from the
/// compiled kernel's analysis, and integer scalar arguments are
/// automatically recorded as size bindings (they are exactly the
/// problem-size values the runtime features depend on).
class TaskBuilder {
public:
  TaskBuilder(const CompiledKernel& compiled, std::string programName);

  TaskBuilder& global(std::size_t items);
  TaskBuilder& local(std::size_t groupSize);
  TaskBuilder& arg(std::shared_ptr<vcl::Buffer> buffer);
  TaskBuilder& arg(int scalar);
  TaskBuilder& arg(float scalar);
  TaskBuilder& native(vcl::NativeKernel fn);
  /// Extra size binding not expressible as a scalar argument.
  TaskBuilder& bind(const std::string& param, double value);
  /// The application launches this kernel `iterations` times with data
  /// resident on the device; transfers amortize accordingly.
  TaskBuilder& transferAmortization(double iterations);

  /// Finalize; validates argument count/kinds against the kernel signature.
  Task build();

private:
  const CompiledKernel compiled_;
  Task task_;
  std::size_t nextParam_ = 0;
};

}  // namespace tp::runtime
