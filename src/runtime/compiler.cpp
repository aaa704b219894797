#include "runtime/compiler.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "frontend/parser.hpp"
#include "ir/verify.hpp"

namespace tp::runtime {

CompiledKernel CompiledKernel::compile(const std::string& source) {
  auto state = std::make_shared<State>();
  state->source = source;
  state->kernel = frontend::parseSingleKernel(source);
  ir::verifyKernelOrThrow(*state->kernel);
  state->features = features::extractFeatures(*state->kernel);
  state->accesses = features::analyzeBufferAccesses(*state->kernel);
  return CompiledKernel(std::move(state));
}

const features::BufferAccess& CompiledKernel::accessFor(
    const std::string& param) const {
  for (const auto& a : state_->accesses) {
    if (a.param == param) return a;
  }
  TP_THROW("no buffer access info for parameter '" << param << "'");
}

std::size_t CompiledKernel::blockElemsFor(
    const std::string& param,
    const std::map<std::string, double>& bindings) const {
  const auto& access = accessFor(param);
  TP_REQUIRE(access.kind == features::AccessKind::Split,
             "parameter '" << param << "' is not a split buffer");
  const double value = access.blockSize.eval(bindings);
  TP_REQUIRE(value >= 0.5, "split block for '" << param
                                               << "' evaluates to " << value);
  return static_cast<std::size_t>(std::llround(value));
}

TaskBuilder::TaskBuilder(const CompiledKernel& compiled,
                         std::string programName)
    : compiled_(compiled) {
  task_.programName = std::move(programName);
  task_.kernelName = compiled_.kernel().name();
  task_.features = compiled_.compiledFeatures();
}

TaskBuilder& TaskBuilder::global(std::size_t items) {
  task_.globalSize = items;
  return *this;
}

TaskBuilder& TaskBuilder::local(std::size_t groupSize) {
  task_.localSize = groupSize;
  return *this;
}

TaskBuilder& TaskBuilder::arg(std::shared_ptr<vcl::Buffer> buffer) {
  const auto& params = compiled_.kernel().params();
  TP_REQUIRE(nextParam_ < params.size(), "too many kernel arguments");
  const auto& param = params[nextParam_++];
  TP_REQUIRE(param.type.isPointer(),
             "argument for '" << param.name << "' should be a scalar");

  if (param.type.addrSpace() == ir::AddrSpace::Local) {
    // __local buffers are device-side scratch: no distribution decision.
    BufferArg b;
    b.buffer = std::move(buffer);
    b.access = features::AccessKind::Unused;
    b.isRead = false;
    b.isWritten = false;
    task_.args.emplace_back(std::move(b));
    return *this;
  }

  const auto& access = compiled_.accessFor(param.name);
  BufferArg b;
  b.buffer = std::move(buffer);
  b.access = access.kind;
  b.isWritten = access.isWritten;
  b.isRead = access.isRead;
  task_.args.emplace_back(std::move(b));
  return *this;
}

TaskBuilder& TaskBuilder::arg(int scalar) {
  const auto& params = compiled_.kernel().params();
  TP_REQUIRE(nextParam_ < params.size(), "too many kernel arguments");
  const auto& param = params[nextParam_++];
  TP_REQUIRE(!param.type.isPointer() && param.type.isIntegral(),
             "argument for '" << param.name << "' should be "
                              << param.type.toString());
  // Integer scalars are the problem-size knobs: record them as bindings so
  // the symbolic features can be evaluated for this launch.
  task_.sizeBindings[param.name] = static_cast<double>(scalar);
  task_.args.emplace_back(scalar);
  return *this;
}

TaskBuilder& TaskBuilder::arg(float scalar) {
  const auto& params = compiled_.kernel().params();
  TP_REQUIRE(nextParam_ < params.size(), "too many kernel arguments");
  const auto& param = params[nextParam_++];
  TP_REQUIRE(!param.type.isPointer() && param.type.isFloat(),
             "argument for '" << param.name << "' should be "
                              << param.type.toString());
  task_.args.emplace_back(scalar);
  return *this;
}

TaskBuilder& TaskBuilder::native(vcl::NativeKernel fn) {
  task_.native = std::move(fn);
  return *this;
}

TaskBuilder& TaskBuilder::bind(const std::string& param, double value) {
  task_.sizeBindings[param] = value;
  return *this;
}

TaskBuilder& TaskBuilder::transferAmortization(double iterations) {
  TP_REQUIRE(iterations >= 1.0,
             "transferAmortization: iterations must be >= 1");
  task_.transferScale = 1.0 / iterations;
  return *this;
}

Task TaskBuilder::build() {
  const auto& params = compiled_.kernel().params();
  TP_REQUIRE(nextParam_ == params.size(),
             "kernel '" << task_.kernelName << "' expects " << params.size()
                        << " arguments, got " << nextParam_);
  // Resolve split block sizes now that all bindings are known.
  const auto bindings = task_.fullBindings();
  std::size_t argIndex = 0;
  for (auto& arg : task_.args) {
    const auto& param = params[argIndex++];
    auto* b = std::get_if<BufferArg>(&arg);
    if (b == nullptr || b->access != features::AccessKind::Split) continue;
    b->blockElems = compiled_.blockElemsFor(param.name, bindings);
  }
  task_.validate();
  return std::move(task_);
}

}  // namespace tp::runtime
