#include "features/compiled_features.hpp"

#include <algorithm>
#include <span>

#include "common/small_buffer.hpp"

namespace tp::features {

namespace {

// Plan expression order = WorkCounts field order.
enum Count : std::size_t {
  kIntOps,
  kFloatOps,
  kSpecialOps,
  kBranches,
  kAtomics,
  kBarriers,
  kGlobalBytes,
  kLocalAccesses,
  kPrivateAccesses,
};

ir::SlotProgram compilePlan(const KernelFeatures& f) {
  return ir::SlotProgram({f.intOps, f.floatOps, f.specialOps, f.branches,
                          f.atomics, f.barriers, f.globalBytes(),
                          f.localAccesses, f.privateAccesses});
}

}  // namespace

CompiledFeatures::Impl::Impl(KernelFeatures f)
    : features(std::move(f)),
      plan(compilePlan(features)),
      globalSizeSlot(plan.slotOf(kGlobalSizeParam)) {}

CompiledFeatures::CompiledFeatures() {
  static const auto empty = std::make_shared<const Impl>(KernelFeatures{});
  impl_ = empty;
}

CompiledFeatures::CompiledFeatures(KernelFeatures features)
    : impl_(std::make_shared<const Impl>(std::move(features))) {}

WorkCounts CompiledFeatures::counts(
    const std::map<std::string, double>& sizeBindings,
    std::size_t globalSize) const {
  const ir::SlotProgram& plan = impl_->plan;
  common::SmallBuffer<double, kInlineSlots> slotStorage(plan.numSlots());
  const std::span<double> slots = slotStorage.span();
  plan.bind(sizeBindings, slots);
  if (impl_->globalSizeSlot != ir::SlotProgram::npos) {
    slots[impl_->globalSizeSlot] = static_cast<double>(globalSize);
  }

  const auto per = [&](Count c) {
    return std::max(0.0, plan.eval(c, slots));
  };
  WorkCounts out;
  out.intOps = per(kIntOps);
  out.floatOps = per(kFloatOps);
  out.specialOps = per(kSpecialOps);
  out.branches = per(kBranches);
  out.atomics = per(kAtomics);
  out.barriers = per(kBarriers);
  out.globalBytes = per(kGlobalBytes);
  out.localAccesses = per(kLocalAccesses);
  out.privateAccesses = per(kPrivateAccesses);
  return out;
}

}  // namespace tp::features
