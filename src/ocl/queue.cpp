#include "ocl/queue.hpp"

#include "common/error.hpp"

namespace tp::vcl {

Event CommandQueue::enqueueKernel(const features::WorkCounts& perItem,
                                  std::size_t groupBegin, std::size_t groupEnd,
                                  const WorkGroupCtx& ctxTemplate,
                                  const NativeKernel& native,
                                  const LaunchArgs& args, double dramBytes) {
  TP_ASSERT(groupEnd >= groupBegin);
  const std::size_t numGroups = groupEnd - groupBegin;
  const double items =
      static_cast<double>(numGroups) * static_cast<double>(ctxTemplate.localSize);

  if (mode_ == ExecMode::Compute && numGroups > 0) {
    TP_ASSERT(native != nullptr);
    auto runGroup = [&](std::size_t g) {
      WorkGroupCtx ctx = ctxTemplate;
      ctx.groupId = g;
      native(ctx, args);
    };
    if (pool_ != nullptr) {
      pool_->parallelFor(groupBegin, groupEnd, runGroup, /*grain=*/1);
    } else {
      for (std::size_t g = groupBegin; g < groupEnd; ++g) runGroup(g);
    }
  }

  const double seconds =
      model_.kernelTime(perItem, items,
                        static_cast<double>(ctxTemplate.localSize), dramBytes);
  return advance(items > 0.0 ? seconds : 0.0);
}

}  // namespace tp::vcl
