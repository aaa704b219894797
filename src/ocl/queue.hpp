#pragma once

// Simulated in-order command queues and events.
//
// Each device has one CommandQueue with a simulated clock. Enqueue
// operations append to the device timeline and return Events carrying
// simulated [start, end) timestamps. Queues of different devices advance
// independently — devices execute concurrently, exactly like the paper's
// multi-device OpenCL runtime — and the scheduler's makespan is the max of
// the per-queue completion times.
//
// In Compute mode, kernel enqueues additionally execute the native
// work-group function on the host thread pool (results are real; time is
// still the analytic model's).

#include <cstddef>

#include "common/thread_pool.hpp"
#include "features/compiled_features.hpp"
#include "ocl/kernel.hpp"
#include "sim/device_model.hpp"

namespace tp::vcl {

enum class ExecMode {
  Compute,   ///< run kernels for real (tests, examples)
  TimeOnly,  ///< advance simulated clocks only (training sweeps)
};

struct Event {
  double start = 0.0;  ///< simulated seconds
  double end = 0.0;
  double duration() const noexcept { return end - start; }
};

class CommandQueue {
public:
  CommandQueue(const sim::DeviceModel& model, ExecMode mode,
               common::ThreadPool* pool)
      : model_(model), mode_(mode), pool_(pool) {}

  const sim::DeviceModel& device() const noexcept { return model_; }
  double now() const noexcept { return now_; }
  void resetClock() { now_ = 0.0; }

  /// Host→device transfer of `bytes` (accounting only; data already lives
  /// in host memory).
  Event enqueueWrite(double bytes) { return advance(model_.transferTime(bytes)); }

  /// Device→host transfer.
  Event enqueueRead(double bytes) { return advance(model_.transferTime(bytes)); }

  /// Execute work-groups [groupBegin, groupEnd) of a kernel launch.
  /// `perItem` (the launch's bound per-work-item counts) drives the
  /// analytic cost; `native`/`args` supply semantics in Compute mode.
  /// `ctxTemplate` carries the original NDRange geometry. `dramBytes` is
  /// the chunk's unique global-memory footprint (see
  /// sim::DeviceModel::kernelTime); negative = no-reuse upper bound.
  Event enqueueKernel(const features::WorkCounts& perItem,
                      std::size_t groupBegin, std::size_t groupEnd,
                      const WorkGroupCtx& ctxTemplate,
                      const NativeKernel& native, const LaunchArgs& args,
                      double dramBytes = -1.0);

private:
  Event advance(double seconds) {
    Event e;
    e.start = now_;
    now_ += seconds;
    e.end = now_;
    return e;
  }

  const sim::DeviceModel& model_;
  ExecMode mode_;
  common::ThreadPool* pool_;
  double now_ = 0.0;
};

}  // namespace tp::vcl
