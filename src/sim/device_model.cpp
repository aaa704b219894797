#include "sim/device_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tp::sim {

const char* deviceTypeName(DeviceType t) {
  switch (t) {
    case DeviceType::CPU: return "CPU";
    case DeviceType::GPU: return "GPU";
  }
  return "?";
}

double DeviceModel::utilization(double items) const {
  TP_ASSERT(items >= 0.0);
  if (items <= 0.0) return 1.0;
  return items / (items + saturationItems);
}

double DeviceModel::kernelTime(const features::WorkCounts& perItem,
                               double items, double localSize,
                               double dramBytes) const {
  TP_ASSERT_MSG(items >= 0.0, "negative work size " << items);
  if (items == 0.0) return 0.0;
  TP_ASSERT(localSize >= 1.0);

  const double util = utilization(items);
  const double eff = archEfficiency * util;

  const double intTotal = perItem.intOps * items;
  const double floatTotal = perItem.floatOps * items;
  const double specialTotal = perItem.specialOps * items;
  const double branchTotal = perItem.branches * items;
  const double atomicTotal = perItem.atomics * items;
  const double barrierTotal = perItem.barriers;  // per item; cost per group

  // Transcendentals run on dedicated units (VLIW T-lane / SFUs), which
  // scalar code feeds just as well as tuned code — no archEfficiency there.
  const double tCompute = intTotal / (intRate * eff) +
                          floatTotal / (floatRate * eff) +
                          specialTotal / (specialRate * util);
  // Divergent branches behave like extra (weighted) ALU work.
  const double tBranch = branchTotal * branchWeight / (floatRate * eff);

  const double accessBytes = perItem.globalBytes * items;
  // Accesses beyond the unique DRAM footprint are cache hits.
  const double uniqueBytes =
      dramBytes < 0.0 ? accessBytes : std::min(dramBytes, accessBytes);
  const double cachedBytes = accessBytes - uniqueBytes;
  const double localBytes =
      (perItem.localAccesses + perItem.privateAccesses) * 4.0 * items;
  const double tMemory =
      uniqueBytes / (memBandwidth * memEfficiency * util) +
      (cachedBytes + localBytes) / localBandwidth;

  const double numGroups = std::ceil(items / localSize);
  const double tBarriers = barrierTotal * numGroups * barrierCost;
  const double tAtomics = atomicTotal / atomicRate;

  return launchOverhead + std::max(tCompute + tBranch, tMemory) + tAtomics +
         tBarriers;
}

double DeviceModel::transferTime(double bytes) const {
  TP_ASSERT(bytes >= 0.0);
  if (bytes == 0.0) return 0.0;
  return transferLatency + bytes / transferBandwidth;
}

}  // namespace tp::sim
