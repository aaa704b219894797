#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"

namespace tp::obs {

namespace {

std::string escapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::ostringstream os;
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(static_cast<unsigned char>(c));
          out += os.str();
        } else {
          out += c;
        }
    }
  }
  return out;
}

void appendDouble(std::ostringstream& os, double v) {
  if (!std::isfinite(v)) {
    os << "0";  // JSON has no inf/nan; exposition must stay parseable
    return;
  }
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
}

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string promName(const std::string& name) {
  std::string out = "tp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// # HELP text: the exposition format escapes backslash and newline.
std::string escapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// One # HELP + # TYPE preamble (the name doubles as default help).
void promPreamble(std::ostringstream& os, const std::string& metric,
                  const std::string& name, const std::string& help,
                  const char* type) {
  os << "# HELP " << metric << " "
     << escapeHelp(help.empty() ? name : help) << "\n";
  os << "# TYPE " << metric << " " << type << "\n";
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram() : stripes_(common::defaultStripes()) {}

void Histogram::record(std::uint64_t value) {
  Stripe& stripe = stripes_[common::threadStripe(stripes_.size())];
  const std::uint32_t claimed = common::seqClaim(stripe.seq);
  ++stripe.count;
  stripe.sum += value;
  ++stripe.buckets[bucketIndex(value)];
  common::seqRelease(stripe.seq, claimed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  for (Stripe& stripe : stripes_) {
    const std::uint32_t claimed = common::seqClaim(stripe.seq);
    snap.count += stripe.count;
    snap.sum += stripe.sum;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      snap.buckets[b] += stripe.buckets[b];
    }
    common::seqRelease(stripe.seq, claimed);
  }
  return snap;
}

void Histogram::Snapshot::merge(const Snapshot& other) noexcept {
  count += other.count;
  sum += other.sum;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
}

double Histogram::Snapshot::mean() const noexcept {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

std::uint64_t Histogram::Snapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(count)));
  const std::uint64_t target = rank == 0 ? 1 : rank;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen >= target) return bucketUpperBound(b);
  }
  return bucketUpperBound(kBuckets - 1);
}

// ---------------------------------------------------------------------------
// Registry

bool Registry::validName(const std::string& name) noexcept {
  if (name.empty()) return false;
  const char first = name.front();
  const bool firstOk = (first >= 'a' && first <= 'z') ||
                       (first >= 'A' && first <= 'Z') || first == '_';
  if (!firstOk) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':';
    if (!ok) return false;
  }
  return true;
}

namespace {

void requireValidName(const std::string& name) {
  TP_REQUIRE(Registry::validName(name),
             "Registry: invalid metric name '"
                 << name << "' (want [a-zA-Z_][a-zA-Z0-9_.:]*)");
}

}  // namespace

common::StripedCounter& Registry::counter(const std::string& name) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  Entry& entry = entries_[name];
  if (entry.ownedCounter == nullptr) {
    TP_REQUIRE(!entry.ownedGauge && !entry.ownedHistogram &&
                   !entry.counterFn && !entry.gaugeFn && !entry.histogramFn &&
                   !entry.summaryFn,
               "Registry: '" << name
                             << "' is already registered as another kind");
    entry.ownedCounter = std::make_unique<common::StripedCounter>();
  }
  return *entry.ownedCounter;
}

Gauge& Registry::gauge(const std::string& name) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  Entry& entry = entries_[name];
  if (entry.ownedGauge == nullptr) {
    TP_REQUIRE(!entry.ownedCounter && !entry.ownedHistogram &&
                   !entry.counterFn && !entry.gaugeFn && !entry.histogramFn &&
                   !entry.summaryFn,
               "Registry: '" << name
                             << "' is already registered as another kind");
    entry.ownedGauge = std::make_unique<Gauge>();
  }
  return *entry.ownedGauge;
}

Histogram& Registry::histogram(const std::string& name) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  Entry& entry = entries_[name];
  if (entry.ownedHistogram == nullptr) {
    TP_REQUIRE(!entry.ownedCounter && !entry.ownedGauge && !entry.counterFn &&
                   !entry.gaugeFn && !entry.histogramFn && !entry.summaryFn,
               "Registry: '" << name
                             << "' is already registered as another kind");
    entry.ownedHistogram = std::make_unique<Histogram>();
  }
  return *entry.ownedHistogram;
}

Registry::Entry& Registry::resetEntry(const std::string& name) {
  // Re-registering replaces the instrument but keeps the help metadata.
  Entry& entry = entries_[name];
  std::string help = std::move(entry.help);
  entry = Entry{};
  entry.help = std::move(help);
  return entry;
}

void Registry::registerCounter(const std::string& name,
                               std::function<std::uint64_t()> read) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  resetEntry(name).counterFn = std::move(read);
}

void Registry::registerGauge(const std::string& name,
                             std::function<double()> read) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  resetEntry(name).gaugeFn = std::move(read);
}

void Registry::registerHistogram(const std::string& name,
                                 std::function<Histogram::Snapshot()> read) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  resetEntry(name).histogramFn = std::move(read);
}

void Registry::registerSummary(const std::string& name,
                               std::function<SummarySnapshot()> read) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  resetEntry(name).summaryFn = std::move(read);
}

void Registry::setHelp(const std::string& name, const std::string& help) {
  requireValidName(name);
  common::MutexLock lock(mutex_);
  entries_[name].help = help;
}

std::size_t Registry::removeByPrefix(const std::string& prefix) {
  common::MutexLock lock(mutex_);
  std::size_t removed = 0;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    it = entries_.erase(it);
    ++removed;
  }
  return removed;
}

std::size_t Registry::size() const {
  common::MutexLock lock(mutex_);
  return entries_.size();
}

std::string Registry::exportJson(bool includeRecentLog) const {
  common::MutexLock lock(mutex_);
  std::ostringstream counters;
  std::ostringstream gauges;
  std::ostringstream histograms;
  std::ostringstream summaries;
  bool firstCounter = true;
  bool firstGauge = true;
  bool firstHistogram = true;
  bool firstSummary = true;
  for (const auto& [name, entry] : entries_) {
    // Appended piecewise: GCC 12's -Wrestrict misfires at -O3 on the
    // equivalent `"\"" + escapeJson(name) + "\":"` temporary chain.
    std::string key = "\"";
    key += escapeJson(name);
    key += "\":";
    if (entry.ownedCounter != nullptr || entry.counterFn) {
      if (!firstCounter) counters << ",";
      firstCounter = false;
      const std::uint64_t v = entry.ownedCounter != nullptr
                                  ? entry.ownedCounter->total()
                                  : entry.counterFn();
      counters << key << v;
    } else if (entry.ownedGauge != nullptr || entry.gaugeFn) {
      if (!firstGauge) gauges << ",";
      firstGauge = false;
      const double v = entry.ownedGauge != nullptr ? entry.ownedGauge->value()
                                                   : entry.gaugeFn();
      gauges << key;
      appendDouble(gauges, v);
    } else if (entry.ownedHistogram != nullptr || entry.histogramFn) {
      if (!firstHistogram) histograms << ",";
      firstHistogram = false;
      const Histogram::Snapshot snap = entry.ownedHistogram != nullptr
                                           ? entry.ownedHistogram->snapshot()
                                           : entry.histogramFn();
      histograms << key << "{\"count\":" << snap.count
                 << ",\"sum\":" << snap.sum << ",\"mean\":";
      appendDouble(histograms, snap.mean());
      histograms << ",\"p50\":" << snap.quantile(0.50)
                 << ",\"p90\":" << snap.quantile(0.90)
                 << ",\"p99\":" << snap.quantile(0.99) << ",\"buckets\":[";
      bool firstBucket = true;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (snap.buckets[b] == 0) continue;
        if (!firstBucket) histograms << ",";
        firstBucket = false;
        histograms << "[" << Histogram::bucketUpperBound(b) << ","
                   << snap.buckets[b] << "]";
      }
      histograms << "]}";
    } else if (entry.summaryFn) {
      if (!firstSummary) summaries << ",";
      firstSummary = false;
      const SummarySnapshot snap = entry.summaryFn();
      summaries << key << "{\"count\":" << snap.count << ",\"mean_seconds\":";
      appendDouble(summaries, snap.meanSeconds);
      summaries << ",\"max_seconds\":";
      appendDouble(summaries, snap.maxSeconds);
      summaries << ",\"p50_seconds\":";
      appendDouble(summaries, snap.p50Seconds);
      summaries << ",\"p95_seconds\":";
      appendDouble(summaries, snap.p95Seconds);
      summaries << "}";
    }
  }

  std::ostringstream os;
  os << "{\"counters\":{" << counters.str() << "},\"gauges\":{"
     << gauges.str() << "},\"histograms\":{" << histograms.str()
     << "},\"summaries\":{" << summaries.str() << "}";
  if (includeRecentLog) {
    os << ",\"recent_log\":[";
    bool first = true;
    for (const common::LogRecord& rec : common::recentLogRecords()) {
      if (!first) os << ",";
      first = false;
      os << "{\"level\":\"" << common::logLevelName(rec.level)
         << "\",\"seq\":" << rec.seq << ",\"message\":\""
         << escapeJson(rec.message) << "\"}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string Registry::exportPrometheus() const {
  common::MutexLock lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, entry] : entries_) {
    const std::string metric = promName(name);
    if (entry.ownedCounter != nullptr || entry.counterFn) {
      const std::uint64_t v = entry.ownedCounter != nullptr
                                  ? entry.ownedCounter->total()
                                  : entry.counterFn();
      promPreamble(os, metric, name, entry.help, "counter");
      os << metric << " " << v << "\n";
    } else if (entry.ownedGauge != nullptr || entry.gaugeFn) {
      const double v = entry.ownedGauge != nullptr ? entry.ownedGauge->value()
                                                   : entry.gaugeFn();
      promPreamble(os, metric, name, entry.help, "gauge");
      os << metric << " " << v << "\n";
    } else if (entry.ownedHistogram != nullptr || entry.histogramFn) {
      const Histogram::Snapshot snap = entry.ownedHistogram != nullptr
                                           ? entry.ownedHistogram->snapshot()
                                           : entry.histogramFn();
      promPreamble(os, metric, name, entry.help, "histogram");
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (snap.buckets[b] == 0) continue;
        cumulative += snap.buckets[b];
        os << metric << "_bucket{le=\"" << Histogram::bucketUpperBound(b)
           << "\"} " << cumulative << "\n";
      }
      os << metric << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
      os << metric << "_sum " << snap.sum << "\n";
      os << metric << "_count " << snap.count << "\n";
    } else if (entry.summaryFn) {
      const SummarySnapshot snap = entry.summaryFn();
      promPreamble(os, metric, name, entry.help, "summary");
      os << metric << "{quantile=\"0.5\"} " << snap.p50Seconds << "\n";
      os << metric << "{quantile=\"0.95\"} " << snap.p95Seconds << "\n";
      os << metric << "_sum "
         << snap.meanSeconds * static_cast<double>(snap.count) << "\n";
      os << metric << "_count " << snap.count << "\n";
    }
  }
  return os.str();
}

Registry& defaultRegistry() {
  static Registry instance;
  return instance;
}

}  // namespace tp::obs
