// Process-wide metrics registry: named counters, gauges and histograms.
//
// Everything the paper reports is a number — solver op counts (Table 1),
// bank-load balance, conflict cycles, delta_P per candidate N — so the
// registry gives each of those a stable name and a machine-readable export
// (obs/snapshot.h renders the whole registry as OpenMetrics text or one
// NDJSON sample). Counters accumulate int64 deltas, gauges hold the last
// written double, and histograms are the lock-free log-linear
// obs::Histogram (obs/histogram.h) — one type for latencies and integer
// distributions alike.
//
// Name lookups and counter/gauge writes go through the registry mutex;
// histogram recording itself is lock-free once the histogram is resolved.
// The free helpers (count/gauge/observe) first check
// obs::metrics_enabled() — a thread-local read — so disabled
// instrumentation stays out of the hot-path profile.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/annotations.h"
#include "common/op_counter.h"
#include "common/types.h"
#include "obs/histogram.h"
#include "obs/trace.h"  // for the metrics_enabled() hot-path guard

namespace mempart::obs {

/// Process-wide name -> metric store.
class Registry {
 public:
  static Registry& instance();

  void counter_add(std::string_view name, std::int64_t delta = 1);
  [[nodiscard]] std::int64_t counter(std::string_view name) const;

  void gauge_set(std::string_view name, double value);
  [[nodiscard]] double gauge(std::string_view name) const;

  /// Gets or creates the named histogram (obs/histogram.h). Every
  /// histogram shares one fixed bucket layout, so there are no creation
  /// parameters; the returned reference stays valid until clear().
  Histogram& histogram(std::string_view name);

  /// Nullptr when the histogram does not exist.
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  [[nodiscard]] std::map<std::string, std::int64_t> counters() const;
  [[nodiscard]] std::map<std::string, double> gauges() const;
  [[nodiscard]] std::map<std::string, HistogramSnapshot> histograms() const;

  /// Drops every metric.
  void clear();

 private:
  Registry() = default;
  mutable Mutex mutex_;
  std::map<std::string, std::int64_t, std::less<>> counters_
      MEMPART_GUARDED_BY(mutex_);
  std::map<std::string, double, std::less<>> gauges_
      MEMPART_GUARDED_BY(mutex_);
  /// The map is guarded; the Histogram objects pointed to are internally
  /// lock-free, so references handed out by histogram() stay usable
  /// without the registry lock.
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      MEMPART_GUARDED_BY(mutex_);
};

/// The helpers below are the instrumentation entry points: they no-op
/// unless obs::metrics_enabled() is true on the calling thread.

/// Adds `delta` to the named counter.
void count(std::string_view name, std::int64_t delta = 1);

/// Sets the named gauge.
void gauge(std::string_view name, double value);

/// Records one value into the named histogram (created on first use).
void observe(std::string_view name, std::int64_t value);

/// The named histogram when metrics are enabled on the calling thread,
/// nullptr otherwise. A loop that records many values resolves once and
/// records through the pointer (valid until Registry::clear()), paying
/// one registry lookup per call instead of one per value.
[[nodiscard]] Histogram* histogram_if_enabled(std::string_view name);

/// Bridges an OpScope tally into counters `<prefix>.{add,mul,div,compare}`.
/// This is how Table 1's solver arithmetic reaches the metrics export.
void record_op_tally(const OpTally& tally,
                     std::string_view prefix = "solver.ops");

}  // namespace mempart::obs
