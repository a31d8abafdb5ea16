#include "obs/metrics.h"

#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace mempart::obs {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::counter_add(std::string_view name, std::int64_t delta) {
  const MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

std::int64_t Registry::counter(std::string_view name) const {
  const MutexLock lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Registry::gauge_set(std::string_view name, double value) {
  const MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

double Registry::gauge(std::string_view name) const {
  const MutexLock lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

const Histogram* Registry::find_histogram(std::string_view name) const {
  const MutexLock lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::map<std::string, std::int64_t> Registry::counters() const {
  const MutexLock lock(mutex_);
  return {counters_.begin(), counters_.end()};
}

std::map<std::string, double> Registry::gauges() const {
  const MutexLock lock(mutex_);
  return {gauges_.begin(), gauges_.end()};
}

std::map<std::string, HistogramSnapshot> Registry::histograms() const {
  std::vector<std::pair<std::string, const Histogram*>> refs;
  {
    const MutexLock lock(mutex_);
    refs.reserve(histograms_.size());
    for (const auto& [name, hist] : histograms_) {
      refs.emplace_back(name, hist.get());
    }
  }
  // Snapshots are lock-free reads, taken outside the registry lock so
  // concurrent record() calls are never blocked on an export.
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : refs) out.emplace(name, hist->snapshot());
  return out;
}

void Registry::clear() {
  const MutexLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void count(std::string_view name, std::int64_t delta) {
  // Counter deltas also feed the always-on flight recorder, so a crash dump
  // shows what was being counted even when metrics were never enabled.
  if (flight_enabled() && !flight_quiet()) {
    flight_record(FlightKind::kCounter, flight_intern(name), delta);
  }
  if (!metrics_enabled()) return;
  Registry::instance().counter_add(name, delta);
}

void gauge(std::string_view name, double value) {
  if (!metrics_enabled()) return;
  Registry::instance().gauge_set(name, value);
}

void observe(std::string_view name, std::int64_t value) {
  if (Histogram* hist = histogram_if_enabled(name)) hist->record(value);
}

Histogram* histogram_if_enabled(std::string_view name) {
  if (!metrics_enabled()) return nullptr;
  return &Registry::instance().histogram(name);
}

void record_op_tally(const OpTally& tally, std::string_view prefix) {
  if (!metrics_enabled()) return;
  Registry& registry = Registry::instance();
  const std::string base(prefix);
  registry.counter_add(base + ".add", tally.add);
  registry.counter_add(base + ".mul", tally.mul);
  registry.counter_add(base + ".div", tally.div);
  registry.counter_add(base + ".compare", tally.compare);
}

}  // namespace mempart::obs
