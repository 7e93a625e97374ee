#include "obs/timeseries.h"

#include <chrono>
#include <cmath>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/monitor.h"

namespace p4runpro::obs {

void TimeSeries::push(SimClock::Nanos t_ns, double value) {
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(SeriesSample{t_ns, value});
    return;
  }
  ring_[head_] = SeriesSample{t_ns, value};
  head_ = (head_ + 1) % capacity_;
}

const SeriesSample& TimeSeries::at(std::size_t i) const {
  return ring_[(head_ + i) % ring_.size()];
}

std::vector<SeriesSample> TimeSeries::last_n(std::size_t n) const {
  if (n > ring_.size()) n = ring_.size();
  std::vector<SeriesSample> out;
  out.reserve(n);
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) out.push_back(at(i));
  return out;
}

double TimeSeries::delta(std::size_t n) const {
  if (n == 0 || ring_.size() <= n) return 0.0;
  return newest().value - at(ring_.size() - 1 - n).value;
}

double TimeSeries::rate_per_s() const {
  if (ring_.size() < 2) return 0.0;
  const SeriesSample& oldest = at(0);
  const SeriesSample& latest = newest();
  if (latest.t_ns <= oldest.t_ns) return 0.0;
  return (latest.value - oldest.value) * 1e9 /
         static_cast<double>(latest.t_ns - oldest.t_ns);
}

void TimeSeriesStore::watch_rate(std::string counter_name, AnomalyConfig config) {
  Watch watch;
  watch.name = std::move(counter_name);
  watch.is_rate = true;
  watch.config = config;
  watches_.push_back(std::move(watch));
}

void TimeSeriesStore::watch_value(std::string series_name, AnomalyConfig config) {
  Watch watch;
  watch.name = std::move(series_name);
  watch.is_rate = false;
  watch.config = config;
  watches_.push_back(std::move(watch));
}

TimeSeries& TimeSeriesStore::series_ref(std::string_view name) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_.emplace(std::string(name), TimeSeries(config_.capacity))
      .first->second;
}

void TimeSeriesStore::feed_detector(Watch& watch, std::string_view series_name,
                                    double value) {
  if (watch.seen < watch.config.warmup_samples) {
    // Warm-up: seed the EWMA without judging (the first samples define
    // "normal"; judging them would alert on the baseline itself).
    if (watch.seen == 0) {
      watch.mean = value;
      watch.var = 0.0;
    }
    ++watch.seen;
  } else {
    const double std_dev = std::sqrt(watch.var);
    const double denom = std_dev < watch.config.min_std ? watch.config.min_std
                                                        : std_dev;
    const double z = std::fabs(value - watch.mean) / denom;
    if (z >= watch.config.z_threshold) {
      if (watch.armed) {
        watch.armed = false;
        ++anomalies_fired_;
        if (monitor_ != nullptr) {
          monitor_->series_alert(series_name, "anomaly.z_score", value,
                                 watch.mean +
                                     watch.config.z_threshold * denom);
        }
      }
    } else {
      watch.armed = true;
    }
  }
  // The anomalous sample still updates the estimate: the EWMA converges to
  // the new level, |z| falls below the threshold, and the watch re-arms —
  // a sustained step fires exactly once.
  const double d = value - watch.mean;
  watch.mean += watch.config.alpha * d;
  watch.var = (1.0 - watch.config.alpha) *
              (watch.var + watch.config.alpha * d * d);
}

void TimeSeriesStore::sample(const MetricsRegistry& registry, SimClock::Nanos now) {
  const auto wall_start = std::chrono::steady_clock::now();
  ++samples_taken_;

  // Name -> series lookups are resolved once per registry layout: the
  // registry is walked in the same order every tick, so slot k of bound_
  // is the series of the k-th value visited.
  const bool rebind = bound_registry_ != &registry ||
                      bound_layout_ != registry.layout_version();
  if (rebind) {
    bound_.clear();
    bound_registry_ = &registry;
    bound_layout_ = registry.layout_version();
  }
  std::size_t slot = 0;
  const auto push = [&](std::string_view name, double value) {
    if (rebind) bound_.push_back(&series_ref(name));
    bound_[slot++]->push(now, value);
  };
  for (const auto& [name, counter] : registry.counters()) {
    push(name, static_cast<double>(counter.value()));
  }
  registry.for_each_sampled_gauge(push);
  if (config_.histogram_quantiles) {
    static constexpr std::pair<double, std::string_view> kRollups[] = {
        {0.5, ".p50"}, {0.9, ".p90"}, {0.99, ".p99"}};
    for (const auto& [name, h] : registry.histograms()) {
      for (const auto& [q, suffix] : kRollups) {
        if (rebind) bound_.push_back(nullptr);
        TimeSeries*& series = bound_[slot++];
        if (h.count() == 0) continue;  // empty histogram: no quantiles to roll up
        if (series == nullptr) series = &series_ref(name + std::string(suffix));
        series->push(now, h.quantile(q));
      }
    }
  }

  for (Watch& watch : watches_) {
    if (watch.is_rate) {
      const Counter* counter = registry.find_counter(watch.name);
      if (counter == nullptr) continue;
      const double value = static_cast<double>(counter->value());
      if (watch.have_last && now > watch.last_t_ns) {
        const double rate = (value - watch.last_value) * 1e9 /
                            static_cast<double>(now - watch.last_t_ns);
        const std::string rate_name = watch.name + ".rate";
        series_ref(rate_name).push(now, rate);
        feed_detector(watch, rate_name, rate);
      }
      watch.last_value = value;
      watch.last_t_ns = now;
      watch.have_last = true;
    } else {
      const auto it = series_.find(watch.name);
      if (it == series_.end() || it->second.size() == 0) continue;
      const SeriesSample& latest = it->second.newest();
      if (watch.have_last && latest.t_ns == watch.last_t_ns) continue;
      watch.last_t_ns = latest.t_ns;
      watch.have_last = true;
      feed_detector(watch, watch.name, latest.value);
    }
  }

  self_sample_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
}

const TimeSeries* TimeSeriesStore::series(std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::vector<std::string> TimeSeriesStore::series_names() const {
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, s] : series_) {
    (void)s;
    names.push_back(name);
  }
  return names;
}

std::vector<SeriesSample> TimeSeriesStore::last_n(std::string_view name,
                                                  std::size_t n) const {
  const TimeSeries* s = series(name);
  return s == nullptr ? std::vector<SeriesSample>{} : s->last_n(n);
}

double TimeSeriesStore::rate(std::string_view name) const {
  const TimeSeries* s = series(name);
  return s == nullptr ? 0.0 : s->rate_per_s();
}

double TimeSeriesStore::delta(std::string_view name, std::size_t n) const {
  const TimeSeries* s = series(name);
  return s == nullptr ? 0.0 : s->delta(n);
}

void TimeSeriesStore::attach_self_probes(MetricsRegistry& registry) {
  probe_registry_ = &registry;
  registry.register_probe("obs.self.series_samples", this, [this] {
    return static_cast<double>(samples_taken_);
  });
  registry.register_probe("obs.self.series_sample_ns", this, [this] {
    return static_cast<double>(self_sample_ns_);
  });
  registry.register_probe("obs.self.series_count", this, [this] {
    return static_cast<double>(series_.size());
  });
}

void TimeSeriesStore::clear() {
  series_.clear();
  bound_.clear();
  bound_registry_ = nullptr;
  next_due_ns_ = 0;
  samples_taken_ = 0;
  anomalies_fired_ = 0;
  self_sample_ns_ = 0;
  for (Watch& watch : watches_) {
    watch.mean = 0.0;
    watch.var = 0.0;
    watch.seen = 0;
    watch.armed = true;
    watch.have_last = false;
  }
}

TimeSeriesStore::~TimeSeriesStore() {
  if (probe_registry_ != nullptr) probe_registry_->unregister_probes(this);
}

void export_series_jsonl(const TimeSeriesStore& store, std::ostream& out) {
  for (const std::string& name : store.series_names()) {
    const TimeSeries* s = store.series(name);
    out << "{\"type\":\"series\",\"name\":\"" << json_escape(name)
        << "\",\"total\":" << s->total() << ",\"samples\":[";
    for (std::size_t i = 0; i < s->size(); ++i) {
      if (i != 0) out << ",";
      const SeriesSample& sample = s->at(i);
      out << "[" << json_number(static_cast<double>(sample.t_ns) / 1e6) << ","
          << json_number(sample.value) << "]";
    }
    out << "]}\n";
  }
}

}  // namespace p4runpro::obs
