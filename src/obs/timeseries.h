// Time-series telemetry store: fixed-capacity ring-buffer series sampled
// from a MetricsRegistry on a SimClock cadence. Counters are recorded as
// cumulative series (rates fall out of the query API), gauges and probes as
// instantaneous values, histograms as p50/p90/p99 rollup series (empty
// histograms are skipped — no misleading zero quantiles). On top of the
// samples sits an EWMA/z-score anomaly detector: watched series feed the
// health monitor's alert stream edge-triggered, so a rate step fires
// exactly one alert and re-arms only after the smoothed estimate adapts.
//
// The store also accounts its *own* cost: wall nanoseconds spent inside
// sample() accumulate and are published as `obs.self.*` probes, so the
// telemetry overhead is itself a first-class series (bench/obs_overhead.cpp
// turns this into the committed BENCH_obs.json baseline).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"

namespace p4runpro::obs {

class MetricsRegistry;
class ProgramHealthMonitor;

/// One retained sample of a series.
struct SeriesSample {
  SimClock::Nanos t_ns = 0;  ///< virtual time of the sampling tick
  double value = 0.0;
};

/// Fixed-capacity ring of (virtual time, value) samples; push evicts the
/// oldest once full. Queries index from the oldest *retained* sample.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void push(SimClock::Nanos t_ns, double value);

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  /// Samples ever pushed, including evicted ones.
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// i-th retained sample, 0 = oldest. Precondition: i < size().
  [[nodiscard]] const SeriesSample& at(std::size_t i) const;
  [[nodiscard]] const SeriesSample& newest() const { return at(size() - 1); }

  /// Last n samples, oldest first (fewer when the series is shorter).
  [[nodiscard]] std::vector<SeriesSample> last_n(std::size_t n) const;
  /// newest.value - value n samples back (0 when not enough samples).
  [[nodiscard]] double delta(std::size_t n = 1) const;
  /// (newest - oldest retained) per second of virtual time — the average
  /// rate over the retained window. For cumulative counter series this is
  /// the counter's rate; 0 with fewer than two samples.
  [[nodiscard]] double rate_per_s() const;

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest retained sample
  std::uint64_t total_ = 0;
  std::vector<SeriesSample> ring_;
};

/// EWMA/z-score detector knobs (per watched series).
struct AnomalyConfig {
  double alpha = 0.3;       ///< EWMA smoothing factor for mean and variance
  double z_threshold = 4.0; ///< |z| at which the alert fires
  int warmup_samples = 8;   ///< samples consumed before detection arms
  double min_std = 1e-9;    ///< variance floor (flat series never divide by 0)
};

class TimeSeriesStore {
 public:
  struct Config {
    std::size_t capacity = 512;       ///< ring capacity per series
    bool histogram_quantiles = true;  ///< sample <hist>.p50/.p90/.p99 rollups
  };

  TimeSeriesStore() = default;
  explicit TimeSeriesStore(Config config) : config_(config) {}

  /// Sampling cadence in virtual time; 0 (the default) disables
  /// maybe_sample() entirely, making the hot-path check a single compare.
  void set_cadence(SimClock::Nanos cadence_ns) noexcept { cadence_ns_ = cadence_ns; }
  [[nodiscard]] SimClock::Nanos cadence() const noexcept { return cadence_ns_; }

  /// Watch a counter's instantaneous rate (delta / dt between consecutive
  /// sampling ticks, recorded as the series "<name>.rate") with the EWMA
  /// detector. Alerts go to the sink monitor, edge-triggered: one alert at
  /// the step, re-armed only after |z| falls back under the threshold.
  void watch_rate(std::string counter_name, AnomalyConfig config = {});
  /// Watch a gauge/probe series value directly (same detector semantics).
  void watch_value(std::string series_name, AnomalyConfig config = {});
  /// Where detector alerts land (ProgramHealthMonitor::series_alert);
  /// null disables firing (detector state still advances).
  void set_alert_sink(ProgramHealthMonitor* monitor) noexcept { monitor_ = monitor; }

  /// Cadence-gated sampling tick: cheap no-op until `now` reaches the next
  /// due time (hot-path safe), then one full sample().
  void maybe_sample(const MetricsRegistry& registry, SimClock::Nanos now) {
    if (cadence_ns_ == 0 || now < next_due_ns_) return;
    next_due_ns_ = now + cadence_ns_;
    sample(registry, now);
  }

  /// Unconditional sampling tick at virtual time `now`: snapshot every
  /// counter, sampled gauge/probe and non-empty histogram into its series,
  /// derive watched rates, and run the anomaly detector.
  void sample(const MetricsRegistry& registry, SimClock::Nanos now);

  // --- query API ----------------------------------------------------------
  [[nodiscard]] const TimeSeries* series(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> series_names() const;
  [[nodiscard]] std::vector<SeriesSample> last_n(std::string_view name,
                                                 std::size_t n) const;
  /// Average rate over the series' retained window (see TimeSeries::rate_per_s).
  [[nodiscard]] double rate(std::string_view name) const;
  [[nodiscard]] double delta(std::string_view name, std::size_t n = 1) const;

  [[nodiscard]] std::uint64_t samples_taken() const noexcept { return samples_taken_; }
  [[nodiscard]] std::uint64_t anomalies_fired() const noexcept { return anomalies_fired_; }
  /// Wall nanoseconds spent inside sample() so far (self-overhead).
  [[nodiscard]] std::uint64_t self_sample_ns() const noexcept { return self_sample_ns_; }

  /// Publish the store's self-overhead as registry probes:
  ///   obs.self.series_samples    sampling ticks taken
  ///   obs.self.series_sample_ns  wall ns spent sampling
  ///   obs.self.series_count      live series in the store
  /// They become series themselves on the next tick.
  void attach_self_probes(MetricsRegistry& registry);

  /// Drop all series, detector state and counters; keeps cadence, watches'
  /// configs, and the alert sink.
  void clear();

  ~TimeSeriesStore();

 private:
  struct Watch {
    std::string name;  ///< counter (is_rate) or series name (value watch)
    bool is_rate = false;
    AnomalyConfig config;
    // EWMA detector state
    double mean = 0.0;
    double var = 0.0;
    int seen = 0;
    bool armed = true;  ///< edge trigger: disarms on fire, re-arms under threshold
    // rate derivation state
    double last_value = 0.0;
    SimClock::Nanos last_t_ns = 0;
    bool have_last = false;
  };

  TimeSeries& series_ref(std::string_view name);
  void feed_detector(Watch& watch, std::string_view series_name, double value);

  Config config_;
  SimClock::Nanos cadence_ns_ = 0;
  SimClock::Nanos next_due_ns_ = 0;
  std::map<std::string, TimeSeries, std::less<>> series_;
  /// sample()'s resolved series, in registry visit order, valid while the
  /// registry's layout_version() stays `bound_layout_`.
  std::vector<TimeSeries*> bound_;
  const MetricsRegistry* bound_registry_ = nullptr;
  std::uint64_t bound_layout_ = 0;
  std::vector<Watch> watches_;
  ProgramHealthMonitor* monitor_ = nullptr;
  MetricsRegistry* probe_registry_ = nullptr;  ///< registry holding our probes
  std::uint64_t samples_taken_ = 0;
  std::uint64_t anomalies_fired_ = 0;
  std::uint64_t self_sample_ns_ = 0;
};

/// JSONL export: one object per series ({"type":"series","name":...,
/// "samples":[[t_ms,value],...]}), sorted by name, oldest sample first.
/// Deterministic for identical store contents.
void export_series_jsonl(const TimeSeriesStore& store, std::ostream& out);

}  // namespace p4runpro::obs
