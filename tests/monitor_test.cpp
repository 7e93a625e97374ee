// Tests for the per-program data-plane health monitor and the packet
// flight recorder: rolling-window semantics, alert edge-triggering,
// ring/freeze behavior, and the end-to-end multi-program scenario (two
// deployed programs, attributed traffic, a recirculation alert that fires
// for the offending program only and freezes the journey ring).
#include <gtest/gtest.h>

#include <sstream>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "control/inspect.h"
#include "dataplane/runpro_dataplane.h"
#include "obs/monitor.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

// ------------------------------------------------------------ RateWindow

TEST(RateWindow, SumCoversOnlyTheWindow) {
  // 10 ms buckets, 4 buckets -> 40 ms window.
  obs::RateWindow w(10'000'000, 4);
  SimClock::Nanos t = 0;
  w.add(t, 3);
  EXPECT_EQ(w.sum(t), 3u);

  t += 15'000'000;  // 15 ms: still inside the window
  w.add(t, 2);
  EXPECT_EQ(w.sum(t), 5u);

  t += 30'000'000;  // 45 ms: the first bucket has aged out
  EXPECT_EQ(w.sum(t), 2u);

  t += 100'000'000;  // far future: everything aged out
  EXPECT_EQ(w.sum(t), 0u);
}

TEST(RateWindow, SlotReuseDropsStaleCounts) {
  obs::RateWindow w(1'000'000, 2);  // 1 ms buckets, 2 slots
  w.add(0, 7);
  // 5 ms later the same physical slot is reused for a new bucket index;
  // the stale count must not leak into the new bucket.
  w.add(4'000'000, 1);
  EXPECT_EQ(w.sum(4'000'000), 1u);
}

TEST(RateWindow, PerSecondScalesBySpan) {
  obs::RateWindow w(10'000'000, 10);  // 100 ms window
  w.add(0, 50);
  EXPECT_DOUBLE_EQ(w.per_second(0), 500.0);  // 50 events / 0.1 s
}

// -------------------------------------------------------- FlightRecorder

obs::PacketJourney journey(std::uint64_t seq) {
  obs::PacketJourney j;
  j.seq = seq;
  return j;
}

TEST(FlightRecorder, RingEvictsOldestWhenFull) {
  obs::FlightRecorder rec(3);
  for (std::uint64_t i = 0; i < 5; ++i) rec.record(journey(i));
  ASSERT_EQ(rec.journeys().size(), 3u);
  EXPECT_EQ(rec.journeys().front().seq, 2u);
  EXPECT_EQ(rec.journeys().back().seq, 4u);
  EXPECT_EQ(rec.recorded(), 5u);
}

TEST(FlightRecorder, SamplingIsOneInN) {
  obs::FlightRecorder rec;
  rec.set_sample_every(3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) sampled += rec.want_sample() ? 1 : 0;
  EXPECT_EQ(sampled, 3);

  // Disabled by default: a fresh recorder never samples.
  obs::FlightRecorder off;
  EXPECT_FALSE(off.want_sample());
}

TEST(FlightRecorder, FirstFreezeSticksAndThawResumes) {
  obs::FlightRecorder rec(4);
  rec.set_sample_every(1);
  rec.record(journey(1));
  rec.freeze("rule-a", 10.0);
  rec.freeze("rule-b", 20.0);  // ignored: the first anomaly wins
  EXPECT_TRUE(rec.frozen());
  EXPECT_EQ(rec.freeze_reason(), "rule-a");
  EXPECT_DOUBLE_EQ(rec.frozen_at_ms(), 10.0);

  // Frozen: no sampling, no recording.
  EXPECT_FALSE(rec.want_sample());
  rec.record(journey(2));
  EXPECT_EQ(rec.journeys().size(), 1u);

  rec.thaw();
  rec.record(journey(3));
  EXPECT_EQ(rec.journeys().size(), 2u);
}

// ------------------------------------------------- monitor unit behavior

rmt::PacketObservation observation(ProgramId program, rmt::PacketFate fate,
                                   int recirc = 0) {
  rmt::PacketObservation obs;
  obs.program = program;
  obs.fate = fate;
  obs.recirc_passes = recirc;
  return obs;
}

TEST(Monitor, LifecycleEventsAndCounterReset) {
  SimClock clock;
  obs::ProgramHealthMonitor monitor;
  monitor.set_clock(&clock);

  monitor.program_deployed(1, "alpha", 12);
  monitor.on_packet(observation(1, rmt::PacketFate::Forwarded));
  monitor.on_packet(observation(1, rmt::PacketFate::Dropped, 2));
  clock.advance_ms(5);
  monitor.program_revoked(1);

  const obs::ProgramHealth* h = monitor.health(1);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->name, "alpha");
  EXPECT_FALSE(h->active);
  EXPECT_EQ(h->packets, 2u);
  EXPECT_DOUBLE_EQ(h->revoked_at_ms, 5.0);
  EXPECT_GT(monitor.packet_rate(1), 0.0);

  // Ids are recycled: a redeploy under the same id starts fresh, and so do
  // its rolling windows (the old occupant's drops are not beta's).
  monitor.program_deployed(1, "beta", 7);
  EXPECT_EQ(monitor.health(1)->packets, 0u);
  EXPECT_EQ(monitor.health(1)->name, "beta");
  EXPECT_TRUE(monitor.health(1)->active);
  EXPECT_EQ(monitor.packet_rate(1), 0.0);
  EXPECT_EQ(monitor.recirc_rate(1), 0.0);
  EXPECT_EQ(monitor.drop_rate(1), 0.0);
  EXPECT_EQ(monitor.drop_fraction(1), 0.0);

  ASSERT_EQ(monitor.events().size(), 3u);
  EXPECT_EQ(monitor.events()[0].kind, obs::MonitorEvent::Kind::Deploy);
  EXPECT_EQ(monitor.events()[0].entries, 12u);
  EXPECT_EQ(monitor.events()[1].kind, obs::MonitorEvent::Kind::Revoke);
  EXPECT_DOUBLE_EQ(monitor.events()[1].t_ms, 5.0);
  EXPECT_EQ(monitor.events()[2].kind, obs::MonitorEvent::Kind::Deploy);
}

TEST(Monitor, AlertsAreEdgeTriggeredPerProgram) {
  SimClock clock;
  obs::ProgramHealthMonitor monitor;
  monitor.set_clock(&clock);
  monitor.program_deployed(1, "p", 1);
  monitor.add_rule({"high-drops", obs::AlertKind::DropFraction, 0.5});

  // First drop: fraction 1.0 >= 0.5 -> one alert.
  monitor.on_packet(observation(1, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  // Fraction 0.5 stays at the threshold: still disarmed, no refire.
  monitor.on_packet(observation(1, rmt::PacketFate::Forwarded));
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  // Fraction 1/3 < 0.5 rearms the rule ...
  monitor.on_packet(observation(1, rmt::PacketFate::Forwarded));
  // ... so crossing again fires a second alert (2 drops / 4 packets).
  monitor.on_packet(observation(1, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 2u);

  // A different program is independently armed.
  monitor.program_deployed(2, "q", 1);
  monitor.on_packet(observation(2, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 3u);
}

TEST(Monitor, ProgramScopedRuleIgnoresOtherPrograms) {
  obs::ProgramHealthMonitor monitor;
  monitor.program_deployed(1, "p", 1);
  monitor.program_deployed(2, "q", 1);
  obs::AlertRule rule{"p-only", obs::AlertKind::DropFraction, 0.5};
  rule.program = 1;
  monitor.add_rule(rule);

  monitor.on_packet(observation(2, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 0u);
  monitor.on_packet(observation(1, rmt::PacketFate::Dropped));
  EXPECT_EQ(monitor.alerts_fired(), 1u);
}

TEST(Monitor, StageOccupancyWatermark) {
  obs::ProgramHealthMonitor monitor;
  obs::AlertRule rule{"stage-full", obs::AlertKind::StageOccupancy, 0.8};
  monitor.add_rule(rule);

  monitor.on_stage_occupancy(3, 70, 100);
  EXPECT_EQ(monitor.alerts_fired(), 0u);
  monitor.on_stage_occupancy(3, 85, 100);
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  monitor.on_stage_occupancy(3, 95, 100);  // still above: edge-triggered
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  monitor.on_stage_occupancy(3, 10, 100);  // rearm
  monitor.on_stage_occupancy(3, 90, 100);
  EXPECT_EQ(monitor.alerts_fired(), 2u);

  const auto& alert = monitor.events().back();
  EXPECT_EQ(alert.kind, obs::MonitorEvent::Kind::Alert);
  EXPECT_EQ(alert.rpb, 3);
  EXPECT_DOUBLE_EQ(alert.value, 0.9);
}

TEST(Monitor, MetricHandlesStayLiveAcrossBundleClear) {
  obs::Telemetry telemetry;
  telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  EXPECT_EQ(telemetry.metrics.counter("obs.monitor.packets").value(), 1u);
  telemetry.clear();
  // The cached handle was re-resolved against the fresh registry.
  telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  EXPECT_EQ(telemetry.metrics.counter("obs.monitor.packets").value(), 1u);
}

// --------------------------------------------- causal trace attribution

TEST(Monitor, ControlPathEventsInheritTheActiveTraceContext) {
  obs::Telemetry telemetry;
  std::uint64_t minted = 0;
  {
    obs::TraceScope trace(&telemetry);
    minted = trace.trace_id();
    telemetry.monitor.program_deployed(1, "cache", 12);
    telemetry.monitor.txn_committed(1, "cache");
  }
  // Outside any scope: no trace to inherit.
  telemetry.monitor.program_revoked(1);

  const auto& events = telemetry.monitor.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].trace, minted);
  EXPECT_EQ(events[1].trace, minted);
  EXPECT_EQ(events[2].trace, 0u);

  std::ostringstream out;
  export_alerts_jsonl(telemetry.monitor, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"trace\":\"" + obs::format_trace_id(minted) + "\""),
            std::string::npos)
      << jsonl;
}

TEST(Monitor, PacketPathAlertsInheritTheTableStateTrace) {
  obs::Telemetry telemetry;
  telemetry.monitor.add_rule(
      {"drop-storm", obs::AlertKind::DropFraction, 0.5});
  telemetry.monitor.program_deployed(1, "cache", 4);

  // The packet executed against table state installed by traced op 77; the
  // alert it trips is attributed to that operation, not to whatever control
  // context happens to be active.
  auto obs = observation(1, rmt::PacketFate::Dropped);
  obs.table_trace = 77;
  obs.table_generation = 3;
  telemetry.monitor.on_packet(obs);
  ASSERT_EQ(telemetry.monitor.alerts_fired(), 1u);

  const auto& events = telemetry.monitor.events();
  const auto& alert = events.back();
  ASSERT_EQ(alert.kind, obs::MonitorEvent::Kind::Alert);
  EXPECT_EQ(alert.trace, 77u);
  EXPECT_TRUE(alert.series.empty());  // threshold alert, not an anomaly

  std::ostringstream out;
  export_alerts_jsonl(telemetry.monitor, out);
  EXPECT_NE(out.str().find("\"trace\":\"" + obs::format_trace_id(77) + "\""),
            std::string::npos);
  // Non-anomaly alerts emit no empty "series" field.
  EXPECT_EQ(out.str().find("\"series\""), std::string::npos);
}

TEST(Monitor, SeriesAlertCarriesSeriesFreezesFlightAndExports) {
  obs::Telemetry telemetry;
  // A packet stamped the table-state trace; the later anomaly inherits it.
  auto obs = observation(0, rmt::PacketFate::Forwarded);
  obs.table_trace = 9;
  telemetry.monitor.on_packet(obs);

  telemetry.monitor.series_alert("rmt.packets.rate", "anomaly.z_score",
                                 120.5, 40.0);
  EXPECT_EQ(telemetry.monitor.alerts_fired(), 1u);
  EXPECT_TRUE(telemetry.flight.frozen());
  EXPECT_EQ(telemetry.flight.freeze_reason(), "anomaly.z_score");

  const auto& alert = telemetry.monitor.events().back();
  EXPECT_EQ(alert.kind, obs::MonitorEvent::Kind::Alert);
  EXPECT_EQ(alert.series, "rmt.packets.rate");
  EXPECT_EQ(alert.trace, 9u);
  EXPECT_DOUBLE_EQ(alert.value, 120.5);
  EXPECT_DOUBLE_EQ(alert.threshold, 40.0);

  std::ostringstream out;
  export_alerts_jsonl(telemetry.monitor, out);
  const std::string jsonl = out.str();
  EXPECT_NE(jsonl.find("\"rule\":\"anomaly.z_score\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"series\":\"rmt.packets.rate\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"trace\":\"" + obs::format_trace_id(9) + "\""),
            std::string::npos);
}

TEST(Monitor, OverheadAccountingCountsHookCalls) {
  obs::Telemetry telemetry;
  // Off by default: the two clock reads per packet are themselves overhead.
  telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  EXPECT_EQ(telemetry.monitor.hook_calls(), 0u);

  telemetry.monitor.set_overhead_accounting(true);
  for (int i = 0; i < 5; ++i) {
    telemetry.monitor.on_packet(observation(0, rmt::PacketFate::Forwarded));
  }
  EXPECT_EQ(telemetry.monitor.hook_calls(), 5u);
  // Wall time is machine-dependent; only its presence is asserted via the
  // self-probe the registry exposes.
  EXPECT_DOUBLE_EQ(telemetry.metrics.gauge_value("obs.self.monitor_hook_calls"),
                   5.0);
}

// ------------------------------------------- end-to-end scenario harness

rmt::Packet cache_packet() {
  rmt::Packet pkt;
  // src outside 10/8 so only the cache program's port filter matches.
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0b000001, .dst = 0x0b000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{4000, 7777};
  pkt.app = rmt::AppHeader{1, 0x8888, 0, 0};
  pkt.ingress_port = 5;
  return pkt;
}

rmt::Packet hh_packet() {
  rmt::Packet pkt;
  // src inside 10/8: claimed by the heavy-hitter program (which
  // recirculates every packet for its Bloom-filter walk).
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000010, .dst = 0x0b000001, .proto = 17};
  pkt.udp = rmt::UdpHeader{5000, 6000};
  pkt.ingress_port = 1;
  return pkt;
}

rmt::Packet unclaimed_packet() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0c000001, .dst = 0x0c000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{1, 2};
  pkt.ingress_port = 9;
  return pkt;
}

/// One full run of the multi-program scenario against a private telemetry
/// bundle: deploy cache + hh, configure a recirculation alert, drive mixed
/// traffic. Returns the JSONL dumps so runs can be compared byte-for-byte.
struct ScenarioResult {
  ProgramId cache_id = 0;
  ProgramId hh_id = 0;
  std::uint64_t packets_in = 0;
  std::string alerts;
  std::string flight;
  std::string dashboard;
};

ScenarioResult run_scenario(obs::Telemetry& telemetry) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  controller.set_fixed_alloc_charge_ms(1.0);  // virtual-time determinism

  telemetry.flight.set_sample_every(1);
  obs::AlertRule rule{"recirc-storm", obs::AlertKind::RecircPerPacket, 0.5};
  telemetry.monitor.add_rule(rule);

  apps::ProgramConfig cache_config;
  cache_config.instance_name = "cache";
  auto cache = controller.link_single(apps::make_program_source("cache", cache_config));
  EXPECT_TRUE(cache.ok()) << cache.error().message;
  apps::ProgramConfig hh_config;
  hh_config.instance_name = "hh";
  auto hh = controller.link_single(apps::make_program_source("hh", hh_config));
  EXPECT_TRUE(hh.ok()) << hh.error().message;

  // Cache traffic first (well-behaved, no recirculation), then the
  // recirculating heavy-hitter traffic that trips the alert, then traffic
  // no program claims.
  for (int i = 0; i < 10; ++i) (void)dataplane.inject(cache_packet());
  for (int i = 0; i < 6; ++i) (void)dataplane.inject(hh_packet());
  for (int i = 0; i < 4; ++i) (void)dataplane.inject(unclaimed_packet());

  ScenarioResult result;
  result.cache_id = cache.value().id;
  result.hh_id = hh.value().id;
  result.packets_in = dataplane.pipeline().packets_in();
  std::ostringstream alerts, flight;
  export_alerts_jsonl(telemetry.monitor, alerts);
  export_flight_jsonl(telemetry.flight, flight);
  result.alerts = alerts.str();
  result.flight = flight.str();
  result.dashboard = ctrl::health_report(telemetry);
  return result;
}

TEST(MonitorScenario, AttributionAlertAndFlightDump) {
  obs::Telemetry telemetry;
  const ScenarioResult result = run_scenario(telemetry);
  const obs::ProgramHealthMonitor& monitor = telemetry.monitor;

  // Every injected packet was observed and attributed to exactly one
  // program slot (slot 0 collects the unclaimed traffic).
  EXPECT_EQ(monitor.packets_observed(), result.packets_in);
  std::uint64_t attributed = 0;
  for (ProgramId id : monitor.known_programs()) {
    attributed += monitor.health(id)->packets;
  }
  EXPECT_EQ(attributed, result.packets_in);

  const obs::ProgramHealth* cache = monitor.health(result.cache_id);
  const obs::ProgramHealth* hh = monitor.health(result.hh_id);
  const obs::ProgramHealth* unclaimed = monitor.health(0);
  ASSERT_NE(cache, nullptr);
  ASSERT_NE(hh, nullptr);
  ASSERT_NE(unclaimed, nullptr);
  EXPECT_EQ(cache->packets, 10u);
  EXPECT_EQ(hh->packets, 6u);
  EXPECT_EQ(unclaimed->packets, 4u);
  // The claiming program's entries did the work: hits and stateful
  // updates land on the right slot, recirculation only on hh.
  EXPECT_GT(cache->table_hits, 0u);
  EXPECT_GT(cache->salu_updates, 0u);
  EXPECT_EQ(cache->recirc_passes, 0u);
  EXPECT_GE(hh->recirc_passes, hh->packets);
  EXPECT_EQ(unclaimed->table_hits, 0u);

  // The recirculation alert fired exactly once, for hh only.
  EXPECT_EQ(monitor.alerts_fired(), 1u);
  int alert_count = 0;
  for (const auto& event : monitor.events()) {
    if (event.kind != obs::MonitorEvent::Kind::Alert) continue;
    ++alert_count;
    EXPECT_EQ(event.program, result.hh_id);
    EXPECT_EQ(event.rule, "recirc-storm");
    EXPECT_GE(event.value, 0.5);
  }
  EXPECT_EQ(alert_count, 1);

  // The alert froze the flight recorder; the frozen ring holds the
  // journeys leading up to the anomaly, newest being the offender.
  const obs::FlightRecorder& flight = telemetry.flight;
  EXPECT_TRUE(flight.frozen());
  EXPECT_EQ(flight.freeze_reason(), "recirc-storm");
  ASSERT_FALSE(flight.journeys().empty());
  EXPECT_EQ(flight.journeys().back().program, result.hh_id);
  EXPECT_GT(flight.journeys().back().recirc_passes, 0);
  bool saw_hh_events = false;
  for (const auto& j : flight.journeys()) {
    if (j.program == result.hh_id && !j.events.empty()) saw_hh_events = true;
  }
  EXPECT_TRUE(saw_hh_events);

  // Dumps reflect the same story.
  EXPECT_NE(result.alerts.find("\"kind\":\"deploy\",\"program\":1,\"name\":\"cache\""),
            std::string::npos)
      << result.alerts;
  EXPECT_NE(result.alerts.find("\"rule\":\"recirc-storm\""), std::string::npos);
  EXPECT_NE(result.flight.find("\"frozen\":true"), std::string::npos);
  EXPECT_NE(result.flight.find("\"reason\":\"recirc-storm\""), std::string::npos);
  EXPECT_NE(result.flight.find("\"name\":\"hh\""), std::string::npos);

  // The operator dashboard renders all three rows and the freeze.
  EXPECT_NE(result.dashboard.find("cache"), std::string::npos) << result.dashboard;
  EXPECT_NE(result.dashboard.find("hh"), std::string::npos);
  EXPECT_NE(result.dashboard.find("(unclaimed)"), std::string::npos);
  EXPECT_NE(result.dashboard.find("FROZEN"), std::string::npos);
  EXPECT_NE(result.dashboard.find("ALERT"), std::string::npos);
}

TEST(MonitorScenario, IdenticalRunsProduceIdenticalDumps) {
  obs::Telemetry first_bundle, second_bundle;
  const ScenarioResult first = run_scenario(first_bundle);
  const ScenarioResult second = run_scenario(second_bundle);
  EXPECT_EQ(first.alerts, second.alerts);
  EXPECT_EQ(first.flight, second.flight);
  EXPECT_EQ(first.dashboard, second.dashboard);
  EXPECT_FALSE(first.alerts.empty());
  EXPECT_FALSE(first.flight.empty());
}

TEST(MonitorScenario, RevokeShowsUpInStreamAndHealth) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);

  apps::ProgramConfig config;
  config.instance_name = "cache";
  auto linked = controller.link_single(apps::make_program_source("cache", config));
  ASSERT_TRUE(linked.ok());
  (void)dataplane.inject(cache_packet());
  ASSERT_TRUE(controller.revoke(linked.value().id).ok());

  const obs::ProgramHealth* h = telemetry.monitor.health(linked.value().id);
  ASSERT_NE(h, nullptr);
  EXPECT_FALSE(h->active);
  EXPECT_EQ(h->packets, 1u);  // history survives the revoke
  bool saw_revoke = false;
  for (const auto& event : telemetry.monitor.events()) {
    if (event.kind == obs::MonitorEvent::Kind::Revoke &&
        event.program == linked.value().id) {
      saw_revoke = true;
    }
  }
  EXPECT_TRUE(saw_revoke);

  // Traffic after the revoke is unclaimed again.
  (void)dataplane.inject(cache_packet());
  EXPECT_EQ(h->packets, 1u);
  EXPECT_EQ(telemetry.monitor.health(0)->packets, 1u);
}

// ------------------------------------ batch fold vs per-packet reporting

rmt::Packet drop_packet() {
  rmt::Packet pkt;
  // src inside 13.0/16: claimed by the dropper program below.
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0d000001, .dst = 0x0b000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{7, 8};
  pkt.ingress_port = 3;
  return pkt;
}

/// One switch with hh (recirculates), cache (returns), a dropper and room
/// for unclaimed frames, wired to a private telemetry bundle.
struct BatchBed {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::Controller controller{dataplane, clock, {}, {}, &telemetry};
  ProgramId cache_id = 0;
  ProgramId hh_id = 0;
  ProgramId drop_id = 0;

  BatchBed() {
    controller.set_fixed_alloc_charge_ms(1.0);
    cache_id = link(apps::make_program_source("cache", named("cache")));
    hh_id = link(apps::make_program_source("hh", named("hh")));
    drop_id = link("program dropper(<hdr.ipv4.src, 0x0d000000, 0xffff0000>) { DROP; }");
  }

  static apps::ProgramConfig named(const char* name) {
    apps::ProgramConfig config;
    config.instance_name = name;
    return config;
  }
  ProgramId link(const std::string& source) {
    auto linked = controller.link_single(source);
    EXPECT_TRUE(linked.ok()) << linked.error().message;
    return linked.ok() ? linked.value().id : 0;
  }
};

/// Mixed trace over all four kinds of traffic (hh flows vary so the sketch
/// rows differ per packet).
std::vector<rmt::Packet> mixed_trace(std::size_t n) {
  std::vector<rmt::Packet> pkts;
  std::uint32_t x = 12345;
  for (std::size_t i = 0; i < n; ++i) {
    x = x * 1103515245u + 12345u;
    switch ((x >> 16) % 4) {
      case 0: pkts.push_back(cache_packet()); break;
      case 1: {
        rmt::Packet pkt = hh_packet();
        pkt.udp->src_port = static_cast<std::uint16_t>(5000 + (x >> 24) % 8);
        pkts.push_back(pkt);
        break;
      }
      case 2: pkts.push_back(drop_packet()); break;
      default: pkts.push_back(unclaimed_packet()); break;
    }
  }
  return pkts;
}

/// Replays `pkts` in batches of `batch` packets: `batched` through
/// inject_batch, `single` through per-packet inject(); both clocks then
/// advance by `step_ms`. `after_batch` runs after every batch.
template <typename F>
void replay_both(BatchBed& batched, BatchBed& single,
                 const std::vector<rmt::Packet>& pkts, std::size_t batch,
                 double step_ms, F&& after_batch) {
  for (std::size_t at = 0; at < pkts.size(); at += batch) {
    const std::size_t n = std::min(batch, pkts.size() - at);
    const auto result = batched.dataplane.inject_batch(
        std::span<const rmt::Packet>(pkts.data() + at, n));
    EXPECT_EQ(result.packets, n);
    for (std::size_t i = at; i < at + n; ++i) (void)single.dataplane.inject(pkts[i]);
    batched.clock.advance_ms(step_ms);
    single.clock.advance_ms(step_ms);
    after_batch();
  }
}

void expect_same_health(BatchBed& a, BatchBed& b) {
  const obs::ProgramHealthMonitor& ma = a.telemetry.monitor;
  const obs::ProgramHealthMonitor& mb = b.telemetry.monitor;
  ASSERT_EQ(ma.known_programs(), mb.known_programs());
  for (const ProgramId id : ma.known_programs()) {
    SCOPED_TRACE(testing::Message() << "program " << id);
    const obs::ProgramHealth& ha = *ma.health(id);
    const obs::ProgramHealth& hb = *mb.health(id);
    EXPECT_EQ(ha.name, hb.name);
    EXPECT_EQ(ha.active, hb.active);
    EXPECT_EQ(ha.entries, hb.entries);
    EXPECT_EQ(ha.packets, hb.packets);
    EXPECT_EQ(ha.table_hits, hb.table_hits);
    EXPECT_EQ(ha.table_misses, hb.table_misses);
    EXPECT_EQ(ha.salu_updates, hb.salu_updates);
    EXPECT_EQ(ha.recirc_passes, hb.recirc_passes);
    EXPECT_EQ(ha.drops, hb.drops);
    // Same virtual time on both beds: the windows must agree exactly.
    EXPECT_EQ(ma.packet_rate(id), mb.packet_rate(id));
    EXPECT_EQ(ma.recirc_rate(id), mb.recirc_rate(id));
    EXPECT_EQ(ma.drop_rate(id), mb.drop_rate(id));
    EXPECT_EQ(ma.recirc_per_packet(id), mb.recirc_per_packet(id));
    EXPECT_EQ(ma.drop_fraction(id), mb.drop_fraction(id));
  }
  EXPECT_EQ(ma.packets_observed(), mb.packets_observed());
  EXPECT_EQ(a.telemetry.metrics.counter("obs.monitor.packets").value(),
            b.telemetry.metrics.counter("obs.monitor.packets").value());
}

TEST(MonitorBatch, HealthAndWindowsMatchPerPacketInject) {
  BatchBed batched, single;
  const auto pkts = mixed_trace(600);
  // 7 ms per batch of 24: windows (10 ms buckets, 100 ms span) roll over
  // several times during the replay.
  replay_both(batched, single, pkts, 24, 7.0,
              [&] { expect_same_health(batched, single); });

  // Not vacuous: every kind of traffic reached the monitor through the
  // batch fold, and every packet was attributed exactly once.
  const obs::ProgramHealthMonitor& m = batched.telemetry.monitor;
  EXPECT_EQ(m.packets_observed(), pkts.size());
  EXPECT_EQ(batched.dataplane.pipeline().packets_in(), pkts.size());
  EXPECT_GT(m.health(batched.hh_id)->recirc_passes, 0u);
  EXPECT_GT(m.health(batched.drop_id)->drops, 0u);
  EXPECT_GT(m.health(batched.cache_id)->salu_updates, 0u);
  EXPECT_GT(m.health(0)->packets, 0u);
  EXPECT_GT(m.packet_rate(batched.hh_id), 0.0);
  EXPECT_GT(m.drop_rate(batched.drop_id), 0.0);
}

TEST(MonitorBatch, SampledJourneysMatchPerPacketInject) {
  BatchBed batched, single;
  batched.telemetry.flight.set_sample_every(7);
  single.telemetry.flight.set_sample_every(7);
  batched.telemetry.flight.set_capacity(1024);
  single.telemetry.flight.set_capacity(1024);
  const auto pkts = mixed_trace(300);
  replay_both(batched, single, pkts, 32, 3.0, [] {});
  expect_same_health(batched, single);

  const auto& ja = batched.telemetry.flight.journeys();
  const auto& jb = single.telemetry.flight.journeys();
  ASSERT_EQ(ja.size(), (pkts.size() + 6) / 7);
  ASSERT_EQ(ja.size(), jb.size());
  for (std::size_t i = 0; i < ja.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "journey " << i);
    EXPECT_EQ(ja[i].seq, jb[i].seq);
    EXPECT_EQ(ja[i].seq, 7 * i);
    EXPECT_EQ(ja[i].program, jb[i].program);
    EXPECT_EQ(ja[i].program_name, jb[i].program_name);
    EXPECT_EQ(ja[i].fate, jb[i].fate);
    EXPECT_EQ(ja[i].t_ms, jb[i].t_ms);
    EXPECT_EQ(ja[i].recirc_passes, jb[i].recirc_passes);
    EXPECT_EQ(ja[i].table_hits, jb[i].table_hits);
    ASSERT_EQ(ja[i].events.size(), jb[i].events.size());
    EXPECT_FALSE(ja[i].events.empty());
    for (std::size_t e = 0; e < ja[i].events.size(); ++e) {
      const rmt::TraceEvent& ea = ja[i].events[e];
      const rmt::TraceEvent& eb = jb[i].events[e];
      EXPECT_EQ(ea.block, eb.block);
      EXPECT_EQ(ea.stage, eb.stage);
      EXPECT_EQ(ea.round, eb.round);
      EXPECT_EQ(ea.branch, eb.branch);
      EXPECT_EQ(ea.op, eb.op);
      EXPECT_EQ(ea.next_branch, eb.next_branch);
      EXPECT_EQ(ea.value, eb.value);
    }
  }
}

TEST(MonitorBatch, AlertsCrossedAtBatchBoundaryMatchPerPacketInject) {
  BatchBed batched, single;
  // Per batch: 4 cache and 2 dropped packets among hh and unclaimed ones.
  // The 100 ms window sees every packet (1 ms per batch), so the cache
  // packet rate reaches 120/s on batch 2's last cache packet and the drop
  // rate 80/s on batch 3's last dropped packet.
  std::vector<rmt::Packet> pkts;
  for (int b = 0; b < 6; ++b) {
    for (const rmt::Packet& pkt :
         {cache_packet(), hh_packet(), drop_packet(), cache_packet(),
          unclaimed_packet(), cache_packet(), drop_packet(), hh_packet(),
          cache_packet(), unclaimed_packet()}) {
      pkts.push_back(pkt);
    }
  }
  for (BatchBed* bed : {&batched, &single}) {
    obs::AlertRule rate{"cache-rate", obs::AlertKind::PacketRate, 120.0};
    rate.program = bed->cache_id;
    bed->telemetry.monitor.add_rule(rate);
    obs::AlertRule drops{"drop-rate", obs::AlertKind::DropRate, 80.0};
    drops.program = bed->drop_id;
    bed->telemetry.monitor.add_rule(drops);
  }
  replay_both(batched, single, pkts, 10, 1.0, [] {});
  expect_same_health(batched, single);

  const auto alerts = [](const BatchBed& bed) {
    std::vector<obs::MonitorEvent> out;
    for (const auto& e : bed.telemetry.monitor.events()) {
      if (e.kind == obs::MonitorEvent::Kind::Alert) out.push_back(e);
    }
    return out;
  };
  const auto aa = alerts(batched);
  const auto ab = alerts(single);
  ASSERT_EQ(aa.size(), 2u);
  ASSERT_EQ(ab.size(), 2u);
  EXPECT_EQ(aa[0].rule, "cache-rate");
  EXPECT_EQ(aa[0].program, batched.cache_id);
  EXPECT_DOUBLE_EQ(aa[1].t_ms - aa[0].t_ms, 1.0);  // batches 2 and 3
  EXPECT_EQ(aa[1].rule, "drop-rate");
  EXPECT_EQ(aa[1].program, batched.drop_id);
  for (std::size_t i = 0; i < aa.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "alert " << i);
    EXPECT_EQ(aa[i].seq, ab[i].seq);
    EXPECT_EQ(aa[i].t_ms, ab[i].t_ms);
    EXPECT_EQ(aa[i].program, ab[i].program);
    EXPECT_EQ(aa[i].rule, ab[i].rule);
    EXPECT_EQ(aa[i].value, ab[i].value);
    EXPECT_EQ(aa[i].threshold, ab[i].threshold);
    EXPECT_EQ(aa[i].trace, ab[i].trace);
  }
  EXPECT_TRUE(batched.telemetry.flight.frozen());
  EXPECT_EQ(batched.telemetry.flight.freeze_reason(),
            single.telemetry.flight.freeze_reason());
  EXPECT_EQ(batched.telemetry.flight.frozen_at_ms(),
            single.telemetry.flight.frozen_at_ms());
}

TEST(MonitorBatch, GlobalTracingBatchMatchesPerPacketInject) {
  BatchBed batched, single;
  batched.dataplane.pipeline().set_tracing(true);
  single.dataplane.pipeline().set_tracing(true);
  const auto pkts = mixed_trace(200);
  replay_both(batched, single, pkts, 16, 5.0,
              [&] { expect_same_health(batched, single); });
  EXPECT_EQ(batched.telemetry.monitor.packets_observed(), pkts.size());
  EXPECT_EQ(batched.dataplane.pipeline().total_recirc_passes(),
            single.dataplane.pipeline().total_recirc_passes());
  EXPECT_EQ(batched.dataplane.pipeline().packets_dropped(),
            single.dataplane.pipeline().packets_dropped());
}

}  // namespace
}  // namespace p4runpro
