// Batch sampling against a recorder that an alert freezes mid-batch:
// inject_batch asks the observer for its sample gap once per batch and again
// after every packet it reports one by one, so once an alert on a sampled
// packet freezes the flight recorder, the rest of the batch takes the lean
// loop. The recorder's 1-in-N rotation must still count every packet run,
// so journeys sampled after a thaw keep the per-packet inject() phase.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

rmt::Packet cache_packet() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0b000001, .dst = 0x0b000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{4000, 7777};
  pkt.app = rmt::AppHeader{1, 0x8888, 0, 0};
  pkt.ingress_port = 5;
  return pkt;
}

rmt::Packet unclaimed_packet() {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0c000001, .dst = 0x0c000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{1, 2};
  pkt.ingress_port = 9;
  return pkt;
}

/// One switch running the cache program, a 1-in-2 journey rotation and a
/// cache packet-rate rule that trips on the 5th cache packet of a window.
struct FreezeBed {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::Controller controller{dataplane, clock, {}, {}, &telemetry};
  ProgramId cache_id = 0;

  FreezeBed() {
    apps::ProgramConfig config;
    config.instance_name = "cache";
    auto linked = controller.link_single(apps::make_program_source("cache", config));
    EXPECT_TRUE(linked.ok());
    cache_id = linked.ok() ? linked.value().id : 0;
    telemetry.flight.set_sample_every(2);
    telemetry.flight.set_capacity(1024);
    // 100 ms window: each cache packet adds 10/s.
    obs::AlertRule rate{"cache-rate", obs::AlertKind::PacketRate, 50.0};
    rate.program = cache_id;
    telemetry.monitor.add_rule(rate);
  }
};

std::vector<std::uint64_t> journey_seqs(const FreezeBed& bed) {
  std::vector<std::uint64_t> seqs;
  for (const auto& journey : bed.telemetry.flight.journeys()) {
    seqs.push_back(journey.seq);
  }
  return seqs;
}

TEST(MonitorBatch, AlertFreezesRecorderMidBatch) {
  FreezeBed batched, single;
  // Cache packets sit at the even (sampled) positions, so both paths report
  // them one by one and the rule trips on the same packet: position 8. The
  // 11 packets after it run while the recorder is frozen — an odd count, so
  // a rotation that missed them would sample the other parity after the
  // thaw.
  std::vector<rmt::Packet> first;
  for (int i = 0; i < 20; ++i) {
    first.push_back(i % 2 == 0 ? cache_packet() : unclaimed_packet());
  }
  const std::uint64_t before = batched.dataplane.pipeline().packets_in();
  (void)batched.dataplane.inject_batch(std::span<const rmt::Packet>(first));
  for (const auto& pkt : first) (void)single.dataplane.inject(pkt);

  ASSERT_TRUE(batched.telemetry.flight.frozen());
  EXPECT_EQ(batched.telemetry.flight.freeze_reason(), "cache-rate");
  EXPECT_EQ(journey_seqs(batched), journey_seqs(single));
  ASSERT_EQ(batched.telemetry.flight.journeys().size(), 5u);
  EXPECT_EQ(batched.telemetry.flight.journeys().back().seq, before + 8);
  // The frozen tail was folded, not dropped.
  EXPECT_EQ(batched.telemetry.monitor.health(batched.cache_id)->packets, 10u);
  EXPECT_EQ(batched.telemetry.monitor.health(0)->packets, 10u);

  batched.telemetry.flight.thaw();
  single.telemetry.flight.thaw();
  std::vector<rmt::Packet> second(9, unclaimed_packet());
  (void)batched.dataplane.inject_batch(std::span<const rmt::Packet>(second));
  for (const auto& pkt : second) (void)single.dataplane.inject(pkt);

  EXPECT_EQ(journey_seqs(batched), journey_seqs(single));
  EXPECT_EQ(batched.telemetry.flight.journeys().size(), 5u + 5u);
  EXPECT_EQ(batched.telemetry.flight.recorded(), single.telemetry.flight.recorded());
}

}  // namespace
}  // namespace p4runpro
