// Snapshot data plane: RCU-style table snapshots published through the
// SnapshotHub, consumed lock-free by shard pipes (docs/ARCHITECTURE.md
// "Snapshot data plane").
//
//  - publish/read parity: a randomized op sequence drives a serial master
//    bed and a single-shard snapshot bed in lockstep; every batch must see
//    identical fates and the claim books must agree.
//  - grace period: a held ReadGuard defers reclamation of retired
//    snapshots; reads through it stay valid (ASan guards the UAF).
//  - rollback: a faulted install never publishes — the epoch stands still
//    and shard traffic keeps matching the last good snapshot.
//  - deploy under fire (TSan): shard workers batch packets while the
//    control plane churns installs/removes; batches never stall and never
//    tear across a snapshot boundary.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/snapshot_hub.h"
#include "dataplane/table_snapshot.h"
#include "rmt/packet.h"

namespace p4runpro {
namespace {

rmt::Packet udp_packet(Word op, Word key, std::uint16_t dst_port,
                       Port ingress = 5, Word value = 0) {
  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 4000, .dst_port = dst_port};
  pkt.app = rmt::AppHeader{.op = op, .key1 = key, .key2 = 0, .value = value};
  pkt.ingress_port = ingress;
  return pkt;
}

std::string program_source(const std::string& tmpl, const std::string& name,
                           Word filter_value = 0, std::uint32_t buckets = 32) {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = buckets;
  config.filter_value = filter_value;
  return apps::make_program_source(tmpl, config);
}

struct Bed {
  SimClock clock;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{},
                                rmt::ParserConfig{{7777, 9999}}};
  ctrl::Controller controller{dataplane, clock};
};

void expect_batches_equal(const rmt::Pipeline::BatchResult& serial,
                          const rmt::Pipeline::BatchResult& sharded,
                          int step) {
  EXPECT_EQ(serial.packets, sharded.packets) << "step " << step;
  EXPECT_EQ(serial.forwarded, sharded.forwarded) << "step " << step;
  EXPECT_EQ(serial.returned, sharded.returned) << "step " << step;
  EXPECT_EQ(serial.dropped, sharded.dropped) << "step " << step;
  EXPECT_EQ(serial.reported, sharded.reported) << "step " << step;
  EXPECT_EQ(serial.multicasted, sharded.multicasted) << "step " << step;
  EXPECT_EQ(serial.recirc_limited, sharded.recirc_limited) << "step " << step;
  EXPECT_EQ(serial.recirc_passes, sharded.recirc_passes) << "step " << step;
}

// Randomized differential: the same control-op and traffic sequence runs on
// a serial master bed and on shard 0 of a snapshot bed. The shard starts
// from zeroed pipe-local state just like the master, control writes
// broadcast to it, and every batch binds the latest published snapshot — so
// fates, recirculations and claim counts must evolve identically.
TEST(Snapshot, PublishReadParityRandomizedDifferential) {
  Bed serial;
  Bed sharded;
  sharded.dataplane.enable_sharding(1);

  std::mt19937 rng(20260809);
  std::vector<ProgramId> live;  // ids match across beds (same assignment order)
  int created = 0;

  const auto random_batch = [&rng](int n) {
    const std::uint16_t ports[] = {7777, 9999, 1234};
    std::vector<rmt::Packet> pkts;
    pkts.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      pkts.push_back(udp_packet(1 + rng() % 2, 0x8880 + rng() % 16,
                                ports[rng() % 3], 5 + rng() % 2, rng() % 100));
    }
    return pkts;
  };

  for (int step = 0; step < 120; ++step) {
    switch (rng() % 4) {
      case 0: {  // link a program on both beds
        if (live.size() >= 6) break;
        const bool hh = created % 2 == 0;
        const std::string src =
            program_source(hh ? "hh" : "cache", "p" + std::to_string(created));
        ++created;
        auto a = serial.controller.link_single(src);
        auto b = sharded.controller.link_single(src);
        ASSERT_TRUE(a.ok()) << a.error().str();
        ASSERT_TRUE(b.ok()) << b.error().str();
        ASSERT_EQ(a.value().id, b.value().id) << "beds diverged on id";
        live.push_back(a.value().id);
        break;
      }
      case 1: {  // revoke one
        if (live.empty()) break;
        const std::size_t victim = rng() % live.size();
        const ProgramId id = live[victim];
        ASSERT_TRUE(serial.controller.revoke(id).ok());
        ASSERT_TRUE(sharded.controller.revoke(id).ok());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        break;
      }
      case 2: {  // control-plane memory write (broadcasts to the shard)
        if (live.empty()) break;
        const ProgramId id = live[rng() % live.size()];
        const Word value = rng();
        // Not every template names a "mem1" pool; a rejected write must be
        // rejected identically on both beds.
        auto a = serial.controller.write_memory(id, "mem1", 0, value);
        auto b = sharded.controller.write_memory(id, "mem1", 0, value);
        ASSERT_EQ(a.ok(), b.ok());
        break;
      }
      default: {  // traffic
        const auto pkts = random_batch(64);
        const auto a = serial.dataplane.inject_batch(pkts);
        const auto b = sharded.dataplane.inject_batch_on(0, pkts);
        expect_batches_equal(a, b, step);
        // The sharded batch names the snapshot it matched.
        EXPECT_GT(b.snapshot_epoch, 0u);
        EXPECT_EQ(b.table_generation, a.table_generation);
        break;
      }
    }
  }

  for (const ProgramId id : live) {
    EXPECT_EQ(serial.dataplane.claimed_packets(id),
              sharded.dataplane.claimed_packets(id))
        << "claim books diverged for program " << id;
  }
  sharded.dataplane.disable_sharding();
}

// A reader holding a snapshot across publishes keeps it alive: retirement
// is deferred until the guard drops, and reads through the guard stay valid
// the whole time (ASan would flag the use-after-free otherwise).
TEST(Snapshot, GracePeriodDefersReclaimUntilReadersDrain) {
  Bed bed;
  bed.dataplane.enable_sharding(2);
  dp::SnapshotHub* hub = bed.dataplane.snapshot_hub();
  ASSERT_NE(hub, nullptr);
  const std::uint64_t initial_epoch = hub->epoch();

  {
    auto guard = hub->acquire(0);
    const std::uint64_t held_epoch = guard->epoch;
    const std::size_t held_tables = guard->rpb_tables.size();

    // Two commits while the guard is held: each publishes a new snapshot
    // and retires the previous one, but nothing may be freed yet.
    ASSERT_TRUE(bed.controller.link_single(program_source("cache", "a")).ok());
    ASSERT_TRUE(bed.controller.link_single(program_source("cache", "b")).ok());
    EXPECT_EQ(hub->epoch(), initial_epoch + 2);
    EXPECT_GE(hub->retired_pending(), 2u);

    // The held snapshot is still fully readable.
    EXPECT_EQ(guard->epoch, held_epoch);
    EXPECT_EQ(guard->rpb_tables.size(), held_tables);
    for (const auto& table : guard->rpb_tables) (void)table.size();
  }

  // Reader gone: the grace period ends and everything retired reclaims.
  hub->try_reclaim();
  EXPECT_EQ(hub->retired_pending(), 0u);
  EXPECT_GE(hub->reclaimed(), 2u);

  // A fresh acquire sees the newest snapshot.
  auto guard = hub->acquire(1);
  EXPECT_EQ(guard->epoch, initial_epoch + 2);
}

// A faulted install rolls back without publishing: the epoch stands still,
// and shard traffic is byte-identically unaffected. Re-running the install
// without the fault publishes exactly one new snapshot.
TEST(Snapshot, RollbackNeverPublishes) {
  Bed bed;
  bed.dataplane.enable_sharding(1);
  dp::SnapshotHub* hub = bed.dataplane.snapshot_hub();

  ASSERT_TRUE(bed.controller.link_single(program_source("cache", "base")).ok());
  const std::uint64_t epoch_before = hub->epoch();
  const std::uint64_t publishes_before = hub->publishes();

  std::vector<rmt::Packet> probe;
  for (int i = 0; i < 32; ++i) probe.push_back(udp_packet(1, 0x8888, 7777));
  const auto before = bed.dataplane.inject_batch_on(0, probe);

  bed.controller.updates().set_fault_after_writes(2);
  auto faulted = bed.controller.link_single(program_source("cache", "doomed"));
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.error().code, ErrorCode::ChannelError);

  // No publish happened; traffic still matches the pre-fault snapshot.
  EXPECT_EQ(hub->epoch(), epoch_before);
  EXPECT_EQ(hub->publishes(), publishes_before);
  const auto after = bed.dataplane.inject_batch_on(0, probe);
  expect_batches_equal(before, after, /*step=*/0);
  EXPECT_EQ(before.snapshot_epoch, after.snapshot_epoch);
  EXPECT_EQ(before.table_generation, after.table_generation);

  // The retry (no fault armed) publishes exactly once.
  auto retried = bed.controller.link_single(program_source("cache", "doomed"));
  ASSERT_TRUE(retried.ok()) << retried.error().str();
  EXPECT_EQ(hub->epoch(), epoch_before + 1);
  EXPECT_EQ(hub->publishes(), publishes_before + 1);
}

// Controller::write_memory reaches every pipe, not only the master: on a
// 1-shard bed, lb's port pool set through the control plane steers shard
// traffic exactly as it steers master traffic.
TEST(SnapshotWriteMemory, WriteMemoryReachesShardPipes) {
  Bed bed;
  bed.dataplane.enable_sharding(1);
  apps::ProgramConfig config;
  config.instance_name = "lb";
  config.mem_buckets = 4;
  auto linked = bed.controller.link_single(apps::make_program_source("lb", config));
  ASSERT_TRUE(linked.ok()) << linked.error().str();
  for (MemAddr b = 0; b < 4; ++b) {
    ASSERT_TRUE(bed.controller.write_memory(linked.value().id, "port_pool", b, 1).ok());
  }

  // lb claims 10.0/16 destinations; a port pool of all 1s forwards every
  // packet to port 1 (a pipe that missed the write would pick port 0).
  std::vector<rmt::Packet> pkts;
  for (Word i = 0; i < 16; ++i) {
    rmt::Packet pkt = udp_packet(0, 0, 5000);
    pkt.ipv4->src = 0x0b000000u + i;
    pkt.ipv4->dst = 0x0a000100u + i;
    pkts.push_back(pkt);
  }
  const auto shard = bed.dataplane.inject_batch_on(0, pkts);
  EXPECT_EQ(shard.forwarded, pkts.size());
  EXPECT_EQ(bed.dataplane.shard_pipeline(0).port_counters(1).packets, pkts.size());
  EXPECT_EQ(bed.dataplane.shard_pipeline(0).port_counters(0).packets, 0u);

  const auto master = bed.dataplane.inject_batch(pkts);
  EXPECT_EQ(master.forwarded, pkts.size());
  EXPECT_EQ(bed.dataplane.pipeline().port_counters(1).packets, pkts.size());
}

// Deploy under fire: shard workers inject batches nonstop while the control
// plane churns installs and removes through the async writer. Every batch
// must complete against exactly one snapshot — all of its packets claimed
// by the marker program or none of them — with per-shard epochs monotone.
// Runs under TSan in CI.
TEST(SnapshotDeployUnderFire, BatchesNeverStallOrTearAcrossCommits) {
  constexpr int kShards = 2;
  constexpr int kBatch = 64;
  constexpr int kRounds = 6;

  Bed bed;
  bed.dataplane.enable_sharding(kShards);
  bed.controller.set_async_writes(true);

  const std::string marker_source = program_source("cache", "marker");
  std::vector<rmt::Packet> pkts;
  for (int i = 0; i < kBatch; ++i) pkts.push_back(udp_packet(1, 0x8888, 7777));

  struct ShardStats {
    std::uint64_t batches = 0;
    std::uint64_t claimed_batches = 0;    // all kBatch packets returned
    std::uint64_t unclaimed_batches = 0;  // all kBatch packets forwarded
    std::uint64_t torn_batches = 0;       // anything in between
    std::uint64_t epoch_regressions = 0;
  };
  std::vector<ShardStats> stats(kShards);
  std::atomic<bool> stop{false};
  // Live tallies so the churn loop can hold each phase until the workers
  // actually observed it (on a loaded 1-core host a fixed-length phase can
  // pass without any worker getting a scheduler slot).
  std::atomic<std::uint64_t> live_claimed{0};
  std::atomic<std::uint64_t> live_unclaimed{0};

  std::vector<std::thread> workers;
  workers.reserve(kShards);
  for (int s = 0; s < kShards; ++s) {
    workers.emplace_back([&, s] {
      ShardStats local;
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto r = bed.dataplane.inject_batch_on(s, pkts);
        ++local.batches;
        if (r.returned == kBatch) {
          ++local.claimed_batches;
          live_claimed.fetch_add(1, std::memory_order_relaxed);
        } else if (r.forwarded == kBatch) {
          ++local.unclaimed_batches;
          live_unclaimed.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++local.torn_batches;  // a batch split across two snapshots
        }
        if (r.snapshot_epoch < last_epoch) ++local.epoch_regressions;
        last_epoch = r.snapshot_epoch;
      }
      stats[static_cast<std::size_t>(s)] = local;
    });
  }

  // Yield until `tally` grows past `floor`, bounded so a genuine stall
  // cannot hang the test (the final EXPECTs then report what was missed).
  const auto await_observation = [](const std::atomic<std::uint64_t>& tally,
                                    std::uint64_t floor) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (tally.load(std::memory_order_relaxed) <= floor &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };

  // Control churn: the marker program comes and goes every round while
  // filler programs (on ports the marker traffic never hits) keep the
  // writer busy with installs and removes. Failures only break the loop —
  // the workers must be joined before any ASSERT can end the test body.
  std::string churn_error;
  for (int round = 0; round < kRounds && churn_error.empty(); ++round) {
    auto marker = bed.controller.link_single(marker_source);
    if (!marker.ok()) {
      churn_error = marker.error().str();
      break;
    }
    await_observation(live_claimed, live_claimed.load());
    std::vector<ProgramId> fillers;
    for (int i = 0; i < 4; ++i) {
      auto filler = bed.controller.link_single(program_source(
          "cache", "filler" + std::to_string(i),
          static_cast<Word>(6001 + i)));
      if (!filler.ok()) {
        churn_error = filler.error().str();
        break;
      }
      fillers.push_back(filler.value().id);
    }
    for (const ProgramId id : fillers) {
      if (!bed.controller.revoke(id).ok()) churn_error = "filler revoke failed";
    }
    if (!bed.controller.revoke(marker.value().id).ok()) {
      churn_error = "marker revoke failed";
    }
    await_observation(live_unclaimed, live_unclaimed.load());
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  ASSERT_TRUE(churn_error.empty()) << churn_error;

  std::uint64_t batches = 0, claimed = 0, unclaimed = 0;
  for (const auto& s : stats) {
    EXPECT_EQ(s.torn_batches, 0u) << "a batch saw two snapshots";
    EXPECT_EQ(s.epoch_regressions, 0u) << "snapshot epochs went backwards";
    EXPECT_GT(s.batches, 0u) << "a shard stalled";
    batches += s.batches;
    claimed += s.claimed_batches;
    unclaimed += s.unclaimed_batches;
  }
  EXPECT_EQ(batches, claimed + unclaimed);
  // Traffic flowed during the churn and observed both sides of a commit
  // boundary: snapshots with the marker live and snapshots without it.
  EXPECT_GT(claimed, 0u);
  EXPECT_GT(unclaimed, 0u);

  bed.dataplane.disable_sharding();

  // The books balance once quiesced: no program left behind.
  EXPECT_EQ(bed.controller.program_count(), 0u);
}

}  // namespace
}  // namespace p4runpro
