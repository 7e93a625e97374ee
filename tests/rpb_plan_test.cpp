// RPB chain plans (dataplane/rpb_chain.h) against a per-stage naive-scan
// reference. The reference keeps its own copy of every stage's entries and,
// for each claimed packet, scans each stage in chain order for the best
// match (priority desc, insertion order asc) and applies its operation —
// no buckets, no tuple space, no plan.
//
//  - randomized: entries keyed on program, branch, recirc and registers
//    (BRANCH cases keyed on Har/Sar), some with a wildcard program key,
//    inserted and erased through Rpb::table() between packets;
//  - register-keyed BRANCH cases with a fixed expected outcome;
//  - snapshot rebinds: the chain follows bound snapshot tables (also a new
//    snapshot at a reused address), ignores master writes while bound, and
//    returns to the master tables on unbind;
//  - concurrent (TSan): shard workers recompile plans on every rebind while
//    the control thread rewrites the tables and publishes snapshots.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "dataplane/rpb.h"
#include "dataplane/rpb_chain.h"
#include "dataplane/runpro_dataplane.h"
#include "rmt/phv.h"
#include "rmt/tables.h"

namespace p4runpro {
namespace {

using rmt::TernaryKey;
using Keys = std::array<TernaryKey, dp::kRpbKeyWidth>;

// --- per-stage naive-scan reference ---------------------------------------

struct RefEntry {
  Keys keys;
  int priority = 0;
  rmt::EntryHandle handle = 0;  // handle in the real table; insertion order
  dp::RpbAction action;
};
using RefStage = std::vector<RefEntry>;

const RefEntry* ref_winner(const RefStage& stage, const std::array<Word, dp::kRpbKeyWidth>& fields) {
  const RefEntry* best = nullptr;
  for (const RefEntry& e : stage) {
    bool hit = true;
    for (std::size_t i = 0; i < fields.size(); ++i) hit = hit && e.keys[i].matches(fields[i]);
    if (!hit) continue;
    if (best == nullptr || e.priority > best->priority ||
        (e.priority == best->priority && e.handle < best->handle)) {
      best = &e;
    }
  }
  return best;
}

/// The operations the randomized entries use, executed independently of
/// Rpb::execute.
void ref_execute(const dp::AtomicOp& op, rmt::Phv& phv) {
  switch (op.kind) {
    case dp::OpKind::Loadi:
      phv.set_reg(op.reg0, op.imm);
      return;
    case dp::OpKind::Add:
      phv.set_reg(op.reg0, phv.reg(op.reg0) + phv.reg(op.reg1));
      return;
    case dp::OpKind::Xor:
      phv.set_reg(op.reg0, phv.reg(op.reg0) ^ phv.reg(op.reg1));
      return;
    case dp::OpKind::Nop:
    case dp::OpKind::Branch:
      return;
    default:
      FAIL() << "reference does not model " << op.str();
  }
}

void ref_process(const std::vector<RefStage>& stages, rmt::Phv& phv) {
  if (phv.program_id == 0) return;
  for (const RefStage& stage : stages) {
    const std::array<Word, dp::kRpbKeyWidth> fields = {
        static_cast<Word>(phv.program_id), static_cast<Word>(phv.branch_id),
        static_cast<Word>(phv.recirc_id),  phv.reg(Reg::Har),
        phv.reg(Reg::Sar),                 phv.reg(Reg::Mar)};
    const RefEntry* winner = ref_winner(stage, fields);
    if (winner == nullptr) {
      ++phv.pkt_table_misses;
      continue;
    }
    ++phv.pkt_table_hits;
    ref_execute(winner->action.op, phv);
    if (winner->action.next_branch) phv.branch_id = *winner->action.next_branch;
  }
}

// --- bed: N RPBs in one chain plus the reference's copy of their tables ----

struct PlanBed {
  explicit PlanBed(int stages) {
    std::vector<std::shared_ptr<dp::Rpb>> chain_rpbs;
    for (int i = 1; i <= stages; ++i) {
      auto rpb = std::make_shared<dp::Rpb>(i, /*ingress=*/true, 64, 4096);
      rpb->set_stage_stats(&stats);
      rpbs.push_back(rpb);
      chain_rpbs.push_back(std::move(rpb));
    }
    chain = std::make_unique<dp::RpbChain>(std::move(chain_rpbs), &stats);
    master.resize(static_cast<std::size_t>(stages));
  }

  void insert(std::size_t stage, const Keys& keys, int priority, dp::RpbAction action) {
    auto handle = rpbs[stage]->table().insert(keys, priority, action);
    ASSERT_TRUE(handle.ok());
    master[stage].push_back({keys, priority, handle.value(), action});
  }

  void erase_at(std::size_t stage, std::size_t index) {
    ASSERT_TRUE(rpbs[stage]->table().erase(master[stage][index].handle));
    master[stage].erase(master[stage].begin() + static_cast<std::ptrdiff_t>(index));
  }

  /// Runs `phv` through the chain and a copy through the reference (over
  /// `view`), and checks they agree on every packet-visible outcome.
  void check(const rmt::Phv& phv, const std::vector<RefStage>& view, int at) {
    rmt::Phv got = phv;
    rmt::Phv want = phv;
    const rmt::StageStats before = stats;
    chain->process(got);
    ref_process(view, want);
    EXPECT_EQ(got.reg(Reg::Har), want.reg(Reg::Har)) << "at " << at;
    EXPECT_EQ(got.reg(Reg::Sar), want.reg(Reg::Sar)) << "at " << at;
    EXPECT_EQ(got.reg(Reg::Mar), want.reg(Reg::Mar)) << "at " << at;
    EXPECT_EQ(got.branch_id, want.branch_id) << "at " << at;
    EXPECT_EQ(got.pkt_table_hits, want.pkt_table_hits) << "at " << at;
    EXPECT_EQ(got.pkt_table_misses, want.pkt_table_misses) << "at " << at;
    EXPECT_EQ(stats.table_hits - before.table_hits, want.pkt_table_hits) << "at " << at;
    EXPECT_EQ(stats.table_misses - before.table_misses, want.pkt_table_misses)
        << "at " << at;
  }

  rmt::StageStats stats;
  std::vector<std::shared_ptr<dp::Rpb>> rpbs;
  std::unique_ptr<dp::RpbChain> chain;
  std::vector<RefStage> master;
};

constexpr ProgramId kPrograms = 5;

Keys random_keys(std::mt19937& rng) {
  Keys keys;
  keys.fill(TernaryKey::any());
  // One entry in ten matches every program (wildcard program key).
  if (rng() % 10 != 0) {
    keys[dp::kKeyProgram] = TernaryKey::exact(1 + static_cast<Word>(rng() % kPrograms));
  }
  if (rng() % 3 != 0) keys[dp::kKeyBranch] = TernaryKey::exact(rng() % 3);
  if (rng() % 2 != 0) keys[dp::kKeyRecirc] = TernaryKey::exact(rng() % 2);
  switch (rng() % 4) {  // BRANCH-style register keys
    case 0: keys[dp::kKeyHar] = TernaryKey{static_cast<Word>(rng() % 4), 0x3u}; break;
    case 1: keys[dp::kKeySar] = TernaryKey{static_cast<Word>(rng() % 2), 0x1u}; break;
    default: break;
  }
  return keys;
}

dp::RpbAction random_action(std::mt19937& rng, const Keys& keys) {
  dp::RpbAction action;
  switch (rng() % 6) {
    case 0: action.op = dp::AtomicOp::loadi(Reg::Har, rng() % 8); break;
    case 1: action.op = dp::AtomicOp::loadi(Reg::Sar, rng() % 4); break;
    case 2: action.op = dp::AtomicOp::alu(dp::OpKind::Add, Reg::Har, Reg::Sar); break;
    case 3: action.op = dp::AtomicOp::alu(dp::OpKind::Xor, Reg::Mar, Reg::Har); break;
    case 4: action.op = dp::AtomicOp::branch(); break;
    default: action.op = dp::AtomicOp::nop(); break;
  }
  if (rng() % 5 < 2) action.next_branch = static_cast<BranchId>(rng() % 3);
  // Entry generation tags entries with their program; wildcard-program
  // entries stay untagged.
  if (keys[dp::kKeyProgram].mask != 0) {
    action.owner = static_cast<ProgramId>(keys[dp::kKeyProgram].value);
  }
  return action;
}

rmt::Phv random_phv(std::mt19937& rng) {
  rmt::Phv phv;
  phv.program_id = static_cast<ProgramId>(rng() % (kPrograms + 1));  // 0 = unclaimed
  phv.branch_id = static_cast<BranchId>(rng() % 3);
  phv.recirc_id = static_cast<RecircId>(rng() % 2);
  phv.set_reg(Reg::Har, rng() % 8);
  phv.set_reg(Reg::Sar, rng() % 4);
  return phv;
}

/// Random inserts and erases through Rpb::table(), `writes` of them.
void churn(PlanBed& bed, std::mt19937& rng, int writes) {
  for (int w = 0; w < writes; ++w) {
    const std::size_t stage = rng() % bed.master.size();
    if (rng() % 5 < 3 || bed.master[stage].empty()) {
      const Keys keys = random_keys(rng);
      bed.insert(stage, keys, static_cast<int>(rng() % 3), random_action(rng, keys));
    } else {
      bed.erase_at(stage, rng() % bed.master[stage].size());
    }
  }
}

// --- tests -----------------------------------------------------------------

TEST(RpbPlan, RandomizedDifferentialAgainstPerStageScan) {
  PlanBed bed(6);
  std::mt19937 rng(4242);
  int at = 0;
  for (int round = 0; round < 300; ++round) {
    // Between packets: a few writes, sometimes none (plans stay compiled).
    churn(bed, rng, round % 4 == 0 ? 0 : static_cast<int>(rng() % 4));
    for (int p = 0; p < 20; ++p) bed.check(random_phv(rng), bed.master, at++);
  }
  std::size_t entries = 0;
  for (const auto& stage : bed.master) entries += stage.size();
  EXPECT_GT(entries, 50u);  // the churn left real tables behind
}

TEST(RpbPlan, RegisterKeyedBranchCasesSelectTheirCaseBody) {
  // Stage 1: a BRANCH on (Har & 3), earlier cases at higher priority, with
  // a default case. Stages 2-3: each case body keyed on its branch id.
  // Stage 4: a second BRANCH on Sar's low bit that only branch 2 reaches.
  PlanBed bed(4);
  constexpr ProgramId kProgram = 3;
  const auto base = [] {
    Keys keys;
    keys.fill(TernaryKey::any());
    keys[dp::kKeyProgram] = TernaryKey::exact(kProgram);
    keys[dp::kKeyRecirc] = TernaryKey::exact(0);
    return keys;
  };
  const auto tagged = [](dp::AtomicOp op, std::optional<BranchId> next = {}) {
    return dp::RpbAction{op, next, kProgram};
  };
  for (Word c = 0; c < 2; ++c) {
    Keys keys = base();
    keys[dp::kKeyBranch] = TernaryKey::exact(0);
    keys[dp::kKeyHar] = TernaryKey{c, 0x3u};
    bed.insert(0, keys, 2 - static_cast<int>(c),
               tagged(dp::AtomicOp::branch(), static_cast<BranchId>(c + 1)));
  }
  Keys fallback = base();
  fallback[dp::kKeyBranch] = TernaryKey::exact(0);
  bed.insert(0, fallback, 0, tagged(dp::AtomicOp::branch(), BranchId{3}));
  for (Word b = 1; b <= 3; ++b) {
    Keys keys = base();
    keys[dp::kKeyBranch] = TernaryKey::exact(b);
    bed.insert(1, keys, 0, tagged(dp::AtomicOp::loadi(Reg::Mar, 10 * b)));
    if (b != 3) bed.insert(2, keys, 0, tagged(dp::AtomicOp::alu(dp::OpKind::Add, Reg::Mar, Reg::Har)));
  }
  Keys odd = base();
  odd[dp::kKeyBranch] = TernaryKey::exact(2);
  odd[dp::kKeySar] = TernaryKey{1, 0x1u};
  bed.insert(3, odd, 0, tagged(dp::AtomicOp::loadi(Reg::Sar, 99), BranchId{0}));

  struct Case {
    Word har, sar;
    BranchId branch;
    Word mar, sar_out;
    std::uint32_t hits;
  };
  const Case cases[] = {
      {4, 0, 1, 10 + 4, 0, 3},   // Har & 3 == 0 -> case 1
      {5, 1, 2, 20 + 5, 99, 4},  // Har & 3 == 1 -> case 2, odd Sar -> stage 4
      {9, 0, 2, 20 + 9, 0, 3},   // case 2, even Sar: stage 4 misses
      {7, 1, 3, 30, 1, 2},       // default case: no stage-3 body
  };
  for (int round = 0; round < 2; ++round) {  // second round reuses the plan
    for (const Case& c : cases) {
      rmt::Phv phv;
      phv.program_id = kProgram;
      phv.set_reg(Reg::Har, c.har);
      phv.set_reg(Reg::Sar, c.sar);
      bed.check(phv, bed.master, static_cast<int>(c.har));
      bed.chain->process(phv);
      EXPECT_EQ(phv.branch_id, c.sar_out == 99 ? BranchId{0} : c.branch) << c.har;
      EXPECT_EQ(phv.reg(Reg::Mar), c.mar) << c.har;
      EXPECT_EQ(phv.reg(Reg::Sar), c.sar_out) << c.har;
      EXPECT_EQ(phv.pkt_table_hits, c.hits) << c.har;
      EXPECT_EQ(phv.pkt_table_hits + phv.pkt_table_misses, 4u) << c.har;
    }
  }
}

TEST(RpbPlan, SnapshotRebindsRecompilePlans) {
  PlanBed bed(5);
  std::mt19937 rng(777);
  churn(bed, rng, 120);

  std::vector<dp::RpbTable> snapshot;
  std::vector<RefStage> frozen;
  std::uint64_t epoch = 0;
  const auto publish_and_bind = [&] {
    // Copy-assign in place when the storage exists, so later snapshots
    // reuse the earlier ones' addresses and only the epoch tells them apart.
    if (snapshot.empty()) {
      for (const auto& rpb : bed.rpbs) snapshot.push_back(rpb->table());
    } else {
      for (std::size_t i = 0; i < bed.rpbs.size(); ++i) snapshot[i] = bed.rpbs[i]->table();
    }
    frozen = bed.master;
    ++epoch;
    for (std::size_t i = 0; i < bed.rpbs.size(); ++i) {
      bed.rpbs[i]->bind_table(&snapshot[i], epoch);
    }
  };

  int at = 0;
  for (int round = 0; round < 40; ++round) {
    publish_and_bind();
    for (int p = 0; p < 20; ++p) bed.check(random_phv(rng), frozen, at++);
    // Master writes while bound: traffic keeps matching the snapshot.
    churn(bed, rng, 6);
    for (int p = 0; p < 20; ++p) bed.check(random_phv(rng), frozen, at++);
    // Re-binding the same snapshot is not a change.
    for (std::size_t i = 0; i < bed.rpbs.size(); ++i) {
      bed.rpbs[i]->bind_table(&snapshot[i], epoch);
    }
    for (int p = 0; p < 5; ++p) bed.check(random_phv(rng), frozen, at++);
    if (round % 5 == 4) {
      // Unbind: back to the (since mutated) master tables.
      for (const auto& rpb : bed.rpbs) rpb->bind_table(nullptr, 0);
      for (int p = 0; p < 20; ++p) bed.check(random_phv(rng), bed.master, at++);
    }
  }
}

// Shard workers rebind (and so recompile their plans) at every new epoch
// while the control thread flips a program between two plan shapes and
// publishes: every batch sees exactly one of them.
TEST(RpbPlan, ShardPlansFollowPublishesUnderConcurrentCommits) {
  constexpr int kShards = 2;
  constexpr int kBatch = 32;
  constexpr int kFlips = 40;
  constexpr ProgramId kProgram = 1;

  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ASSERT_TRUE(dataplane.init_block()
                  .install(kProgram, {{rmt::FieldId::UdpDstPort, 4321, 0xffffu}}, 0)
                  .ok());
  Keys keys;
  keys.fill(TernaryKey::any());
  keys[dp::kKeyProgram] = TernaryKey::exact(kProgram);
  // Shape A: RPB 1 loads Har, RPB 2 forwards. Shape B: RPB 4 drops.
  const auto install_a = [&] {
    std::vector<rmt::EntryHandle> handles;
    handles.push_back(dataplane.rpb(1).table()
                          .insert(keys, 0, {dp::AtomicOp::loadi(Reg::Har, 5), {}, kProgram})
                          .value());
    handles.push_back(dataplane.rpb(2).table()
                          .insert(keys, 0, {dp::AtomicOp::forward(2), {}, kProgram})
                          .value());
    return handles;
  };
  std::vector<rmt::EntryHandle> shape_a = install_a();
  rmt::EntryHandle shape_b = 0;
  dataplane.enable_sharding(kShards);

  rmt::Packet pkt;
  pkt.ipv4 = rmt::Ipv4Header{.src = 0x0a000001, .dst = 0x0a000002, .proto = 17};
  pkt.udp = rmt::UdpHeader{.src_port = 1000, .dst_port = 4321};
  pkt.ingress_port = 1;
  const std::vector<rmt::Packet> pkts(kBatch, pkt);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> forwarded_batches{0};
  std::atomic<std::uint64_t> dropped_batches{0};
  std::atomic<std::uint64_t> torn_batches{0};
  std::vector<std::thread> workers;
  for (int s = 0; s < kShards; ++s) {
    workers.emplace_back([&, s] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto r = dataplane.inject_batch_on(s, pkts);
        if (r.forwarded == kBatch) {
          forwarded_batches.fetch_add(1, std::memory_order_relaxed);
        } else if (r.dropped == kBatch) {
          dropped_batches.fetch_add(1, std::memory_order_relaxed);
        } else {
          torn_batches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const auto await_growth = [](const std::atomic<std::uint64_t>& tally) {
    const std::uint64_t floor = tally.load();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (tally.load() <= floor && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };

  std::uint64_t trace = 1;
  for (int flip = 0; flip < kFlips; ++flip) {
    if (flip % 2 == 0) {  // A -> B
      for (int i = 0; i < 2; ++i) dataplane.rpb(i + 1).table().erase(shape_a[i]);
      shape_b = dataplane.rpb(4).table()
                    .insert(keys, 0, {dp::AtomicOp::drop(), {}, kProgram})
                    .value();
      dataplane.note_table_update(++trace);
      await_growth(dropped_batches);
    } else {  // B -> A
      dataplane.rpb(4).table().erase(shape_b);
      shape_a = install_a();
      dataplane.note_table_update(++trace);
      await_growth(forwarded_batches);
    }
  }
  stop = true;
  for (auto& w : workers) w.join();
  dataplane.disable_sharding();

  EXPECT_EQ(torn_batches.load(), 0u);
  EXPECT_GT(forwarded_batches.load(), 0u);
  EXPECT_GT(dropped_batches.load(), 0u);
}

}  // namespace
}  // namespace p4runpro
