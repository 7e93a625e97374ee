// Differential tests for TernaryTable (exact-first-key buckets plus the
// tuple-space wildcard index) against a naive reference scan, plus
// regression tests for the fast-path machinery this table feeds:
// handle-indexed erase (touches only the owning bucket) and the RPB chain's
// compiled per-program plans (invalidated by inserts and erases; exact for
// register-keyed entries and misses).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "dataplane/rpb.h"
#include "dataplane/rpb_chain.h"
#include "rmt/phv.h"
#include "rmt/tables.h"

namespace {

using namespace p4runpro;
using rmt::TernaryKey;
using rmt::TernaryTable;

// --- naive reference model ------------------------------------------------

struct RefEntry {
  std::vector<TernaryKey> keys;
  int priority = 0;
  std::uint64_t order = 0;  // insertion order; earlier wins priority ties
  int action = 0;
};

class ReferenceTable {
 public:
  explicit ReferenceTable(int width) : width_(width) {}

  std::uint64_t insert(std::vector<TernaryKey> keys, int priority, int action) {
    RefEntry e{std::move(keys), priority, next_order_++, action};
    entries_.push_back(std::move(e));
    return entries_.back().order;
  }

  bool erase(std::uint64_t order) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].order == order) {
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::optional<int> lookup(std::span<const Word> fields) const {
    const RefEntry* best = nullptr;
    for (const RefEntry& e : entries_) {
      bool hit = true;
      for (int i = 0; i < width_; ++i) {
        if (!e.keys[static_cast<std::size_t>(i)].matches(
                fields[static_cast<std::size_t>(i)])) {
          hit = false;
          break;
        }
      }
      if (!hit) continue;
      if (best == nullptr || e.priority > best->priority ||
          (e.priority == best->priority && e.order < best->order)) {
        best = &e;
      }
    }
    if (best == nullptr) return std::nullopt;
    return best->action;
  }

 private:
  int width_;
  std::vector<RefEntry> entries_;
  std::uint64_t next_order_ = 1;
};

// --- randomized differential ----------------------------------------------

/// One randomized differential run: `ops` mixed inserts, erases and
/// lookups against the naive reference. `wildcard_share` of the inserts
/// get a non-exact first key (the tuple-space pool); the rest use the
/// exact-first-key buckets. `masks` is the per-component mask menu, so its
/// size sets how many distinct mask tuples the pool grows.
template <int kWidth>
void run_differential(std::uint32_t seed, int ops, unsigned wildcard_share_pct,
                      const std::vector<Word>& masks, Word value_range,
                      int priority_levels) {
  TernaryTable<int, kWidth> table(kWidth, 100000);
  ReferenceTable ref(kWidth);
  std::mt19937 rng(seed);

  // First-key values mix the dense-indexed range, the hash-map fallback
  // range (>= the dense limit of 4096) and small values the partial masks
  // overlap with.
  const auto random_first_value = [&]() -> Word {
    switch (rng() % 3) {
      case 0: return rng() % 6;            // dense, heavy collisions
      case 1: return 40000 + rng() % 4;    // sparse, hash-map fallback
      default: return 1000 + rng() % 8;    // dense, light collisions
    }
  };
  const auto random_mask = [&]() { return masks[rng() % masks.size()]; };

  struct Live {
    rmt::EntryHandle handle;
    std::uint64_t order;
  };
  std::vector<Live> live;
  int next_action = 0;

  for (int op = 0; op < ops; ++op) {
    // Alternate insert-heavy and erase-heavy phases so tuples and groups
    // empty out, get reused and refill.
    const bool erase_phase = (op / 500) % 3 == 2;
    const unsigned pick = rng() % 10;
    if (pick < (erase_phase ? 1u : 4u)) {  // insert
      std::vector<TernaryKey> keys;
      const bool wildcard = rng() % 100 < wildcard_share_pct;
      Word first_mask = wildcard ? random_mask() : 0xffffffffu;
      if (wildcard && first_mask == 0xffffffffu) first_mask = 0;
      keys.push_back(TernaryKey{random_first_value(), first_mask});
      for (int i = 1; i < kWidth; ++i) {
        keys.push_back(TernaryKey{static_cast<Word>(rng() % value_range), random_mask()});
      }
      // Few levels: ties abound, within a tuple, across tuples and between
      // a bucket and the pool.
      const int priority = static_cast<int>(rng() % static_cast<unsigned>(priority_levels));
      const int action = next_action++;
      auto inserted = table.insert(keys, priority, action);
      ASSERT_TRUE(inserted.ok());
      const std::uint64_t order = ref.insert(std::move(keys), priority, action);
      live.push_back({inserted.value(), order});
    } else if (pick < (erase_phase ? 7u : 6u) && !live.empty()) {  // erase
      const std::size_t victim = rng() % live.size();
      ASSERT_TRUE(table.erase(live[victim].handle));
      ASSERT_TRUE(ref.erase(live[victim].order));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {  // lookup
      std::array<Word, kWidth> fields;
      fields[0] = random_first_value();
      for (int i = 1; i < kWidth; ++i) {
        fields[static_cast<std::size_t>(i)] = rng() % value_range;
      }
      const int* got = table.lookup(fields);
      const std::optional<int> want = ref.lookup(fields);
      if (want.has_value()) {
        ASSERT_NE(got, nullptr) << "seed " << seed << " op " << op;
        // Same winner, including priority ties resolved by insertion order.
        EXPECT_EQ(*got, *want) << "seed " << seed << " op " << op;
      } else {
        EXPECT_EQ(got, nullptr) << "seed " << seed << " op " << op;
      }
    }
  }
  EXPECT_EQ(table.size(), live.size());
}

TEST(TernaryEquiv, RandomizedDifferentialAgainstNaiveScan) {
  // Exact buckets and a small pool: exact / partial / wildcard components.
  run_differential<3>(20240807, 6000, 67, {0u, 0xffffffffu, 0x7u}, 8, 4);
  // Wildcard-heavy pools with many mask tuples (6 masks over 4 components)
  // and only two priority levels, so equal-priority candidates in
  // different tuples decide by handle.
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    run_differential<4>(seed, 9000, 85, {0u, 0xffffffffu, 0x1u, 0x3u, 0x6u, 0xcu}, 16, 2);
  }
  // Filter-table shape: width 7, everything in the pool.
  run_differential<7>(77, 6000, 100, {0u, 0u, 0xffffffffu, 0xff00u}, 4, 3);
}

TEST(TernaryEquiv, EraseOfUnknownHandleIsRejected) {
  TernaryTable<int, 2> table(2, 8);
  auto h = table.insert({TernaryKey::exact(1), TernaryKey::any()}, 0, 7);
  ASSERT_TRUE(h.ok());
  EXPECT_FALSE(table.erase(h.value() + 100));
  EXPECT_TRUE(table.erase(h.value()));
  EXPECT_FALSE(table.erase(h.value()));  // double-erase
  EXPECT_EQ(table.size(), 0u);
}

// --- erase locality (satellite: no O(buckets x entries) scan) -------------

TEST(TernaryEquiv, EraseTouchesOnlyTheOwningBucket) {
  TernaryTable<int, 2> table(2, 4096);
  // 64 buckets x 8 entries, plus a wildcard pool of 8.
  std::vector<rmt::EntryHandle> handles;
  for (Word bucket = 0; bucket < 64; ++bucket) {
    for (int i = 0; i < 8; ++i) {
      auto h = table.insert({TernaryKey::exact(bucket), TernaryKey::any()}, i,
                            static_cast<int>(bucket * 8) + i);
      ASSERT_TRUE(h.ok());
      handles.push_back(h.value());
    }
  }
  for (int i = 0; i < 8; ++i) {
    auto h = table.insert({TernaryKey::any(), TernaryKey::exact(Word(i))}, 0, 1000 + i);
    ASSERT_TRUE(h.ok());
  }

  table.reset_stats();
  // Erase one entry from bucket 17: the handle->bucket locator must route
  // the scan to that bucket alone — at most the 8 entries it holds, not the
  // 520 in the table.
  ASSERT_TRUE(table.erase(handles[17 * 8 + 3]));
  const auto& stats = table.stats();
  EXPECT_EQ(stats.erase_calls, 1u);
  EXPECT_LE(stats.erase_probes, 8u);
  EXPECT_GE(stats.erase_probes, 1u);

  // Erasing from the wildcard pool scans only the pool.
  table.reset_stats();
  auto wild = table.insert({TernaryKey::any(), TernaryKey::any()}, -1, 2000);
  ASSERT_TRUE(wild.ok());
  table.reset_stats();
  ASSERT_TRUE(table.erase(wild.value()));
  EXPECT_LE(table.stats().erase_probes, 9u);  // pool held 9 entries
}

// --- RPB chain plan validity ----------------------------------------------
//
// The scenarios a cached match path must get right, driven through a
// one-RPB chain: its per-program plan is compiled once and reused, and must
// follow every insert and erase, register-keyed entries, and misses.

rmt::Phv claimed_phv(ProgramId program, BranchId branch = 0, RecircId recirc = 0) {
  rmt::Phv phv;
  phv.program_id = program;
  phv.branch_id = branch;
  phv.recirc_id = recirc;
  return phv;
}

std::array<TernaryKey, dp::kRpbKeyWidth> rpb_keys(ProgramId program) {
  std::array<TernaryKey, dp::kRpbKeyWidth> keys;
  keys.fill(TernaryKey::any());
  keys[dp::kKeyProgram] = TernaryKey::exact(program);
  keys[dp::kKeyBranch] = TernaryKey::exact(0);
  keys[dp::kKeyRecirc] = TernaryKey::exact(0);
  return keys;
}

/// One RPB run through a chain, as the data plane wires it.
struct OneStageChain {
  explicit OneStageChain(rmt::StageStats* stats = nullptr)
      : rpb(std::make_shared<dp::Rpb>(1, /*ingress=*/true, 64, 64)),
        chain(std::vector<std::shared_ptr<dp::Rpb>>{rpb}, stats) {
    rpb->set_stage_stats(stats);
  }
  std::shared_ptr<dp::Rpb> rpb;
  dp::RpbChain chain;
};

TEST(RpbMatchCache, RepeatLookupsAreServedFromTheCache) {
  rmt::StageStats stats;
  OneStageChain bed(&stats);
  auto keys = rpb_keys(1);
  ASSERT_TRUE(
      bed.rpb->table().insert(keys, 0, dp::RpbAction{dp::AtomicOp::nop(), {}, 1}).ok());

  // The first packet compiles program 1's plan, the next four reuse it.
  for (int i = 0; i < 5; ++i) {
    auto phv = claimed_phv(1);
    bed.chain.process(phv);
    EXPECT_EQ(phv.pkt_table_hits, 1u);
  }
  EXPECT_EQ(stats.table_hits, 5u);
  EXPECT_EQ(stats.table_misses, 0u);
}

TEST(RpbMatchCache, InsertBetweenLookupsInvalidatesTheCache) {
  OneStageChain bed;
  ASSERT_TRUE(bed.rpb->table()
                  .insert(rpb_keys(1), 0, dp::RpbAction{dp::AtomicOp::nop(), {}, 1})
                  .ok());
  auto phv = claimed_phv(1);
  bed.chain.process(phv);  // compile

  // A higher-priority entry for the same triple lands between lookups: the
  // version bump must force a recompile that sees the new winner.
  ASSERT_TRUE(bed.rpb->table()
                  .insert(rpb_keys(1), 10,
                          dp::RpbAction{dp::AtomicOp::loadi(Reg::Har, 42), {}, 1})
                  .ok());
  auto phv2 = claimed_phv(1);
  bed.chain.process(phv2);
  EXPECT_EQ(phv2.reg(Reg::Har), 42u);  // new entry executed
}

TEST(RpbMatchCache, EraseBetweenLookupsInvalidatesTheCache) {
  OneStageChain bed;
  auto inserted = bed.rpb->table().insert(
      rpb_keys(1), 0, dp::RpbAction{dp::AtomicOp::loadi(Reg::Har, 7), {}, 1});
  ASSERT_TRUE(inserted.ok());
  auto phv = claimed_phv(1);
  bed.chain.process(phv);
  EXPECT_EQ(phv.reg(Reg::Har), 7u);

  ASSERT_TRUE(bed.rpb->table().erase(inserted.value()));
  // A stale plan would replay the erased entry from a dangling span; the
  // version check must turn this into a clean miss instead.
  auto phv2 = claimed_phv(1);
  bed.chain.process(phv2);
  EXPECT_EQ(phv2.reg(Reg::Har), 0u);
  EXPECT_EQ(phv2.pkt_table_hits, 0u);
  EXPECT_EQ(phv2.pkt_table_misses, 1u);
}

TEST(RpbMatchCache, RegisterKeyedEntriesDisableTheCache) {
  rmt::StageStats stats;
  OneStageChain bed(&stats);
  // Branch-style entry keyed on the Sar register (nonzero mask on a
  // register component): the winner is a function of packet state, so a
  // reused plan must still match every packet against it.
  auto keys = rpb_keys(1);
  keys[dp::kKeySar] = TernaryKey{1, 0x1u};
  ASSERT_TRUE(bed.rpb->table()
                  .insert(keys, 0,
                          dp::RpbAction{dp::AtomicOp::loadi(Reg::Mar, 9), {}, 1})
                  .ok());

  for (int i = 0; i < 4; ++i) {
    auto phv = claimed_phv(1);
    phv.set_reg(Reg::Sar, static_cast<Word>(i));  // alternates match / miss
    bed.chain.process(phv);
    const bool should_match = (i & 1) == 1;
    EXPECT_EQ(phv.pkt_table_hits, should_match ? 1u : 0u) << i;
    EXPECT_EQ(phv.reg(Reg::Mar), should_match ? 9u : 0u) << i;
  }
  EXPECT_EQ(stats.table_hits, 2u);
  EXPECT_EQ(stats.table_misses, 2u);

  // And a register-keyed entry for one program must not disturb another
  // program's plan.
  ASSERT_TRUE(bed.rpb->table()
                  .insert(rpb_keys(2), 0,
                          dp::RpbAction{dp::AtomicOp::nop(), {}, 2})
                  .ok());
  for (int i = 0; i < 3; ++i) {
    auto phv = claimed_phv(2);
    bed.chain.process(phv);
    EXPECT_EQ(phv.pkt_table_hits, 1u);
  }
}

TEST(RpbMatchCache, CachedMissIsInvalidatedByLaterInsert) {
  OneStageChain bed;
  // Table non-empty but with no entry for program 5: its plan has no step,
  // and the stage's miss is counted in bulk.
  ASSERT_TRUE(bed.rpb->table()
                  .insert(rpb_keys(9), 0, dp::RpbAction{dp::AtomicOp::nop(), {}, 9})
                  .ok());
  auto phv = claimed_phv(5);
  bed.chain.process(phv);
  EXPECT_EQ(phv.pkt_table_misses, 1u);
  auto phv2 = claimed_phv(5);
  bed.chain.process(phv2);
  EXPECT_EQ(phv2.pkt_table_misses, 1u);

  // Entry for program 5 arrives: the compiled empty plan must not shadow it.
  ASSERT_TRUE(bed.rpb->table()
                  .insert(rpb_keys(5), 0, dp::RpbAction{dp::AtomicOp::nop(), {}, 5})
                  .ok());
  auto phv3 = claimed_phv(5);
  bed.chain.process(phv3);
  EXPECT_EQ(phv3.pkt_table_hits, 1u);
}

}  // namespace
