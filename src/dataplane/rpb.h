// Runtime programming block: one per pipeline stage (except the stages the
// initialization and recirculation blocks occupy). An RPB is "a large table
// with the keys of control flags and registers and the actions implementing
// the atomic operations" (paper §5), plus this stage's stateful memory and
// hash unit.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/types.h"
#include "dataplane/atomic_op.h"
#include "rmt/crc.h"
#include "rmt/memory.h"
#include "rmt/pipeline.h"
#include "rmt/tables.h"

namespace p4runpro::dp {

/// Action payload of an RPB entry: the atomic operation plus an optional
/// branch-id transition (BRANCH case entries and the case-body rejoin).
/// `owner` tags the entry with the program it belongs to (entry->program
/// mapping for attribution); entry generation sets it, and because RPB
/// entries match exactly on the program-id key it always equals the
/// claiming packet's program id. 0 means untagged (hand-built entries).
struct RpbAction {
  AtomicOp op;
  std::optional<BranchId> next_branch;
  ProgramId owner = 0;
};

/// Exact/ternary key layout of the RPB table, in order.
enum RpbKeyField : int {
  kKeyProgram = 0,
  kKeyBranch = 1,
  kKeyRecirc = 2,
  kKeyHar = 3,
  kKeySar = 4,
  kKeyMar = 5,
};
inline constexpr int kRpbKeyWidth = 6;

/// The RPB's table type: key width fixed at compile time so every entry
/// stores its keys inline (no per-entry heap hop on the lookup path).
using RpbTable = rmt::TernaryTable<RpbAction, kRpbKeyWidth>;

class Rpb final : public rmt::PipelineStage {
 public:
  /// `physical_id` is 1-based over all RPBs (ingress then egress); the hash
  /// unit algorithm cycles through the four CRC-16 variants per stage so
  /// that multi-row sketches get independent hash functions (Fig. 13d).
  Rpb(int physical_id, bool ingress, std::uint32_t memory_size,
      std::uint32_t table_capacity);

  /// Per-stage reference path: find this program's bucket span in the
  /// table lookups read, then run the same step routine the chain's plans
  /// run (see RpbChain).
  void process(rmt::Phv& phv) override;

  /// One match-action step for a claimed packet: the first entry of
  /// `entries` (this program's bucket span, in lookup order) that matches,
  /// bettered by `wildcards`' tuple-space search when that table holds
  /// non-exact-first-key entries (nullptr otherwise), then the winner's
  /// operation. A miss counts one table miss, as any stage without a match.
  void step(std::span<const RpbTable::Entry> entries, const RpbTable* wildcards,
            rmt::Phv& phv) {
    const RpbTable::Fields fields = {
        static_cast<Word>(phv.program_id), static_cast<Word>(phv.branch_id),
        static_cast<Word>(phv.recirc_id),  phv.reg(Reg::Har),
        phv.reg(Reg::Sar),                 phv.reg(Reg::Mar)};
    const RpbTable::Entry* winner = RpbTable::first_match(entries, fields);
    if (wildcards != nullptr) winner = wildcards->best_wildcard_match(fields, winner);
    if (winner == nullptr) {
      if (stats_ != nullptr) ++stats_->table_misses;
      ++phv.pkt_table_misses;
      return;
    }
    run_action(winner->action, phv);
  }

  /// Entry management (called by the update engine). Always the master
  /// table, even when a snapshot is bound: control writes never touch a
  /// published snapshot.
  RpbTable& table() noexcept { return table_; }
  [[nodiscard]] const RpbTable& table() const noexcept { return table_; }

  /// Redirect match lookups to a frozen snapshot table, tagged with the
  /// snapshot's globally unique epoch (nullptr/0 = back to the own table).
  /// Shard instances are re-bound at every batch start; a bind that changes
  /// the (table, epoch) pair counts as a write to the linked plan version,
  /// so the chain recompiles its plans against the new snapshot. The epoch
  /// is part of the check because a new snapshot may reuse a freed one's
  /// address.
  void bind_table(const RpbTable* table, std::uint64_t epoch) noexcept {
    if (table == bound_ && epoch == bound_epoch_) return;
    bound_ = table;
    bound_epoch_ = epoch;
    if (plan_version_ != nullptr) ++*plan_version_;
  }

  /// The table lookups currently read from: the bound snapshot table when
  /// sharded, the own/master table otherwise.
  [[nodiscard]] const RpbTable& read_table() const noexcept {
    return bound_ != nullptr ? *bound_ : table_;
  }

  /// Count every later write to the own table and every rebind into
  /// `*version` (nullptr unlinks). Set by the RpbChain running this RPB.
  void link_plan_version(std::uint64_t* version) noexcept {
    plan_version_ = version;
    table_.link_write_counter(version);
  }

  rmt::StageMemory& memory() noexcept { return memory_; }
  [[nodiscard]] const rmt::StageMemory& memory() const noexcept { return memory_; }

  [[nodiscard]] int physical_id() const noexcept { return physical_id_; }
  [[nodiscard]] bool is_ingress() const noexcept { return ingress_; }
  [[nodiscard]] rmt::HashAlgo hash16_algo() const noexcept { return hash16_; }

  /// Execution-counter sink (the owning pipeline's StageStats); wired once
  /// by the data plane at provisioning time.
  void set_stage_stats(rmt::StageStats* stats) noexcept { stats_ = stats; }

 private:
  /// A hit: counters, tracing, the operation and the branch transition.
  void run_action(const RpbAction& action, rmt::Phv& phv);
  void execute(const AtomicOp& op, rmt::Phv& phv);

  int physical_id_;
  bool ingress_;
  RpbTable table_;
  const RpbTable* bound_ = nullptr;
  std::uint64_t bound_epoch_ = 0;
  std::uint64_t* plan_version_ = nullptr;
  rmt::StageMemory memory_;
  rmt::HashAlgo hash16_;
  rmt::StageStats* stats_ = nullptr;
};

}  // namespace p4runpro::dp
