// Immutable copy of every compiled match table in the data plane, published
// to shard readers by the control plane (RCU-style; see SnapshotHub). A
// snapshot freezes:
//   - the five init-block filtering tables (packet -> program claim),
//   - every RPB's match-action table (compiled ternary buckets, priorities,
//     action bindings — the RpbAction payloads live inside the copied
//     entries, so the bucket spans a shard's RPB chain plans point at stay
//     valid for the snapshot's whole grace period),
//   - the recirculation table,
//   - the table trace id / generation of the control operation that
//     produced it (satellite of note_table_update: the values travel with
//     the snapshot, so a packet observation always names the exact table
//     state it matched against, never a racy pipeline member).
// Register memory, counters and compiled chain plans are NOT part of a
// snapshot: they are per-shard mutable state (one StageMemory per pipe per
// stage, one plan set per pipe per chain).
//
// After construction a snapshot is never mutated, and table lookups write
// no table state (see rmt/tables.h), so concurrent reads are free of data
// races.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dataplane/init_block.h"
#include "dataplane/recirc_block.h"
#include "dataplane/rpb.h"

namespace p4runpro::dp {

struct TableSnapshot {
  /// Deep-copies the master tables (the control plane's mutable copies)
  /// into frozen storage. `trace` / `generation` are the note_table_update
  /// values of the control operation publishing this snapshot.
  TableSnapshot(const InitBlock& init, const std::vector<std::shared_ptr<Rpb>>& rpbs,
                const RecircBlock& recirc, std::uint64_t trace,
                std::uint64_t generation);

  /// Unique, monotonically increasing publish id, assigned by the hub at
  /// publish time (0 = never published). Epochs never repeat, which is what
  /// lets a shard's RPBs tell a new snapshot from an old one at a reused
  /// address (Rpb::bind_table), so its chain plans never outlive their
  /// snapshot.
  std::uint64_t epoch = 0;

  /// Causal trace id of the control operation whose tables these are, and
  /// the table generation it bumped (see rmt::Pipeline::note_table_update).
  std::uint64_t table_trace = 0;
  std::uint64_t table_generation = 0;

  std::array<FilterTable, kNumParsePaths> filters;
  std::vector<RpbTable> rpb_tables;  ///< index i -> physical RPB id i+1
  rmt::TernaryTable<bool, 2> recirc;
};

}  // namespace p4runpro::dp
