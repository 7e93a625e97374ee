// Resource manager (paper §3.1): maintains dynamic resource usage — free
// memory partitions per RPB (doubly-linked free lists, continuous
// allocation only), free table entries per RPB — plus the per-program
// allocation records used for virtual->physical address translation and
// memory monitoring.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "dataplane/dataplane_spec.h"
#include "dataplane/runpro_dataplane.h"

namespace p4runpro::obs {
struct Telemetry;
}

namespace p4runpro::ctrl {

/// A contiguous physical memory block inside one RPB's stage memory.
struct MemBlock {
  std::uint32_t base = 0;
  std::uint32_t size = 0;

  friend bool operator==(const MemBlock&, const MemBlock&) = default;
};

/// Where one virtual memory block of a program landed.
struct VmemPlacement {
  int rpb = 0;  // physical RPB id (1-based)
  MemBlock block;

  friend bool operator==(const VmemPlacement&, const VmemPlacement&) = default;
};

class ResourceManager {
 public:
  explicit ResourceManager(const dp::DataplaneSpec& spec);

  // --- allocator-facing snapshot ---------------------------------------

  /// Immutable view of free resources used by the allocation solver. The
  /// solver runs against the snapshot; commits go through the manager.
  struct Snapshot {
    std::vector<std::uint32_t> free_entries;            // [rpb-1]
    std::vector<std::vector<MemBlock>> free_mem;        // [rpb-1], sorted by base

    /// Can `sizes` all be carved (first-fit, in order) out of the given
    /// RPB's free list?
    [[nodiscard]] bool can_allocate(int rpb, std::span<const std::uint32_t> sizes) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

  // --- committing -------------------------------------------------------

  /// First-fit allocation of a contiguous block; fails when no free
  /// partition is large enough (external fragmentation, §7).
  Result<MemBlock> allocate_memory(int rpb, std::uint32_t size);
  /// Return a block to the free list, coalescing with neighbours.
  void free_memory(int rpb, const MemBlock& block);
  /// Carve a *specific* block back out of the free list (rollback of a
  /// revoke transaction: the freed block must return to exactly its old
  /// place so the pre-transaction occupancy is byte-identical). Fails with
  /// Conflict when any part of the range has been re-allocated meanwhile —
  /// impossible under the commit lock, so a failure indicates a journal bug.
  Status reclaim_block(int rpb, const MemBlock& block);
  /// Take a block out of circulation during program termination; it stays
  /// unavailable until `unlock_memory` (lock-and-reset, Fig. 6 step 4).
  void lock_memory(int rpb, const MemBlock& block);
  void unlock_memory(int rpb, const MemBlock& block);

  Status reserve_entries(int rpb, std::uint32_t count);
  void release_entries(int rpb, std::uint32_t count);

  // --- per-program records ----------------------------------------------

  void record_program(ProgramId id, std::map<std::string, VmemPlacement> placements);
  void erase_program(ProgramId id);
  [[nodiscard]] const std::map<std::string, VmemPlacement>* program_placements(
      ProgramId id) const;

  /// Control-plane memory access with virtual->physical translation
  /// (paper §3.2): read/write bucket `vaddr` of `vmem` of program `id`.
  /// Reads come from the master pipe; writes reach every pipe (the master
  /// and each shard's register memory), as RunproDataplane::apply does.
  [[nodiscard]] Result<Word> read_virtual(const dp::RunproDataplane& dataplane,
                                          ProgramId id, const std::string& vmem,
                                          MemAddr vaddr) const;
  Status write_virtual(dp::RunproDataplane& dataplane, ProgramId id,
                       const std::string& vmem, MemAddr vaddr, Word value) const;

  // --- utilization metrics (Fig. 8 / 18 / 19) ----------------------------

  [[nodiscard]] std::uint32_t entries_used(int rpb) const;
  [[nodiscard]] std::uint32_t memory_used(int rpb) const;
  [[nodiscard]] double total_entry_utilization() const;
  [[nodiscard]] double total_memory_utilization() const;
  [[nodiscard]] const dp::DataplaneSpec& spec() const noexcept { return spec_; }

  /// Programs with a virtual memory pinned on this RPB — i.e. how many
  /// programs occupy the stage's SALU and hash unit (one of each per stage).
  [[nodiscard]] std::uint32_t stateful_programs(int rpb) const;

  /// External fragmentation of one RPB's stage memory: free words minus the
  /// largest free block — the words that exist but cannot serve a maximal
  /// contiguous request (§7; the defrag pass drives this toward zero).
  [[nodiscard]] std::uint64_t fragmentation_words(int rpb) const;
  [[nodiscard]] std::uint64_t total_fragmentation_words() const;
  /// Largest contiguous free block of one RPB (0 when fully used).
  [[nodiscard]] std::uint32_t largest_free_block(int rpb) const;

  /// Publish per-stage occupancy gauges ("ctrl.rpb.NN.{tcam_used,sram_used,
  /// salu_programs,hash_programs}") and the total-utilization gauges as
  /// sampled probes of `telemetry`'s registry; the manager stays the source
  /// of truth. The destructor unregisters.
  void attach_telemetry(obs::Telemetry* telemetry);

  ~ResourceManager();
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

 private:
  [[nodiscard]] std::list<MemBlock>& free_list(int rpb);
  [[nodiscard]] const std::list<MemBlock>& free_list(int rpb) const;
  void insert_coalesced(std::list<MemBlock>& list, MemBlock block);
  /// Feed the health monitor's stage-occupancy watermark rules on every
  /// entry reserve/release (no-op without attached telemetry).
  void push_occupancy(int rpb, std::uint32_t used);

  dp::DataplaneSpec spec_;
  obs::Telemetry* telemetry_ = nullptr;
  std::vector<std::list<MemBlock>> free_mem_;       // [rpb-1]
  std::vector<std::uint32_t> entries_used_;         // [rpb-1]
  std::vector<std::uint32_t> memory_used_;          // [rpb-1]
  std::map<ProgramId, std::map<std::string, VmemPlacement>> programs_;
};

}  // namespace p4runpro::ctrl
