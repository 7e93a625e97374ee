// Chain transactions: the hop-wide units every control session runs
// through. A ChainTransaction deploys one program on every hop of the
// controller's hop list (a dp::SwitchChain in mirror mode, or the 1-hop
// list of a single switch) with ctrl::DeployTransaction as the per-hop
// unit; a ChainRemoval is the matching hop-wide consistent remove. Both
// keep the paper's update-consistency property end to end:
//
//   phase 1 (stage_all): per-hop reserve -> plan -> stage. Reservations and
//     op-logs are built on EVERY hop before a single control-channel write
//     lands anywhere; any hop's AllocFailed / staging error aborts the
//     whole chain with nothing but reservation churn to undo.
//   phase 2 (commit_all, or submit_all / wait_all / finish_all): execute
//     each hop's staged op-log through that hop's UpdateEngine — one hop
//     after another on inline channels, concurrently on writer threads
//     (pipelined). A channel
//     fault at ANY (hop, write index) pair unwinds: the faulted hop is
//     restored by its engine's rollback journal, and every hop committed
//     around it is un-committed (consistent remove + reservation release +
//     residual-byte restore), leaving every hop byte-identical to its
//     pre-transaction state.
//
// Residual bytes: un-committing a hop runs the consistent-remove path,
// whose lock-and-reset step zeroes the program's memory blocks — but the
// pre-transaction bytes of those (then-free) blocks were not necessarily
// zero. Whenever an un-commit is possible (more than one hop, or an
// incremental update relink may unwind), stage_all() captures the residual
// contents of every reserved block and the unwind writes them back, so the
// "byte-identical" guarantee covers free memory too.
//
// Locking discipline: single-threaded, under the controller's session lock
// from stage_all() onward — except wait_all() / ChainRemoval::wait(), which
// a parked session calls off-lock while the async writers drain.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "control/deploy_txn.h"
#include "obs/trace.h"

namespace p4runpro::ctrl {

/// One hop's execution context (pointers owned by the controller and
/// outliving the transaction).
struct ChainHop {
  dp::RunproDataplane* dataplane = nullptr;
  ResourceManager* resources = nullptr;
  UpdateEngine* updates = nullptr;
};

class ChainTransaction {
 public:
  enum class Phase : std::uint8_t {
    Solved,      ///< per-hop allocations bound, nothing reserved yet
    Staged,      ///< every hop reserved + staged, no dataplane writes yet
    Submitted,   ///< op-logs handed to the hops' channels
    Committed,   ///< op-logs executed on every hop
    RolledBack,  ///< pre-transaction state restored on every hop
  };

  /// `allocs` is positional: allocs[h] is hop h's allocation (the caller
  /// verified they agree on rounds — mirror mode). `replacing` != 0 marks
  /// an incremental update carried out per hop (see DeployTransaction).
  /// `chain_spans` selects the chain_txn.* phase spans; a single switch
  /// records only its hop's txn.* spans.
  ChainTransaction(std::vector<ChainHop> hops, const rp::TranslatedProgram& ir,
                   std::vector<rp::AllocationResult> allocs, ProgramId id,
                   int filter_priority, ProgramId replacing,
                   obs::Telemetry* telemetry, bool chain_spans = true);

  /// Abandoning an uncommitted chain transaction rolls it back (a submitted
  /// one is settled first).
  ~ChainTransaction();
  ChainTransaction(const ChainTransaction&) = delete;
  ChainTransaction& operator=(const ChainTransaction&) = delete;

  /// Phase 1: reserve, plan and stage on every hop. On any hop's failure
  /// every hop's reservations are returned and the transaction is
  /// RolledBack (faulted_hop() names the hop that failed).
  Status stage_all();

  /// Phase 2: submit every hop's op-log, then settle them in hop order. On
  /// a fault the whole chain is restored (see file comment) and the
  /// transaction is RolledBack; faulted_hop() names the hop whose write
  /// failed.
  ///
  /// An inline channel settles each hop at its submission, so the chain
  /// pays the sum of its hops and a fault stops the submissions: the hops
  /// before it are un-committed, the hops after it never written. Pipelined
  /// mode (every hop's engine async): the hops' writers drain their
  /// channels concurrently, so chain update latency is the slowest hop, not
  /// the sum. Each op-log still runs in consistent-update order on its own
  /// channel, and a fault on any hop un-commits every hop that settled,
  /// before or after it. A session that releases its lock while the
  /// channels drain calls submit_all() / wait_all() (lock-free) /
  /// finish_all() itself.
  Status commit_all();
  [[nodiscard]] bool pipelined() const;
  void submit_all();
  void wait_all();
  Status finish_all();
  /// Virtual ms the slowest hop's write spent on its channel (valid after
  /// finish_all).
  [[nodiscard]] double channel_ms() const;

  /// Release phase-1 reservations on every hop (idempotent; no-op once
  /// Committed).
  void rollback_all();

  /// Un-commit a COMMITTED transaction: consistently remove the program
  /// from every hop (reverse hop order), release its resources and restore
  /// residual bytes. Used when retiring the old version of a relink faults
  /// after the new version already committed everywhere. The unwind itself
  /// must not fault (single-fault model, the same assumption the
  /// single-switch journal unwind makes).
  void unwind_commit();

  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  [[nodiscard]] ProgramId id() const noexcept { return id_; }
  /// Hop whose reserve/commit failed; -1 while nothing faulted.
  [[nodiscard]] int faulted_hop() const noexcept { return faulted_hop_; }
  /// Per-hop installed programs; valid only while Committed.
  [[nodiscard]] std::vector<InstalledProgram>& installed() noexcept { return installed_; }
  /// Total staged ops across the chain (valid once Staged).
  [[nodiscard]] std::size_t total_staged_ops() const;

 private:
  /// Pre-transaction contents of one reserved block (captured in phase 1).
  struct Residual {
    std::string vmem;
    VmemPlacement placement;
    std::vector<Word> words;
  };

  /// The bundle for chain_txn.* spans (null when they are off).
  [[nodiscard]] obs::Telemetry* chain_telemetry() const noexcept {
    return chain_spans_ ? telemetry_ : nullptr;
  }
  /// The chain_txn.commit span (inert without chain spans).
  [[nodiscard]] obs::SpanTracer::Scope commit_span(bool pipelined);
  /// Hand every hop's staged op-log to its engine, stopping at a hop that
  /// faults inline (phase -> Submitted).
  void submit_hops();
  /// Un-commit one hop: consistent remove, release entries, erase the
  /// program record, restore the blocks' residual bytes.
  void unwind_committed_hop(int hop, InstalledProgram& program);

  std::vector<ChainHop> hops_;
  const rp::TranslatedProgram& ir_;
  std::vector<rp::AllocationResult> allocs_;
  ProgramId id_;
  int filter_priority_;
  ProgramId replacing_;
  obs::Telemetry* telemetry_;
  bool chain_spans_;

  Phase phase_ = Phase::Solved;
  int faulted_hop_ = -1;
  std::vector<std::unique_ptr<DeployTransaction>> txns_;   // [hop]
  std::size_t submitted_ = 0;  ///< hops handed to their channels, in order
  std::vector<std::vector<Residual>> residuals_;           // [hop]
  std::vector<InstalledProgram> installed_;                // [hop], when Committed
};

/// Hop-wide consistent remove of one program. programs[h] is hop h's copy,
/// owned by the controller: on success every copy is cleared and its
/// resources released (the caller drops the records); on a fault every hop
/// keeps the program running — the faulted hop restored by its journal, the
/// others re-installed from pre-removal images at their old addresses.
class ChainRemoval {
 public:
  ChainRemoval(std::vector<ChainHop> hops, std::vector<InstalledProgram*> programs);

  /// Remove under one lock hold: submit() + finish(), hop by hop on inline
  /// channels (a fault stops the submissions) or pipelined like
  /// ChainTransaction::commit_all on writer threads; a parked session calls
  /// wait() off-lock between.
  Status remove();
  void submit();
  void wait();
  Status finish();

  /// Hop whose remove faulted; -1 while nothing faulted.
  [[nodiscard]] int faulted_hop() const noexcept { return faulted_hop_; }

 private:
  /// Pre-removal image of one hop's installed program.
  struct HopImage {
    InstalledProgram program;
    std::map<std::string, std::vector<Word>> words;  // vmem -> block contents
  };

  /// Images are needed only to restore OTHER hops after a fault, so a
  /// single hop captures none.
  void capture_images();
  /// Re-install hop `hop` from its image (fresh handles).
  void reinstall(std::size_t hop);

  std::vector<ChainHop> hops_;
  std::vector<InstalledProgram*> programs_;
  std::vector<std::map<int, std::uint32_t>> entries_;  ///< [hop] rpb -> entries held
  std::vector<HopImage> images_;                       ///< [hop], chains only
  std::vector<UpdateEngine::PendingWrite> pending_;    ///< [hop], submitted hops
  int faulted_hop_ = -1;
};

}  // namespace p4runpro::ctrl
