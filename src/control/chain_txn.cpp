#include "control/chain_txn.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "compiler/entrygen.h"
#include "obs/telemetry.h"

namespace p4runpro::ctrl {

namespace {

/// Table entries a program holds per physical RPB (read from its handles).
[[nodiscard]] std::map<int, std::uint32_t> entries_per_rpb(
    const InstalledProgram& program) {
  std::map<int, std::uint32_t> entries;
  for (const auto& [rpb, handle] : program.rpb_handles) {
    (void)handle;
    ++entries[rpb];
  }
  return entries;
}

/// Return what a consistently removed program held on one hop besides its
/// memory blocks (the remove freed those): entry reservations, the resource
/// record and the claim counter.
void release_removed(const ChainHop& hop, ProgramId id,
                     const std::map<int, std::uint32_t>& entries) {
  for (const auto& [rpb, count] : entries) hop.resources->release_entries(rpb, count);
  hop.resources->erase_program(id);
  hop.dataplane->clear_claim_counter(id);
}

}  // namespace

// --- ChainTransaction -------------------------------------------------------

ChainTransaction::ChainTransaction(std::vector<ChainHop> hops,
                                   const rp::TranslatedProgram& ir,
                                   std::vector<rp::AllocationResult> allocs,
                                   ProgramId id, int filter_priority,
                                   ProgramId replacing, obs::Telemetry* telemetry,
                                   bool chain_spans)
    : hops_(std::move(hops)),
      ir_(ir),
      allocs_(std::move(allocs)),
      id_(id),
      filter_priority_(filter_priority),
      replacing_(replacing),
      telemetry_(telemetry),
      chain_spans_(chain_spans) {
  assert(!hops_.empty());
  assert(hops_.size() == allocs_.size());
  residuals_.resize(hops_.size());
}

ChainTransaction::~ChainTransaction() {
  if (phase_ == Phase::Submitted) (void)finish_all();
  if (phase_ == Phase::Solved || phase_ == Phase::Staged) rollback_all();
}

Status ChainTransaction::stage_all() {
  assert(phase_ == Phase::Solved);
  auto stage_span = obs::span(chain_telemetry(), "chain_txn.stage", "ctrl");
  stage_span.arg("hops", static_cast<std::uint64_t>(hops_.size()));

  txns_.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    txns_.push_back(std::make_unique<DeployTransaction>(
        DeployContext{*hops_[h].dataplane, *hops_[h].resources, *hops_[h].updates,
                      telemetry_},
        ir_, std::move(allocs_[h]), id_, filter_priority_, replacing_));
  }

  // Reserve everywhere first: any hop's AllocFailed aborts the chain before
  // a single dataplane write is even staged.
  for (std::size_t h = 0; h < txns_.size(); ++h) {
    if (auto s = txns_[h]->reserve(); !s.ok()) {
      faulted_hop_ = static_cast<int>(h);
      rollback_all();
      return s;
    }
  }
  for (auto& txn : txns_) {
    txn->plan_entries();
    txn->stage();
  }

  // Capture the pre-transaction bytes of every reserved block now, while
  // nothing has written to the dataplane: a later commit-unwind's memory
  // reset must be able to restore free memory byte-identically. Only a
  // chain (another hop may fault) or an incremental update (relink may
  // unwind it) can ever un-commit.
  if (hops_.size() > 1 || replacing_ != 0) {
    for (std::size_t h = 0; h < txns_.size(); ++h) {
      for (const auto& [vmem, placement] : txns_[h]->placements()) {
        residuals_[h].push_back(
            Residual{vmem, placement, read_block(*hops_[h].dataplane, placement)});
      }
    }
  }

  phase_ = Phase::Staged;
  return {};
}

bool ChainTransaction::pipelined() const {
  return std::all_of(hops_.begin(), hops_.end(),
                     [](const ChainHop& hop) { return hop.updates->async(); });
}

obs::SpanTracer::Scope ChainTransaction::commit_span(bool pipelined) {
  auto span = obs::span(chain_telemetry(), "chain_txn.commit", "ctrl");
  span.arg("hops", static_cast<std::uint64_t>(hops_.size()));
  span.arg("ops", static_cast<std::uint64_t>(total_staged_ops()));
  if (pipelined) span.arg("pipelined", "1");
  return span;
}

void ChainTransaction::submit_hops() {
  // Submit every hop's op-log before settling any: the per-hop writer
  // threads drain their channels concurrently, so chain update latency is
  // the slowest hop, not the sum of hops. An inline channel settles at
  // submission, so the hops run one after another and a hop that faults
  // stops the loop: no later hop is written.
  while (submitted_ < txns_.size()) {
    DeployTransaction& txn = *txns_[submitted_++];
    txn.commit_submit();
    if (txn.faulted()) break;
  }
  phase_ = Phase::Submitted;
}

Status ChainTransaction::commit_all() {
  assert(phase_ == Phase::Staged);
  auto span = commit_span(pipelined());
  submit_hops();
  return finish_all();
}

void ChainTransaction::submit_all() {
  assert(phase_ == Phase::Staged && pipelined());
  // The span closes with the submission (like txn.commit on an async
  // channel): the channel time is reported by the bfrt spans finish_all
  // replays.
  auto span = commit_span(true);
  submit_hops();
}

void ChainTransaction::wait_all() {
  assert(phase_ == Phase::Submitted);
  for (auto& txn : txns_) txn->commit_wait();
}

Status ChainTransaction::finish_all() {
  assert(phase_ == Phase::Submitted);
  installed_.resize(txns_.size());
  std::vector<bool> committed(txns_.size(), false);
  Status first_error;
  for (std::size_t h = 0; h < submitted_; ++h) {
    auto installed = txns_[h]->commit_finish();
    if (!installed.ok()) {
      // Keep settling the remaining hops — their writer jobs reference
      // their staged batches and must complete before we unwind anything.
      if (first_error.ok()) {
        faulted_hop_ = static_cast<int>(h);
        first_error = installed.error();
      }
      continue;
    }
    installed_[h] = std::move(installed).take();
    committed[h] = true;
  }
  if (!first_error.ok()) {
    // Faulted hops rolled themselves back at finish; un-commit every hop
    // that settled successfully — including those AFTER the faulted hop
    // (they were already in flight when the fault surfaced) — and release
    // the reservations of the hops never submitted.
    const auto committed_hops = std::count(committed.begin(), committed.end(), true);
    auto unwind_span = obs::span(chain_telemetry(), "chain_txn.unwind", "ctrl");
    unwind_span.arg("committed_hops", static_cast<std::uint64_t>(committed_hops));
    for (std::size_t g = committed.size(); g-- > 0;) {
      if (committed[g]) unwind_committed_hop(static_cast<int>(g), installed_[g]);
    }
    for (std::size_t g = submitted_; g < txns_.size(); ++g) txns_[g]->rollback();
    installed_.clear();
    phase_ = Phase::RolledBack;
    return first_error;
  }
  phase_ = Phase::Committed;
  return {};
}

double ChainTransaction::channel_ms() const {
  double slowest = 0.0;
  for (const auto& txn : txns_) slowest = std::max(slowest, txn->channel_ms());
  return slowest;
}

void ChainTransaction::rollback_all() {
  if (phase_ == Phase::Committed || phase_ == Phase::RolledBack) return;
  for (auto& txn : txns_) {
    if (txn) txn->rollback();
  }
  installed_.clear();
  phase_ = Phase::RolledBack;
}

void ChainTransaction::unwind_commit() {
  assert(phase_ == Phase::Committed);
  auto unwind_span = obs::span(chain_telemetry(), "chain_txn.unwind", "ctrl");
  unwind_span.arg("committed_hops", static_cast<std::uint64_t>(hops_.size()));
  for (std::size_t g = hops_.size(); g-- > 0;) {
    unwind_committed_hop(static_cast<int>(g), installed_[g]);
  }
  installed_.clear();
  phase_ = Phase::RolledBack;
}

void ChainTransaction::unwind_committed_hop(int hop, InstalledProgram& program) {
  const ChainHop& ctx = hops_[static_cast<std::size_t>(hop)];
  const auto entries = entries_per_rpb(program);

  // Consistent remove through the hop's own engine (filters first, so the
  // half-deployed program is atomically invisible; memory reset last). The
  // unwind itself must not fault: faults fire once and have already fired.
  const Status removed = ctx.updates->remove(program);
  assert(removed.ok() && "chain unwind remove must not fault (single-fault model)");
  (void)removed;
  release_removed(ctx, id_, entries);

  // remove() zeroed the blocks; put the pre-transaction residual bytes back
  // so even free memory is byte-identical. The inverse op is discarded —
  // this IS the rollback. (remove() settled the hop's write, and nothing
  // can submit while the session lock is held.)
  for (const Residual& residual : residuals_[static_cast<std::size_t>(hop)]) {
    if (residual.words.empty()) continue;
    dp::WriteOp op;
    op.kind = dp::WriteOp::Kind::RestoreMemRange;
    op.mem_rpb = residual.placement.rpb;
    op.mem_base = residual.placement.block.base;
    op.mem_size = static_cast<std::uint32_t>(residual.words.size());
    op.mem_words = residual.words;
    op.vmem = residual.vmem;
    auto applied = ctx.dataplane->apply(op);
    assert(applied.ok());
    (void)applied;
  }
}

std::size_t ChainTransaction::total_staged_ops() const {
  std::size_t total = 0;
  for (const auto& txn : txns_) {
    if (txn) total += txn->staged_batch().size();
  }
  return total;
}

// --- ChainRemoval -----------------------------------------------------------

ChainRemoval::ChainRemoval(std::vector<ChainHop> hops,
                           std::vector<InstalledProgram*> programs)
    : hops_(std::move(hops)), programs_(std::move(programs)) {
  assert(hops_.size() == programs_.size());
  entries_.reserve(programs_.size());
  for (const InstalledProgram* program : programs_) {
    entries_.push_back(entries_per_rpb(*program));
  }
}

void ChainRemoval::capture_images() {
  if (hops_.size() < 2) return;
  images_.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    HopImage image;
    image.program = *programs_[h];
    for (const auto& [vmem, placement] : image.program.placements) {
      image.words.emplace(vmem, read_block(*hops_[h].dataplane, placement));
    }
    images_.push_back(std::move(image));
  }
}

Status ChainRemoval::remove() {
  submit();
  return finish();
}

void ChainRemoval::submit() {
  // Images first: the jobs own the programs' handles once submitted. An
  // inline channel settles at submission, so a hop that faults stops the
  // loop, like ChainTransaction::submit_hops.
  capture_images();
  pending_.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    pending_.push_back(hops_[h].updates->submit_remove(*programs_[h]));
    if (pending_.back().faulted()) break;
  }
}

void ChainRemoval::wait() {
  for (auto& pending : pending_) pending.done.wait();
}

Status ChainRemoval::finish() {
  std::vector<bool> removed(hops_.size(), false);
  Status first_error;
  for (std::size_t h = 0; h < pending_.size(); ++h) {
    const Status s = hops_[h].updates->finish_remove(pending_[h]);
    if (!s.ok()) {
      // Hop h's removal journal restored the program there. Keep settling
      // the remaining hops — their writes are already in flight.
      if (faulted_hop_ < 0) {
        faulted_hop_ = static_cast<int>(h);
        first_error = s;
      }
      continue;
    }
    removed[h] = true;
    release_removed(hops_[h], programs_[h]->id, entries_[h]);
  }
  if (faulted_hop_ >= 0) {
    // Re-install every hop that removed cleanly — including hops AFTER the
    // faulted one (their removes were in flight when the fault surfaced) —
    // in reverse hop order.
    for (std::size_t g = hops_.size(); g-- > 0;) {
      if (removed[g]) reinstall(g);
    }
  }
  return first_error;
}

void ChainRemoval::reinstall(std::size_t hop) {
  const ChainHop& ctx = hops_[hop];
  HopImage& image = images_[hop];
  const ProgramId id = image.program.id;

  // The exact blocks are provably still free: nothing allocated between the
  // removal and this unwind (session lock). A reclaim failure is a journal
  // bug, same convention as the single-switch rollback.
  for (const auto& [vmem, placement] : image.program.placements) {
    (void)vmem;
    const Status reclaimed = ctx.resources->reclaim_block(placement.rpb,
                                                          placement.block);
    assert(reclaimed.ok() && "chain unwind reclaim must not fail");
    (void)reclaimed;
  }
  for (const auto& [rpb, count] : entries_[hop]) {
    const Status reserved = ctx.resources->reserve_entries(rpb, count);
    assert(reserved.ok() && "chain unwind re-reserve must not fail");
    (void)reserved;
  }

  // Replay the install: saved memory contents first, then the entry plan in
  // consistent-update order. The engine hands back fresh handles.
  dp::WriteBatch batch;
  for (const auto& [vmem, placement] : image.program.placements) {
    batch.write_mem_range(placement.rpb, placement.block.base,
                          std::move(image.words.at(vmem)), vmem);
  }
  rp::stage_install(image.program.plan, batch);
  auto applied = ctx.updates->execute_install(batch);
  assert(applied.ok() && "chain unwind reinstall must not fault");
  image.program.filter_handles = std::move(applied.value().filter_handles);
  image.program.rpb_handles = std::move(applied.value().rpb_handles);
  image.program.recirc_handles = std::move(applied.value().recirc_handles);
  ctx.resources->record_program(id, image.program.placements);
  *programs_[hop] = std::move(image.program);
}

}  // namespace p4runpro::ctrl
