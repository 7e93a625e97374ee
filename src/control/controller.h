// P4runpro control plane controller: the public runtime-programming API.
// Drives the full link pipeline (parse -> check -> translate -> allocate ->
// generate entries -> consistent update) and program lifecycle
// (monitor / revoke), mirroring the prototype's runtime CLI (paper §5).
//
// One session core over a list of hops (one switch's dataplane, resource
// manager, update engine and installed programs each) with a single id
// pool, audit log, admission / tenant state and session lock; every link,
// relink, revoke and defrag move runs as a ctrl::ChainTransaction /
// ctrl::ChainRemoval over all hops. A single switch is the 1-hop list the
// public constructor builds; only a core built over a dp::SwitchChain
// (ctrl::ChainController) runs the mirror checks, labels hops and reports
// under the chain names.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "compiler/compiler.h"
#include "compiler/solver.h"
#include "control/admission.h"
#include "control/chain_txn.h"
#include "control/defrag.h"
#include "control/resource_manager.h"
#include "control/tenant.h"
#include "control/update_engine.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"

namespace p4runpro::obs {
struct Telemetry;
class ProgramHealthMonitor;
class FlightRecorder;
}  // namespace p4runpro::obs

namespace p4runpro::ctrl {

/// Timing breakdown of one program deployment (§6.2.1: deployment delay =
/// allocation delay + update delay; parsing is negligible). `alloc_ms` is
/// real measured solver time; `parse_ms`/`update_ms` come from the
/// simulated control channel.
struct LinkStats {
  double parse_ms = 0.0;
  double alloc_ms = 0.0;
  double update_ms = 0.0;

  [[nodiscard]] double deploy_ms() const noexcept {
    return parse_ms + alloc_ms + update_ms;
  }
};

struct LinkResult {
  ProgramId id = 0;
  std::string name;
  LinkStats stats;
  /// Causal trace id minted for the link operation (obs::TraceScope); pass
  /// it to ctrl::trace_report to assemble the operation's cross-tier story.
  std::uint64_t trace = 0;
};

/// One control-plane lifecycle event (operator audit log).
struct ControlEvent {
  enum class Kind : std::uint8_t {
    Link, Relink, Revoke, LinkFailed, RevokeFailed
  } kind;
  double t_ms = 0.0;  ///< virtual time
  ProgramId id = 0;
  std::string name;
  std::string detail;  ///< error text (with its [ErrorCode]) for *Failed kinds
};

/// Tuning for link_many's concurrent sessions.
struct ParallelLinkOptions {
  /// A session solves against a resource snapshot off-lock; by commit time
  /// another session may have taken those resources. On such a reservation
  /// conflict the session re-snapshots and re-solves, up to this many extra
  /// attempts, before giving up with the conflict error. This is a hard cap
  /// on the retry spin: every extra attempt bumps "ctrl.link.retries", so an
  /// oversubscribed switch shows up as a counter, not as livelock.
  int max_solve_retries = 3;
};

/// One concurrent link session: a single-program source unit tagged with the
/// tenant whose quota and fair share it runs under (0 = default tenant).
struct SessionSpec {
  std::string source;
  TenantId tenant = 0;
};

/// Span and counter names of one surface (single switch or chain), picked
/// by the constructor (defined in controller.cpp).
struct SessionNames;

class Controller {
 public:
  /// `telemetry` routes all observations (metrics, phase spans) of this
  /// controller, its update engine, resource manager and the dataplane's
  /// pipeline through one bundle; null selects obs::default_telemetry().
  Controller(dp::RunproDataplane& dataplane, SimClock& clock,
             rp::Objective objective = {}, BfrtCostModel cost = {},
             obs::Telemetry* telemetry = nullptr);

  /// Link every program of a source unit to the running data plane.
  /// All-or-nothing: on failure no program of the unit stays linked.
  Result<std::vector<LinkResult>> link(std::string_view source);

  /// Link a unit expected to contain exactly one program.
  Result<LinkResult> link_single(std::string_view source);

  /// Concurrent link sessions: link every source (each a single-program
  /// unit) on `pool` workers. Compile and allocation-solving run in
  /// parallel against resource snapshots; reservation + staged commit are
  /// serialized under the controller's session lock, so deployments stay
  /// all-or-nothing and allocations never overlap. Results are positional
  /// (results[i] belongs to sources[i]); each failure is per-session and
  /// rolls back only its own transaction.
  std::vector<Result<LinkResult>> link_many(const std::vector<std::string>& sources,
                                            common::ThreadPool& pool,
                                            ParallelLinkOptions options = {});
  /// Tenant-attributed variant: every session passes admission (bounded
  /// in-flight reservations, weighted fair queuing, shed past the queue
  /// bound with ErrorCode::AdmissionShed) and its tenant's quota gate
  /// (ErrorCode::QuotaExceeded) before reserving.
  std::vector<Result<LinkResult>> link_many(const std::vector<SessionSpec>& sessions,
                                            common::ThreadPool& pool,
                                            ParallelLinkOptions options = {});
  /// One admission-gated link session (the unit link_many maps over a
  /// pool). Safe to call concurrently from any thread — this is the
  /// entry point for callers that drive their own session threads (e.g.
  /// bench/tenant_churn measuring per-session latency).
  Result<LinkResult> link_session(const SessionSpec& session,
                                  ParallelLinkOptions options = {});

  /// Incremental update (paper §7): atomically replace a running program
  /// with a new version compiled from `source`, preserving the contents of
  /// virtual memories present in both versions. The new version is fully
  /// installed before the old one is disabled, so traffic always sees
  /// exactly one complete version.
  Result<LinkResult> relink(ProgramId old_id, std::string_view source);

  /// Consistently remove a running program and release its resources. A
  /// control-channel fault mid-removal rolls the removal back: the program
  /// keeps running (with fresh entry handles) and the error is returned.
  Status revoke(ProgramId id);
  /// Revoke by program name (names are unique among running programs).
  Status revoke_by_name(const std::string& name);

  /// Toggle the asynchronous control channel: a per-engine writer thread
  /// drains committed op-logs through the simulated bfrt channel so commit
  /// paths can release the session lock (or pipeline hops) while writes are
  /// in flight (docs/ARCHITECTURE.md "Async control channel"). Off by
  /// default; toggling drains any in-flight writes first. Call with no
  /// deployment in progress.
  void set_async_writes(bool enabled);
  [[nodiscard]] bool async_writes() const;

  // --- monitoring --------------------------------------------------------
  // Read-side queries take the session lock and quiesce the async channel
  // (writer drained) before reading, so they are safe to call while
  // sessions run on other threads. The pointer-returning queries release
  // the lock before returning: the pointee is stable (map nodes never
  // move) but its *contents* are only guaranteed until the next mutating
  // call on this controller — hold results across sessions by value, not by
  // pointer.
  [[nodiscard]] const InstalledProgram* program(ProgramId id) const;
  [[nodiscard]] const InstalledProgram* program_by_name(const std::string& name) const;
  [[nodiscard]] std::vector<ProgramId> running_programs() const;
  [[nodiscard]] std::size_t program_count() const;

  /// Control-plane memory access (virtual addresses).
  [[nodiscard]] Result<Word> read_memory(ProgramId id, const std::string& vmem,
                                         MemAddr vaddr) const;
  /// Drain the packets REPORTed to the switch CPU since the last drain
  /// (e.g. heavy-hitter notifications).
  [[nodiscard]] std::vector<rmt::Packet> drain_reports();
  /// Packets the program's filter has claimed since it was linked.
  [[nodiscard]] std::uint64_t program_packets(ProgramId id) const;
  /// Dump a whole virtual memory block (the resource manager's
  /// memory-monitoring path, §3.1).
  [[nodiscard]] Result<std::vector<Word>> dump_memory(ProgramId id,
                                                      const std::string& vmem) const;
  /// The hash algorithm whose (masked) output indexes `vmem` — i.e. the
  /// hash unit of the stage that executes the program's HASH_*_MEM on that
  /// memory. Lets the control plane compute bucket indices when populating
  /// or monitoring sketch memories.
  [[nodiscard]] Result<rmt::HashAlgo> hash_algo_for(ProgramId id,
                                                    const std::string& vmem) const;
  Status write_memory(ProgramId id, const std::string& vmem, MemAddr vaddr, Word value);

  /// Lifecycle audit log (most recent last; bounded to the last 1,024
  /// events). Returned by value: a snapshot taken under the session lock,
  /// safe to iterate while sessions keep appending.
  [[nodiscard]] std::deque<ControlEvent> events() const;

  /// Hop 0's resource manager and update engine (the switch itself on a
  /// single switch).
  [[nodiscard]] ResourceManager& resources() noexcept { return hop_at(0).resources; }
  [[nodiscard]] UpdateEngine& updates() noexcept { return hop_at(0).updates; }
  [[nodiscard]] const ResourceManager& resources() const noexcept {
    return hop_at(0).resources;
  }
  [[nodiscard]] rp::Objective objective() const noexcept { return objective_; }
  void set_objective(rp::Objective objective) noexcept { objective_ = objective; }

  /// The telemetry bundle this controller reports into.
  [[nodiscard]] obs::Telemetry& telemetry() noexcept { return *telemetry_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const noexcept { return *telemetry_; }

  /// Shortcuts into the bundle's data-plane health instrumentation: the
  /// per-program monitor attached to the pipeline as packet observer, and
  /// the flight recorder it freezes when an alert trips.
  [[nodiscard]] obs::ProgramHealthMonitor& monitor() noexcept;
  [[nodiscard]] const obs::ProgramHealthMonitor& monitor() const noexcept;
  [[nodiscard]] obs::FlightRecorder& flight_recorder() noexcept;

  /// Charge a fixed virtual-time cost per allocation instead of the solver's
  /// measured wall time. Makes full link runs deterministic in virtual time
  /// (reproducible trace exports); reset with std::nullopt.
  void set_fixed_alloc_charge_ms(std::optional<double> ms) noexcept {
    fixed_alloc_charge_ms_ = ms;
  }

  // --- multi-tenant control plane -----------------------------------------
  // (docs/ARCHITECTURE.md "Multi-tenant control plane")

  /// Per-tenant quotas and usage. Internally synchronized; register quotas
  /// before launching the tenant's sessions.
  [[nodiscard]] TenantRegistry& tenants() noexcept { return tenants_; }
  [[nodiscard]] const TenantRegistry& tenants() const noexcept { return tenants_; }

  /// Admission bounds for link sessions (in-flight cap + queue bound).
  /// Reconfigure only with no session in flight.
  void set_admission_config(AdmissionConfig config) {
    admission_.set_config(config);
  }
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }

  /// Run one defragmentation pass: greedily migrate installed programs
  /// (best simulated fragmentation gain first) through relink transactions
  /// until no move gains at least `min_gain_words` or `max_moves` is
  /// reached. Quiesces the async channel first; commits route through the
  /// writer (inline) in async mode. The fragmentation metric is
  /// non-increasing across every executed move by construction.
  Result<DefragReport> defragment(DefragOptions options = {});

  /// Auto-defrag: when a session's reservation fails with AllocFailed, run
  /// a bounded defrag pass under the lock and retry the reservation (still
  /// within the session's retry cap). Off by default.
  void set_auto_defrag(bool enabled);
  [[nodiscard]] bool auto_defrag() const;

  ~Controller();

 protected:
  /// Chain core: one hop per switch of `chain` (see ctrl::ChainController).
  Controller(dp::SwitchChain& chain, SimClock& clock, rp::Objective objective,
             BfrtCostModel cost, obs::Telemetry* telemetry);

  /// Link a source unit as one session; `single_program` rejects units of
  /// more than one program before anything is deployed.
  Result<std::vector<LinkResult>> link_unit(std::string_view source,
                                            bool single_program);

  // --- per-hop access (exposed by ctrl::ChainController) -----------------
  [[nodiscard]] int hop_count() const noexcept { return static_cast<int>(hops_.size()); }
  /// Hop `hop`'s copy of program `id` (locked query, same caveats as
  /// program()).
  [[nodiscard]] const InstalledProgram* program_at(int hop, ProgramId id) const;
  /// The hop whose switch physically holds `vmem` of program `id`: the
  /// chain hop of the (single, chain-compatibility-guaranteed) round that
  /// accesses it; always 0 on a single switch.
  [[nodiscard]] Result<int> owning_hop(ProgramId id, const std::string& vmem) const;
  /// Unlocked test-harness access (fault injection arms exactly one hop's
  /// engine) — do not call while sessions run on other threads.
  [[nodiscard]] ResourceManager& resources(int hop) { return hop_at(hop).resources; }
  [[nodiscard]] const ResourceManager& resources(int hop) const {
    return hop_at(hop).resources;
  }
  [[nodiscard]] UpdateEngine& updates(int hop) { return hop_at(hop).updates; }

 private:
  /// One switch's control-plane state (held by unique_ptr: the engine
  /// references the resource manager).
  struct Hop {
    dp::RunproDataplane& dataplane;
    ResourceManager resources;
    UpdateEngine updates;
    std::map<ProgramId, InstalledProgram> programs;

    Hop(dp::RunproDataplane& dp, SimClock& clock, BfrtCostModel cost)
        : dataplane(dp), resources(dp.spec()), updates(dp, resources, clock, cost) {}
  };
  /// A committed deploy not yet adopted into the hop maps (relink can still
  /// unwind_commit() it if retiring the old version faults).
  struct Deployed {
    LinkResult result;
    std::unique_ptr<ChainTransaction> txn;
  };
  /// One locked control operation (defined in controller.cpp).
  class Session;

  Controller(dp::SwitchChain* chain, std::vector<dp::RunproDataplane*> switches,
             SimClock& clock, rp::Objective objective, BfrtCostModel cost,
             obs::Telemetry* telemetry);

  // Locking discipline (docs/ARCHITECTURE.md "Async control channel"): all
  // mutations of controller/hop/clock/telemetry state happen under mu_.
  // Public mutators take the lock and delegate to the *_locked internals;
  // link_many workers do their pure compute (compile, solve) off-lock
  // against snapshots and re-enter mu_ for reserve+commit. Const queries
  // take mu_ and quiesce every hop's async channel before reading (use the
  // *_unlocked internals from code already holding mu_ — the public
  // versions would self-deadlock). Dataplane writes are serialized per hop
  // by its engine: on the caller's thread under mu_ in serial mode, on the
  // hop's writer thread in async mode (writers never take mu_, which is why
  // quiescing under mu_ is deadlock-free). Async sessions that release mu_
  // mid-commit leave a guard behind — pending_names_ for an in-flight
  // install, busy_ids_ for an in-flight revoke — so concurrent sessions
  // can't double-book a name or mutate a program the writers still own.
  /// Admitted session body: everything after the admission grant (quota
  /// gate, off-lock solve, locked reserve+commit, retry loop). The caller
  /// (link_session) owns the grant and releases it afterwards.
  Result<LinkResult> link_session_admitted(const rp::TranslatedProgram& ir,
                                           TenantId tenant,
                                           ParallelLinkOptions options);
  /// Name check + solve + commit on every hop; audits failures, adopts
  /// nothing.
  Result<Deployed> deploy_locked(const rp::TranslatedProgram& ir,
                                 ProgramId replacing);
  /// Stage and commit `ir` at `allocs` under a fresh id. A link_many
  /// `session` parks off-lock while async writes drain (other callers
  /// settle inline through the writers); with `may_retry` a reservation
  /// AllocFailed returns unaudited for the caller to re-solve.
  Result<Deployed> commit_locked(const rp::TranslatedProgram& ir,
                                 std::vector<rp::AllocationResult> allocs,
                                 ProgramId replacing, double alloc_ms,
                                 Session* session = nullptr, bool may_retry = false);
  /// One solve per hop: inline on a single hop, on solve_pool_ otherwise.
  Result<std::vector<rp::AllocationResult>> solve_hops(
      const rp::TranslatedProgram& ir,
      std::vector<ResourceManager::Snapshot> snapshots,
      obs::Telemetry* telemetry) const;
  /// Chains only: the per-hop allocations agree (occupancies evolve in
  /// lockstep), every vmem sits in one round and the rounds fit the chain.
  [[nodiscard]] Status check_mirror(const rp::TranslatedProgram& ir,
                                    const std::vector<rp::AllocationResult>& allocs) const;
  /// Move a committed transaction's programs into the hop maps; `charge`
  /// bills `tenant` (sessions were billed at admission).
  void adopt_locked(ChainTransaction& txn, TenantId tenant, bool charge);
  /// Retire `old_id` for the committed `deployed` (relink, defrag move); on
  /// a retire fault unwind the new version instead.
  Status replace_locked(ProgramId old_id, Deployed& deployed,
                        const std::string& detail);
  /// Revoke under the lock; with `session`, an async revoke parks
  /// off-lock while the writers drain the removes.
  Status revoke_locked(ProgramId id, Session* session = nullptr);
  /// NotFound / in-flight Conflict for a program about to be removed.
  [[nodiscard]] Status check_revocable(ProgramId id) const;
  /// Remove `id` from every hop, then drop its records, tenant charge and
  /// id (no audit). On a fault the program keeps running everywhere and
  /// `faulted_hop` names the hop whose write failed.
  Status remove_locked(ProgramId id, int* faulted_hop, Session* session);
  DefragReport defragment_locked(const DefragOptions& options);
  /// Migrate one program: commit a copy at its stored allocation
  /// (replacing = old id, memory carried over), then retire the old copy.
  Result<ProgramId> compact_program_locked(ProgramId id);
  [[nodiscard]] const InstalledProgram* program_unlocked(ProgramId id) const;
  [[nodiscard]] const InstalledProgram* program_by_name_unlocked(
      const std::string& name) const;
  [[nodiscard]] bool name_taken(const std::string& name, ProgramId replacing) const;
  [[nodiscard]] Result<int> owning_hop_unlocked(ProgramId id,
                                                const std::string& vmem) const;
  [[nodiscard]] Hop& hop_at(int hop) { return *hops_[static_cast<std::size_t>(hop)]; }
  [[nodiscard]] const Hop& hop_at(int hop) const {
    return *hops_[static_cast<std::size_t>(hop)];
  }
  [[nodiscard]] std::vector<ChainHop> hop_contexts();
  [[nodiscard]] std::vector<ResourceManager::Snapshot> snapshots_locked() const;
  /// Every hop's engine async (the pipelined / parking paths).
  [[nodiscard]] bool pipelined() const;
  /// Drain every hop's async channel (caller holds mu_).
  void quiesce() const;
  [[nodiscard]] ProgramId next_program_id();
  /// Return the id of a rolled-back deploy: the freshest id un-allocates
  /// (next_id_ decrements), an id drawn from the recycle pool goes back to
  /// it. A failed deploy never *adds* a new id to free_ids_ — only a
  /// successful revoke does — so ids of programs that never ran can't leak
  /// into the pool and alias monitor history.
  void recycle_failed_id(ProgramId id);
  void record_event(ControlEvent::Kind kind, ProgramId id, const std::string& name,
                    const std::string& detail = "");
  /// Audit a failure: the monitor's (chain) transaction rollback once an id
  /// was assigned, plus a `kind` event carrying the error.
  Error fail_locked(ControlEvent::Kind kind, ProgramId id, const std::string& name,
                    int faulted_hop, const Error& err);
  void note_commit(ProgramId id, const std::string& name);
  void record_link_histograms(const LinkResult& result);

  dp::SwitchChain* chain_;  ///< null for a single switch: no mirror checks
  const SessionNames* names_;  ///< this surface's span and counter names
  SimClock& clock_;
  rp::Objective objective_;
  obs::Telemetry* telemetry_;
  std::optional<double> fixed_alloc_charge_ms_;
  std::vector<std::unique_ptr<Hop>> hops_;
  std::unique_ptr<common::ThreadPool> solve_pool_;  ///< chains only

  mutable std::mutex mu_;  ///< session lock (see locking discipline above)
  std::deque<ControlEvent> events_;
  /// Installs parked on the async channels (name checks treat them as
  /// running) and programs with a parked revoke (their handles belong to
  /// the writers until settled).
  std::set<std::string> pending_names_;
  std::set<ProgramId> busy_ids_;
  ProgramId next_id_ = 1;
  std::vector<ProgramId> free_ids_;  ///< fed only by successful revokes
  int filter_generation_ = 0;

  // Multi-tenant state. Both are internally synchronized leaf locks that
  // never acquire anything themselves. The admission controller BLOCKS
  // (queued sessions wait on its cv), so it is never entered with mu_ held
  // — sessions acquire their grant first, then take mu_. The tenant
  // registry never blocks, so charging/releasing under mu_ is fine.
  // auto_defrag_ is guarded by mu_.
  TenantRegistry tenants_;
  AdmissionController admission_;
  bool auto_defrag_ = false;
};

}  // namespace p4runpro::ctrl
