#include "control/controller.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <future>

#include "obs/telemetry.h"

namespace p4runpro::ctrl {

/// The names that differ between the two surfaces. Not a user option: the
/// constructor picks the table from what it was built over.
struct SessionNames {
  const char* link_span;
  const char* relink_span;
  const char* revoke_span;
  const char* solve_span;
  std::array<const char*, 5> event_counters;  ///< by ControlEvent::Kind
};

namespace {

constexpr SessionNames kSwitchNames{
    "link", "relink", "revoke", "solve",
    {"ctrl.events.link", "ctrl.events.relink", "ctrl.events.revoke",
     "ctrl.events.link_failed", "ctrl.events.revoke_failed"}};

constexpr SessionNames kChainNames{
    "chain_link", "chain_relink", "chain_revoke", "chain_txn.solve",
    {"ctrl.chain.events.link", "ctrl.chain.events.relink",
     "ctrl.chain.events.revoke", "ctrl.chain.events.link_failed",
     "ctrl.chain.events.revoke_failed"}};

// A session's resource demand is computable straight from the IR — before
// solving — and equals the committed footprint exactly (reserve takes
// ir.vmem_sizes words per vmem and one entry per node / per branch case).
// That exactness is what makes charge-at-admission quota accounting sound,
// and lets a revoke release the charge from the IR a removal leaves intact.
[[nodiscard]] std::uint64_t memory_demand(const rp::TranslatedProgram& ir) {
  std::uint64_t words = 0;
  for (const auto& [vmem, size] : ir.vmem_sizes) {
    (void)vmem;
    words += size;
  }
  return words;
}

[[nodiscard]] std::uint64_t entry_demand(const rp::TranslatedProgram& ir) {
  return static_cast<std::uint64_t>(ir.total_entries());
}

[[nodiscard]] Error name_conflict(const std::string& name) {
  return Error{"a program named '" + name + "' is already running", "Controller",
               ErrorCode::Conflict};
}

[[nodiscard]] std::vector<dp::RunproDataplane*> switches_of(dp::SwitchChain& chain) {
  std::vector<dp::RunproDataplane*> switches;
  for (int h = 0; h < chain.length(); ++h) switches.push_back(&chain.switch_at(h));
  return switches;
}

}  // namespace

/// One control operation holding the session lock: its causal trace scope
/// (bundle-shared state, so it lives inside the lock) and the virtual time
/// it holds the lock, observed into "ctrl.commit.lock_hold_ms". park()
/// releases the lock and the trace context while async writes drain and
/// re-adopts both, so a pipelined commit's hold collapses to the submit +
/// settle slivers while its update delay is unchanged.
class Controller::Session {
 public:
  explicit Session(Controller& controller)
      : c_(controller),
        lock_(controller.mu_),
        trace_(std::in_place, controller.telemetry_),
        start_ms_(controller.clock_.now_ms()) {}
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session() {
    held_ms_ += c_.clock_.now_ms() - start_ms_;
    c_.telemetry_->metrics.histogram("ctrl.commit.lock_hold_ms").observe(held_ms_);
  }

  /// Run `wait` with the lock released.
  template <typename Wait>
  void park(Wait&& wait) {
    held_ms_ += c_.clock_.now_ms() - start_ms_;
    const obs::TraceContext ctx = c_.telemetry_->active_trace;
    trace_.reset();  // shared state: never leave a context installed off-lock
    lock_.unlock();
    wait();
    lock_.lock();
    trace_.emplace(c_.telemetry_, ctx);  // finish-side spans carry our trace id
    start_ms_ = c_.clock_.now_ms();
  }
  [[nodiscard]] std::uint64_t trace_id() const { return trace_->trace_id(); }

 private:
  Controller& c_;
  std::unique_lock<std::mutex> lock_;
  std::optional<obs::TraceScope> trace_;
  double start_ms_;
  double held_ms_ = 0.0;
};

Controller::Controller(dp::SwitchChain* chain,
                       std::vector<dp::RunproDataplane*> switches, SimClock& clock,
                       rp::Objective objective, BfrtCostModel cost,
                       obs::Telemetry* telemetry)
    : chain_(chain),
      names_(chain != nullptr ? &kChainNames : &kSwitchNames),
      clock_(clock),
      objective_(objective),
      telemetry_(&obs::telemetry_or_default(telemetry)) {
  // One bundle for the whole stack: phase spans are stamped with this
  // controller's virtual clock, and every layer reports into one registry.
  telemetry_->tracer.set_clock(&clock_);
  telemetry_->monitor.set_clock(&clock_);
  for (dp::RunproDataplane* dataplane : switches) {
    hops_.push_back(std::make_unique<Hop>(*dataplane, clock_, cost));
    hops_.back()->updates.set_telemetry(telemetry_);
    if (chain_ != nullptr) hops_.back()->updates.set_hop_label(hop_count() - 1);
  }
  if (hops_.size() > 1) {
    solve_pool_ = std::make_unique<common::ThreadPool>(std::min<unsigned>(
        static_cast<unsigned>(hops_.size()), common::ThreadPool::default_thread_count()));
  }
}

Controller::Controller(dp::RunproDataplane& dataplane, SimClock& clock,
                       rp::Objective objective, BfrtCostModel cost,
                       obs::Telemetry* telemetry)
    : Controller(nullptr, {&dataplane}, clock, objective, cost, telemetry) {
  // A single switch also wires its data plane into the bundle. (A chain
  // does not: per-hop occupancy gauges would collide in one registry.)
  dataplane.attach_telemetry(telemetry_);
  dataplane.pipeline().set_observer(&telemetry_->monitor);
  hop_at(0).resources.attach_telemetry(telemetry_);
  // Admission gauges as probes: the admission controller is internally
  // synchronized, so sampling at export time is safe from any thread.
  telemetry_->metrics.register_probe("ctrl.tenant.queue_depth", this, [this] {
    return static_cast<double>(admission_.queue_depth());
  });
  telemetry_->metrics.register_probe("ctrl.tenant.inflight", this, [this] {
    return static_cast<double>(admission_.inflight());
  });
}

Controller::Controller(dp::SwitchChain& chain, SimClock& clock,
                       rp::Objective objective, BfrtCostModel cost,
                       obs::Telemetry* telemetry)
    : Controller(&chain, switches_of(chain), clock, objective, cost, telemetry) {}

Controller::~Controller() { telemetry_->metrics.unregister_probes(this); }

obs::ProgramHealthMonitor& Controller::monitor() noexcept {
  return telemetry_->monitor;
}

const obs::ProgramHealthMonitor& Controller::monitor() const noexcept {
  return telemetry_->monitor;
}

obs::FlightRecorder& Controller::flight_recorder() noexcept {
  return telemetry_->flight;
}

std::vector<ChainHop> Controller::hop_contexts() {
  std::vector<ChainHop> contexts;
  contexts.reserve(hops_.size());
  for (auto& hop : hops_) {
    contexts.push_back(ChainHop{&hop->dataplane, &hop->resources, &hop->updates});
  }
  return contexts;
}

std::vector<ResourceManager::Snapshot> Controller::snapshots_locked() const {
  std::vector<ResourceManager::Snapshot> snapshots;
  snapshots.reserve(hops_.size());
  for (const auto& hop : hops_) snapshots.push_back(hop->resources.snapshot());
  return snapshots;
}

bool Controller::pipelined() const {
  return std::all_of(hops_.begin(), hops_.end(),
                     [](const auto& hop) { return hop->updates.async(); });
}

void Controller::quiesce() const {
  for (const auto& hop : hops_) hop->updates.wait_idle();
}

ProgramId Controller::next_program_id() {
  if (!free_ids_.empty()) {
    const ProgramId id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  return next_id_++;
}

void Controller::recycle_failed_id(ProgramId id) {
  if (id == next_id_ - 1) {
    --next_id_;
    return;
  }
  // The id was drawn from the recycle pool (its previous occupant was
  // cleanly revoked); put it back.
  free_ids_.push_back(id);
}

void Controller::record_event(ControlEvent::Kind kind, ProgramId id,
                              const std::string& name, const std::string& detail) {
  events_.push_back(ControlEvent{kind, clock_.now_ms(), id, name, detail});
  if (events_.size() > 1024) events_.pop_front();
  telemetry_->metrics.counter(names_->event_counters[static_cast<std::size_t>(kind)])
      .inc();
}

Error Controller::fail_locked(ControlEvent::Kind kind, ProgramId id,
                              const std::string& name, int faulted_hop,
                              const Error& err) {
  if (id != 0) {
    if (chain_ != nullptr) {
      telemetry_->monitor.chain_txn_rolled_back(id, name, hop_count(), faulted_hop,
                                                err.str());
    } else {
      telemetry_->monitor.txn_rolled_back(id, name, err.str());
    }
  }
  record_event(kind, id, name, err.str());
  return err;
}

void Controller::note_commit(ProgramId id, const std::string& name) {
  if (chain_ != nullptr) {
    telemetry_->monitor.chain_txn_committed(id, name, hop_count());
  } else {
    telemetry_->monitor.txn_committed(id, name);
  }
}

void Controller::record_link_histograms(const LinkResult& result) {
  // Route the deployment-delay breakdown (LinkStats) through the registry:
  // the §6.2.1 quantities become queryable histograms.
  auto& m = telemetry_->metrics;
  if (chain_ != nullptr) {
    m.histogram("ctrl.chain.deploy_ms").observe(result.stats.deploy_ms());
    return;
  }
  m.histogram("ctrl.link.parse_ms").observe(result.stats.parse_ms);
  m.histogram("ctrl.link.alloc_ms").observe(result.stats.alloc_ms);
  m.histogram("ctrl.link.update_ms").observe(result.stats.update_ms);
  m.histogram("ctrl.link.deploy_ms").observe(result.stats.deploy_ms());
}

// --- link ------------------------------------------------------------------

Result<std::vector<LinkResult>> Controller::link(std::string_view source) {
  return link_unit(source, false);
}

Result<std::vector<LinkResult>> Controller::link_unit(std::string_view source,
                                                      bool single_program) {
  Session session(*this);
  auto link_span = telemetry_->tracer.span(names_->link_span, "ctrl");
  // Parse + check + translate. The paper measures ~2 ms average parse time
  // on the switch CPU; charge it to the simulated clock. compile_source
  // emits the "parse" and "translate" child spans.
  const double parse_start_ms = clock_.now_ms();
  auto compiled = rp::compile_source(source, telemetry_);
  clock_.advance_ms(2.0);
  if (!compiled.ok()) {
    return fail_locked(ControlEvent::Kind::LinkFailed, 0, "<compile>", -1,
                       compiled.error());
  }
  if (single_program && compiled.value().size() != 1) {
    return Error{"chain link expects a single-program source unit", "Controller",
                 ErrorCode::InvalidArgument};
  }
  const double parse_ms = clock_.now_ms() - parse_start_ms;

  std::vector<LinkResult> results;
  for (const auto& ir : compiled.value()) {
    auto deployed = deploy_locked(ir, 0);
    if (!deployed.ok()) {
      // All-or-nothing: revoke programs linked earlier in this unit.
      // (deploy_locked already audited the failure.)
      for (const auto& r : results) {
        const Status s = revoke_locked(r.id);
        assert(s.ok());
        (void)s;
      }
      return deployed.error();
    }
    adopt_locked(*deployed.value().txn, 0, true);
    record_event(ControlEvent::Kind::Link, deployed.value().result.id, ir.name);
    results.push_back(std::move(deployed.value().result));
    results.back().stats.parse_ms = parse_ms / static_cast<double>(compiled.value().size());
  }

  for (auto& r : results) {
    r.trace = session.trace_id();
    record_link_histograms(r);
  }
  link_span.arg("programs", static_cast<std::uint64_t>(results.size()));
  return results;
}

Result<LinkResult> Controller::link_single(std::string_view source) {
  auto results = link(source);
  if (!results.ok()) return results.error();
  if (results.value().size() != 1) {
    return Error{"expected exactly one program in source unit", "Controller",
                 ErrorCode::InvalidArgument};
  }
  return std::move(results.value().front());
}

Result<Controller::Deployed> Controller::deploy_locked(const rp::TranslatedProgram& ir,
                                                       ProgramId replacing) {
  auto fail = [&](const Error& err) {
    return fail_locked(ControlEvent::Kind::LinkFailed, 0, ir.name, -1, err);
  };
  if (chain_ != nullptr) {
    if (auto s = chain_->uniform_specs(); !s.ok()) return fail(s.error());
  }
  if (name_taken(ir.name, replacing)) return fail(name_conflict(ir.name));

  // Allocation (real measured solver time, §6.2.1 "allocation delay"). A
  // single switch solves inline and reports into the bundle; chain hops
  // solve on the pool, where the bundle is off limits.
  auto solve_span = telemetry_->tracer.span(names_->solve_span, "ctrl");
  if (chain_ != nullptr) solve_span.arg("hops", static_cast<std::uint64_t>(hops_.size()));
  WallTimer timer;
  auto allocs = solve_hops(ir, snapshots_locked(), chain_ != nullptr ? nullptr : telemetry_);
  const double alloc_ms =
      fixed_alloc_charge_ms_ ? *fixed_alloc_charge_ms_ : timer.elapsed_ms();
  clock_.advance_ms(alloc_ms);
  if (allocs.ok() && chain_ == nullptr) {
    solve_span.arg("nodes_explored", allocs.value().front().nodes_explored);
    solve_span.arg("rounds", static_cast<std::uint64_t>(allocs.value().front().rounds));
  }
  solve_span.end();
  if (!allocs.ok()) return fail(allocs.error());
  if (chain_ != nullptr) {
    if (auto s = check_mirror(ir, allocs.value()); !s.ok()) return fail(s.error());
  }
  return commit_locked(ir, std::move(allocs).take(), replacing, alloc_ms);
}

Result<std::vector<rp::AllocationResult>> Controller::solve_hops(
    const rp::TranslatedProgram& ir, std::vector<ResourceManager::Snapshot> snapshots,
    obs::Telemetry* telemetry) const {
  std::vector<rp::AllocationResult> allocs;
  allocs.reserve(hops_.size());
  if (hops_.size() == 1) {
    auto alloc = rp::solve_allocation(ir, hops_[0]->dataplane.spec(), snapshots[0],
                                      objective_, telemetry);
    if (!alloc.ok()) return alloc.error();
    allocs.push_back(std::move(alloc).take());
    return allocs;
  }
  // One solve per hop, in parallel, each against its hop's own snapshot.
  // Occupancies evolve in lockstep, so the solves are expected to agree —
  // check_mirror enforces it.
  std::vector<std::future<Result<rp::AllocationResult>>> futures;
  futures.reserve(hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    futures.push_back(solve_pool_->submit(
        [&ir, snapshot = std::move(snapshots[h]), &spec = hops_[h]->dataplane.spec(),
         objective = objective_] {
          return rp::solve_allocation(ir, spec, snapshot, objective, nullptr);
        }));
  }
  std::optional<Error> first_error;
  for (auto& future : futures) {
    auto alloc = future.get();
    if (!alloc.ok()) {
      if (!first_error) first_error = alloc.error();
      continue;
    }
    allocs.push_back(std::move(alloc).take());
  }
  if (first_error) return *first_error;
  return allocs;
}

Status Controller::check_mirror(const rp::TranslatedProgram& ir,
                                const std::vector<rp::AllocationResult>& allocs) const {
  for (std::size_t h = 1; h < allocs.size(); ++h) {
    if (allocs[h].x != allocs[0].x || allocs[h].vmem_rpb != allocs[0].vmem_rpb) {
      return Error{"per-hop allocations diverged at hop " + std::to_string(h) +
                       " — chain occupancies must evolve in lockstep",
                   "Controller", ErrorCode::Conflict};
    }
  }
  const int total_rpbs = chain_->spec_at(0).total_rpbs();
  if (auto s = dp::SwitchChain::chain_compatibility(ir.vmem_depths, allocs[0].x,
                                                    total_rpbs);
      !s.ok()) {
    return s;
  }
  if (allocs[0].rounds > chain_->length()) {
    return Error{"program '" + ir.name + "' needs " +
                     std::to_string(allocs[0].rounds) + " rounds but the chain "
                     "has only " + std::to_string(chain_->length()) + " hops",
                 "Controller", ErrorCode::InvalidArgument};
  }
  return {};
}

Result<Controller::Deployed> Controller::commit_locked(
    const rp::TranslatedProgram& ir, std::vector<rp::AllocationResult> allocs,
    ProgramId replacing, double alloc_ms, Session* session, bool may_retry) {
  // Transaction: reserve -> plan -> stage -> commit on every hop, rollback
  // on any fault.
  const ProgramId id = next_program_id();
  auto txn = std::make_unique<ChainTransaction>(hop_contexts(), ir, std::move(allocs),
                                                id, ++filter_generation_, replacing,
                                                telemetry_, chain_ != nullptr);
  if (auto s = txn->stage_all(); !s.ok()) {
    recycle_failed_id(id);
    if (may_retry && s.error().code == ErrorCode::AllocFailed) return s.error();
    return fail_locked(ControlEvent::Kind::LinkFailed, id, ir.name, txn->faulted_hop(),
                       s.error());
  }
  // Consistent update (simulated bfrt writes; §6.2.1 "update delay").
  Status committed;
  double update_ms = 0.0;
  if (session != nullptr && txn->pipelined()) {
    // Pipelined commit: submit under the lock, park OFF-lock while the
    // writers drain the channels, settle under the lock again. The name
    // guard keeps concurrent sessions from double-booking the name while
    // we are away; reservations and the staged batches are already ours.
    pending_names_.insert(ir.name);
    txn->submit_all();
    session->park([&] { txn->wait_all(); });
    committed = txn->finish_all();
    pending_names_.erase(ir.name);
    update_ms = txn->channel_ms();
  } else {
    // A serial single-switch call reports the commit as "install"; a chain
    // as chain_txn.commit.
    auto install_span = obs::span(
        chain_ != nullptr || session != nullptr ? nullptr : telemetry_, "install", "ctrl");
    const double update_start_ms = clock_.now_ms();
    committed = txn->commit_all();
    update_ms = clock_.now_ms() - update_start_ms;
  }
  if (!committed.ok()) {
    recycle_failed_id(id);
    return fail_locked(ControlEvent::Kind::LinkFailed, id, ir.name, txn->faulted_hop(),
                       committed.error());
  }
  note_commit(id, ir.name);
  return Deployed{LinkResult{id, ir.name, LinkStats{0.0, alloc_ms, update_ms}, 0},
                  std::move(txn)};
}

void Controller::adopt_locked(ChainTransaction& txn, TenantId tenant, bool charge) {
  auto& installed = txn.installed();
  assert(installed.size() == hops_.size());
  for (std::size_t h = 0; h < hops_.size(); ++h) {
    installed[h].tenant = tenant;
    hops_[h]->programs.insert_or_assign(txn.id(), std::move(installed[h]));
  }
  // Unchecked charge: serial/relink/defrag callers bypass the quota gate
  // (the concurrent session path charges at admission instead).
  if (charge) {
    const rp::TranslatedProgram& ir = hops_[0]->programs.at(txn.id()).ir;
    tenants_.charge(tenant, memory_demand(ir), entry_demand(ir));
  }
}

// --- concurrent sessions ----------------------------------------------------

std::vector<Result<LinkResult>> Controller::link_many(
    const std::vector<std::string>& sources, common::ThreadPool& pool,
    ParallelLinkOptions options) {
  std::vector<SessionSpec> sessions;
  sessions.reserve(sources.size());
  for (const auto& source : sources) sessions.push_back(SessionSpec{source, 0});
  return link_many(sessions, pool, options);
}

std::vector<Result<LinkResult>> Controller::link_many(
    const std::vector<SessionSpec>& sessions, common::ThreadPool& pool,
    ParallelLinkOptions options) {
  std::vector<std::future<Result<LinkResult>>> futures;
  futures.reserve(sessions.size());
  for (const auto& session : sessions) {
    futures.push_back(pool.submit(
        [this, &session, options] { return link_session(session, options); }));
  }
  std::vector<Result<LinkResult>> results;
  results.reserve(futures.size());
  for (auto& future : futures) results.push_back(future.get());
  return results;
}

Result<LinkResult> Controller::link_session(const SessionSpec& session,
                                            ParallelLinkOptions options) {
  // Compile + translate off-lock: pure compute over the source text. No
  // telemetry — the tracer and clock are shared state behind mu_.
  auto compiled = rp::compile_source(session.source, nullptr);
  if (!compiled.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    clock_.advance_ms(2.0);
    return fail_locked(ControlEvent::Kind::LinkFailed, 0, "<compile>", -1,
                       compiled.error());
  }
  if (compiled.value().size() != 1) {
    return Error{"link_many expects single-program source units", "Controller",
                 ErrorCode::InvalidArgument};
  }
  const rp::TranslatedProgram& ir = compiled.value().front();
  const TenantId tenant = session.tenant;

  // Admission gate. The controller BLOCKS queued sessions (weighted fair
  // order), so it runs strictly before mu_ is taken; a shed returns
  // immediately with AdmissionShed instead of spinning retries against a
  // saturated switch.
  WallTimer wait_timer;
  auto grant = admission_.acquire(tenant, tenants_.weight(tenant));
  if (!grant.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    telemetry_->metrics.counter("ctrl.tenant.shed").inc();
    telemetry_->monitor.admission_shed(tenant, ir.name, grant.error().str());
    return fail_locked(ControlEvent::Kind::LinkFailed, 0, ir.name, -1, grant.error());
  }
  const double queue_wait_ms = wait_timer.elapsed_ms();

  auto result = link_session_admitted(ir, tenant, options);
  admission_.release();

  std::lock_guard<std::mutex> lock(mu_);
  auto& m = telemetry_->metrics;
  m.counter("ctrl.tenant.admitted").inc();
  m.histogram("ctrl.tenant.queue_wait_ms").observe(queue_wait_ms);
  return result;
}

Result<LinkResult> Controller::link_session_admitted(
    const rp::TranslatedProgram& ir, TenantId tenant,
    ParallelLinkOptions options) {
  // Quota gate: charge the session's full demand up front (demand equals
  // the committed footprint exactly, see memory_demand) and refund on every
  // failure path. Charging before reserving keeps the invariant one-sided:
  // registry usage >= sum of installed footprints, so concurrent sessions
  // can never oversubscribe a quota between check and commit.
  const std::uint64_t mem_words = memory_demand(ir);
  const std::uint64_t entry_count = entry_demand(ir);
  if (auto s = tenants_.admit(tenant, mem_words, entry_count); !s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    telemetry_->metrics.counter("ctrl.tenant.quota_rejected").inc();
    return fail_locked(ControlEvent::Kind::LinkFailed, 0, ir.name, -1, s.error());
  }
  struct ChargeGuard {
    TenantRegistry& tenants;
    TenantId tenant;
    std::uint64_t mem, entries;
    bool armed = true;
    ~ChargeGuard() {
      if (armed) tenants.refund(tenant, mem, entries);
    }
  } charge_guard{tenants_, tenant, mem_words, entry_count};

  Error conflict{"parallel link: retries exhausted", "Controller",
                 ErrorCode::AllocFailed};
  for (int attempt = 0; attempt <= options.max_solve_retries; ++attempt) {
    // Solve against per-hop snapshots off-lock (the expensive phase runs in
    // parallel across sessions).
    std::vector<ResourceManager::Snapshot> snapshots;
    {
      std::lock_guard<std::mutex> lock(mu_);
      snapshots = snapshots_locked();
    }
    WallTimer timer;
    auto allocs = solve_hops(ir, std::move(snapshots), nullptr);
    const double solve_ms = timer.elapsed_ms();

    // Reservation + staged commit serialize under the session lock; the
    // clock, telemetry and audit log are only touched here. Each attempt is
    // its own session: the successful attempt's trace id is the one the
    // LinkResult reports.
    Session session(*this);
    if (attempt == 0) clock_.advance_ms(2.0);  // parse charge, once
    const double alloc_ms =
        fixed_alloc_charge_ms_ ? *fixed_alloc_charge_ms_ : solve_ms;
    clock_.advance_ms(alloc_ms);
    if (!allocs.ok()) {
      if (allocs.error().code == ErrorCode::AllocFailed && auto_defrag_ &&
          attempt < options.max_solve_retries) {
        // The snapshot had the words but not the contiguity: compact, then
        // burn a retry on the improved memory map instead of an unchanged
        // one. Bounded like every retry — a genuinely full switch still
        // exhausts the cap and reports AllocFailed.
        conflict = allocs.error();
        telemetry_->metrics.counter("ctrl.link.retries").inc();
        defragment_locked(DefragOptions{});
        continue;
      }
      return fail_locked(ControlEvent::Kind::LinkFailed, 0, ir.name, -1,
                         allocs.error());
    }
    if (chain_ != nullptr) {
      if (auto s = check_mirror(ir, allocs.value()); !s.ok()) {
        return fail_locked(ControlEvent::Kind::LinkFailed, 0, ir.name, -1, s.error());
      }
    }
    if (name_taken(ir.name, 0)) {
      return fail_locked(ControlEvent::Kind::LinkFailed, 0, ir.name, -1,
                         name_conflict(ir.name));
    }

    auto deployed = commit_locked(ir, std::move(allocs).take(), 0, alloc_ms, &session,
                                  attempt < options.max_solve_retries);
    if (!deployed.ok()) {
      if (deployed.error().code != ErrorCode::AllocFailed ||
          attempt == options.max_solve_retries) {
        return deployed.error();
      }
      // Another session took the resources between snapshot and lock:
      // re-snapshot and re-solve.
      conflict = deployed.error();
      telemetry_->metrics.counter("ctrl.link.retries").inc();
      if (auto_defrag_) defragment_locked(DefragOptions{});
      continue;
    }
    adopt_locked(*deployed.value().txn, tenant, false);
    charge_guard.armed = false;  // install owns the admission charge now
    LinkResult& result = deployed.value().result;
    record_event(ControlEvent::Kind::Link, result.id, ir.name);
    result.stats.parse_ms = 2.0;
    result.trace = session.trace_id();
    record_link_histograms(result);
    return std::move(result);
  }
  return conflict;
}

// --- relink / revoke ---------------------------------------------------------

Result<LinkResult> Controller::relink(ProgramId old_id, std::string_view source) {
  Session session(*this);
  if (auto s = check_revocable(old_id); !s.ok()) return s.error();
  auto relink_span = telemetry_->tracer.span(names_->relink_span, "ctrl");
  auto compiled = rp::compile_source(source, telemetry_);
  clock_.advance_ms(2.0);
  if (!compiled.ok()) return compiled.error();
  if (compiled.value().size() != 1) {
    return Error{"relink expects exactly one program", "Controller",
                 ErrorCode::InvalidArgument};
  }

  // Install the new version first (it stays invisible until its filters
  // land, and the fresh filter generation outranks the old one), then
  // retire the old version.
  auto deployed = deploy_locked(compiled.value().front(), old_id);
  if (!deployed.ok()) return deployed.error();
  if (auto s = replace_locked(old_id, deployed.value(), ""); !s.ok()) return s.error();
  deployed.value().result.trace = session.trace_id();
  return std::move(deployed.value().result);
}

Status Controller::replace_locked(ProgramId old_id, Deployed& deployed,
                                  const std::string& detail) {
  const InstalledProgram& old_program = hop_at(0).programs.at(old_id);
  const std::string old_name = old_program.name;
  // The new version stays attributed to the old version's tenant.
  const TenantId tenant = old_program.tenant;
  const ProgramId new_id = deployed.result.id;
  int faulted_hop = -1;
  if (auto s = remove_locked(old_id, &faulted_hop, nullptr); !s.ok()) {
    // The old version was restored on every hop; unwind the new one so
    // exactly the pre-relink truth remains.
    deployed.txn->unwind_commit();
    recycle_failed_id(new_id);
    return fail_locked(ControlEvent::Kind::LinkFailed, new_id, deployed.result.name,
                       faulted_hop, s.error());
  }
  adopt_locked(*deployed.txn, tenant, true);
  // Each surface keeps the audit order it has always reported.
  if (chain_ != nullptr) record_event(ControlEvent::Kind::Revoke, old_id, old_name);
  record_event(ControlEvent::Kind::Relink, new_id, deployed.result.name, detail);
  if (chain_ == nullptr) record_event(ControlEvent::Kind::Revoke, old_id, old_name);
  return {};
}

Status Controller::check_revocable(ProgramId id) const {
  if (program_unlocked(id) == nullptr) {
    return Error{"no running program with id " + std::to_string(id), "Controller",
                 ErrorCode::NotFound};
  }
  if (busy_ids_.count(id) != 0) {
    return Error{"program " + std::to_string(id) +
                     " has a revoke in flight on the async channel",
                 "Controller", ErrorCode::Conflict};
  }
  return {};
}

Status Controller::remove_locked(ProgramId id, int* faulted_hop, Session* session) {
  // The hop copies stay in the maps until the removal settled.
  std::vector<InstalledProgram*> programs;
  programs.reserve(hops_.size());
  for (auto& hop : hops_) programs.push_back(&hop->programs.at(id));
  ChainRemoval removal(hop_contexts(), std::move(programs));
  auto revoke_span = telemetry_->tracer.span(names_->revoke_span, "ctrl");
  Status removed;
  if (session != nullptr && pipelined()) {
    // Async revoke dance: submit the consistent removes under the lock,
    // park off-lock while the writers drain them, settle under the lock
    // again. The busy guard keeps relink/revoke sessions off this program
    // while the writers own its handle vectors.
    busy_ids_.insert(id);
    removal.submit();
    revoke_span.end();  // shared state: closed before the unlocked wait
    session->park([&] { removal.wait(); });
    removed = removal.finish();
    busy_ids_.erase(id);
  } else {
    removed = removal.remove();
  }
  if (!removed.ok()) {
    *faulted_hop = removal.faulted_hop();
    return removed;
  }
  const InstalledProgram& program = hop_at(0).programs.at(id);
  tenants_.release(program.tenant, memory_demand(program.ir), entry_demand(program.ir));
  for (auto& hop : hops_) hop->programs.erase(id);
  free_ids_.push_back(id);
  return {};
}

Status Controller::revoke(ProgramId id) {
  Session session(*this);
  return revoke_locked(id, &session);
}

Status Controller::revoke_locked(ProgramId id, Session* session) {
  if (auto s = check_revocable(id); !s.ok()) return s;
  const std::string name = hop_at(0).programs.at(id).name;
  int faulted_hop = -1;
  if (auto s = remove_locked(id, &faulted_hop, session); !s.ok()) {
    // The removal journals restored the program (fresh handles); it keeps
    // running and keeps all its resources.
    return fail_locked(ControlEvent::Kind::RevokeFailed, id, name, faulted_hop,
                       s.error());
  }
  record_event(ControlEvent::Kind::Revoke, id, name);
  return {};
}

Status Controller::revoke_by_name(const std::string& name) {
  Session session(*this);
  if (const InstalledProgram* program = program_by_name_unlocked(name)) {
    return revoke_locked(program->id);
  }
  return Error{"no running program named '" + name + "'", "Controller",
               ErrorCode::NotFound};
}

void Controller::set_async_writes(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& hop : hops_) hop->updates.set_async(enabled);
}

bool Controller::async_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pipelined();
}

// --- queries -----------------------------------------------------------------

const InstalledProgram* Controller::program_unlocked(ProgramId id) const {
  const auto& programs = hop_at(0).programs;
  const auto it = programs.find(id);
  return it == programs.end() ? nullptr : &it->second;
}

const InstalledProgram* Controller::program_by_name_unlocked(
    const std::string& name) const {
  for (const auto& [id, program] : hop_at(0).programs) {
    if (program.name == name) return &program;
  }
  return nullptr;
}

bool Controller::name_taken(const std::string& name, ProgramId replacing) const {
  if (pending_names_.count(name) != 0) return true;
  const InstalledProgram* existing = program_by_name_unlocked(name);
  return existing != nullptr && existing->id != replacing;
}

const InstalledProgram* Controller::program(ProgramId id) const {
  return program_at(0, id);
}

const InstalledProgram* Controller::program_at(int hop, ProgramId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  const auto& programs = hop_at(hop).programs;
  const auto it = programs.find(id);
  return it == programs.end() ? nullptr : &it->second;
}

const InstalledProgram* Controller::program_by_name(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  return program_by_name_unlocked(name);
}

std::vector<ProgramId> Controller::running_programs() const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  std::vector<ProgramId> ids;
  ids.reserve(hop_at(0).programs.size());
  for (const auto& [id, program] : hop_at(0).programs) ids.push_back(id);
  return ids;
}

std::size_t Controller::program_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  return hop_at(0).programs.size();
}

std::deque<ControlEvent> Controller::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  return events_;
}

Result<int> Controller::owning_hop_unlocked(ProgramId id,
                                            const std::string& vmem) const {
  if (chain_ == nullptr) return 0;
  const InstalledProgram* program = program_unlocked(id);
  if (program == nullptr) {
    return Error{"unknown program", "Controller", ErrorCode::NotFound};
  }
  const auto it = program->ir.vmem_depths.find(vmem);
  if (it == program->ir.vmem_depths.end() || it->second.empty()) {
    return Error{"unknown memory '" + vmem + "'", "Controller", ErrorCode::NotFound};
  }
  // Chain compatibility guarantees every access shares one round = one hop.
  const int logical = program->alloc.x[static_cast<std::size_t>(it->second.front() - 1)];
  return dp::recirc_round(logical, chain_->spec_at(0).total_rpbs());
}

Result<int> Controller::owning_hop(ProgramId id, const std::string& vmem) const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  return owning_hop_unlocked(id, vmem);
}

Result<Word> Controller::read_memory(ProgramId id, const std::string& vmem,
                                     MemAddr vaddr) const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  auto hop = owning_hop_unlocked(id, vmem);
  if (!hop.ok()) return hop.error();
  const Hop& h = hop_at(hop.value());
  return h.resources.read_virtual(h.dataplane, id, vmem, vaddr);
}

Status Controller::write_memory(ProgramId id, const std::string& vmem, MemAddr vaddr,
                                Word value) {
  std::lock_guard<std::mutex> lock(mu_);
  // Quiesce the async channels: the writers own the dataplanes while jobs
  // are in flight, and a CPU-side memory write must not race their writes.
  quiesce();
  auto hop = owning_hop_unlocked(id, vmem);
  if (!hop.ok()) return hop.error();
  Hop& h = hop_at(hop.value());
  return h.resources.write_virtual(h.dataplane, id, vmem, vaddr, value);
}

Result<std::vector<Word>> Controller::dump_memory(ProgramId id,
                                                  const std::string& vmem) const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  auto hop = owning_hop_unlocked(id, vmem);
  if (!hop.ok()) return hop.error();
  const Hop& h = hop_at(hop.value());
  return h.resources.dump_virtual(h.dataplane, id, vmem);
}

Result<rmt::HashAlgo> Controller::hash_algo_for(ProgramId id,
                                                const std::string& vmem) const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  const InstalledProgram* prog = program_unlocked(id);
  if (prog == nullptr) {
    return Error{"unknown program", "Controller", ErrorCode::NotFound};
  }
  const dp::RunproDataplane& dataplane = hop_at(0).dataplane;
  for (const auto& node : prog->ir.nodes) {
    const bool hashes_mem = node.op.kind == dp::OpKind::Hash5TupleMem ||
                            node.op.kind == dp::OpKind::HashHarMem;
    if (!hashes_mem || node.op.vmem != vmem) continue;
    const int logical = prog->alloc.x[static_cast<std::size_t>(node.depth - 1)];
    const int phys = dp::physical_rpb(logical, dataplane.spec().total_rpbs());
    return dataplane.rpb(phys).hash16_algo();
  }
  return Error{"program has no hash-addressed access to '" + vmem + "'",
               "Controller", ErrorCode::NotFound};
}

std::vector<rmt::Packet> Controller::drain_reports() {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  return hop_at(0).dataplane.pipeline().drain_cpu_queue();
}

std::uint64_t Controller::program_packets(ProgramId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  quiesce();
  // Hop 0 sees every packet; later chain hops only the recirculated rounds.
  return hop_at(0).dataplane.claimed_packets(id);
}

// --- defragmentation ---------------------------------------------------------

Result<DefragReport> Controller::defragment(DefragOptions options) {
  Session session(*this);
  return defragment_locked(options);
}

DefragReport Controller::defragment_locked(const DefragOptions& options) {
  auto defrag_span = telemetry_->tracer.span("defrag", "ctrl");
  // Quiesce the channels: a move revokes the old copy, and the writers must
  // not own any handle vectors while we walk the program table. Moves
  // themselves commit inline *through* the writers in async mode.
  quiesce();
  for (auto& hop : hops_) hop->updates.set_maintenance(true);

  // Hops evolve in lockstep, so hop 0's books decide every move.
  const ResourceManager& resources = hop_at(0).resources;
  DefragReport report;
  report.frag_start = resources.total_fragmentation_words();
  std::set<ProgramId> skip;  // programs whose move failed this pass
  while (static_cast<int>(report.moves.size()) < options.max_moves) {
    const std::uint64_t frag_now = resources.total_fragmentation_words();
    if (frag_now < options.min_gain_words) break;

    // Pick the move with the best *simulated* gain. Simulation replays the
    // exact reserve/release walk the transaction will take, so "gain" here
    // is what the metric will actually do — the monotonicity guarantee is
    // decided before any state changes.
    const auto snap = resources.snapshot();
    ProgramId best_id = 0;
    std::uint64_t best_after = frag_now;
    for (const auto& [id, program] : hop_at(0).programs) {
      if (busy_ids_.count(id) != 0 || skip.count(id) != 0) continue;
      if (program.placements.empty()) continue;
      std::uint64_t after = 0;
      if (!simulate_compaction(snap, program, &after)) continue;
      if (after < best_after) {
        best_after = after;
        best_id = id;
      }
    }
    if (best_id == 0 || frag_now - best_after < options.min_gain_words) break;

    auto moved = compact_program_locked(best_id);
    if (!moved.ok()) {
      // Rolled back (injected fault or transient entry pressure): state is
      // exactly as before the attempt. Skip the program for this pass.
      ++report.failed_moves;
      skip.insert(best_id);
      continue;
    }
    const std::uint64_t frag_after = resources.total_fragmentation_words();
    assert(frag_after == best_after && "defrag move diverged from simulation");

    DefragMove move;
    move.old_id = best_id;
    move.new_id = moved.value();
    move.name = hop_at(0).programs.at(moved.value()).name;
    move.frag_before = frag_now;
    move.frag_after = frag_after;
    telemetry_->monitor.defrag_moved(best_id, moved.value(), move.name, frag_now,
                                     frag_after);
    auto& m = telemetry_->metrics;
    m.counter("ctrl.defrag.moves").inc();
    m.counter("ctrl.defrag.words_reclaimed").inc(frag_now - frag_after);
    report.moves.push_back(std::move(move));
  }

  for (auto& hop : hops_) hop->updates.set_maintenance(false);
  report.frag_end = resources.total_fragmentation_words();
  telemetry_->metrics.counter("ctrl.defrag.passes").inc();
  defrag_span.arg("moves", static_cast<std::uint64_t>(report.moves.size()));
  defrag_span.arg("reclaimed_words", report.frag_start - report.frag_end);
  return report;
}

Result<ProgramId> Controller::compact_program_locked(ProgramId old_id) {
  // Local copies: the transaction holds the IR by reference for its whole
  // lifetime, and retiring the old copy erases its records mid-function.
  const rp::TranslatedProgram ir = hop_at(0).programs.at(old_id).ir;
  std::vector<rp::AllocationResult> allocs;
  allocs.reserve(hops_.size());
  for (const auto& hop : hops_) allocs.push_back(hop->programs.at(old_id).alloc);

  // Same pinned stages (the stored allocs), fresh first-fit placements;
  // replacing=old_id carries the old copy's memory bytes into the new
  // blocks inside the same transaction, so program state survives the move.
  auto deployed = commit_locked(ir, std::move(allocs), old_id, 0.0);
  if (!deployed.ok()) return deployed.error();
  if (auto s = replace_locked(old_id, deployed.value(), "defrag move"); !s.ok()) {
    return s.error();
  }
  return deployed.value().result.id;
}

void Controller::set_auto_defrag(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  auto_defrag_ = enabled;
}

bool Controller::auto_defrag() const {
  std::lock_guard<std::mutex> lock(mu_);
  return auto_defrag_;
}

}  // namespace p4runpro::ctrl
