// Chain controller: the runtime-programming API for a dp::SwitchChain — the
// paper's multi-switch alternative to recirculation (§4.1.3/§5), driven as
// ONE logical control plane. It is ctrl::Controller's session core built
// over the chain's switches: a deploy mirrors the program on every hop
// under a single ProgramId (RPB entry keys embed the program id and the
// recirculation id doubles as the hop count, so ids MUST match chain-wide),
// and a control-channel fault at any (hop, write index) restores the whole
// chain byte-identically (ctrl::ChainTransaction / ctrl::ChainRemoval).
// Only this core runs the mirror checks — uniform specs, chain
// compatibility, rounds <= hops, per-hop solves that must agree because
// hop occupancies change in lockstep — labels each hop's bfrt spans, and
// reports under the chain names (chain_link / chain_relink / chain_revoke,
// chain_txn.*, ctrl.chain.events.*, chain_txn_commit / chain_txn_rollback,
// ctrl.chain.deploy_ms).
#pragma once

#include <string_view>
#include <utility>

#include "common/clock.h"
#include "common/result.h"
#include "control/controller.h"
#include "dataplane/switch_chain.h"

namespace p4runpro::ctrl {

class ChainController : public Controller {
 public:
  /// The chain must have uniform specs (checked on every link; see
  /// dp::SwitchChain::uniform_specs). Unlike a single-switch Controller
  /// this does NOT attach per-hop pipeline observers or resource probes to
  /// `telemetry` — hop-level occupancy gauges would collide across hops in
  /// one registry; the chain-wide monitor events and chain_txn.* spans are
  /// the chain's observability surface.
  ChainController(dp::SwitchChain& chain, SimClock& clock,
                  rp::Objective objective = {}, BfrtCostModel cost = {},
                  obs::Telemetry* telemetry = nullptr)
      : Controller(chain, clock, objective, cost, telemetry) {}

  /// Link a single-program source unit on every hop, atomically chain-wide.
  Result<LinkResult> link(std::string_view source) {
    auto results = link_unit(source, true);
    if (!results.ok()) return results.error();
    return std::move(results.value().front());
  }

  [[nodiscard]] int length() const noexcept { return hop_count(); }
  using Controller::owning_hop;
  using Controller::program_at;
  using Controller::resources;
  using Controller::updates;
};

}  // namespace p4runpro::ctrl
