// Control-session surface: the observable footprint of one fixed session
// script — link, relink, revoke, a pool-driven session link, a failed link
// (name conflict) and a final revoke — on a single-switch Controller and on
// a 2-hop ChainController, with the control channel serial and async. Per
// step it pins the result, the LinkStats virtual milliseconds, the bfrt
// writes each hop's engine applied and the spans the step recorded (the
// full tree for single-switch roots, whose txn.* phases the benchmark
// ledger adopts; root names for chain sessions). At the end it pins the
// audit log (kinds and ids), the lifecycle counters of both families and
// the monitor's event kinds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "common/thread_pool.h"
#include "control/chain_controller.h"
#include "control/controller.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/switch_chain.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

std::string source(const std::string& templ, const std::string& name) {
  apps::ProgramConfig config;
  config.instance_name = name;
  config.mem_buckets = 64;
  return apps::make_program_source(templ, config);
}

dp::DataplaneSpec chain_spec() {
  dp::DataplaneSpec spec;
  spec.memory_per_rpb = 4096;
  spec.entries_per_rpb = 256;
  spec.max_recirculations = 1;
  return spec;
}

/// `name(child,child*3,...)`: a span subtree, runs of identical childless
/// siblings collapsed to `name*count`.
std::string render(const obs::SpanTracer& tracer, std::size_t index) {
  std::string out = tracer.spans()[index].name;
  const auto children = tracer.children_of(index);
  if (children.empty()) return out;
  out += "(";
  for (std::size_t i = 0; i < children.size();) {
    std::string child = render(tracer, children[i]);
    std::size_t run = 1;
    while (i + run < children.size() &&
           render(tracer, children[i + run]) == child &&
           tracer.children_of(children[i]).empty()) {
      ++run;
    }
    if (i != 0) out += ",";
    out += child;
    if (run > 1) out += "*" + std::to_string(run);
    i += run;
  }
  return out + ")";
}

/// The spans recorded since the last call: every root as a full tree
/// (single switch), or the names of the control-operation roots (chain;
/// bfrt spans a parked session replays after re-taking the lock are not
/// operation roots).
std::string take_spans(obs::Telemetry& telemetry, bool trees) {
  auto& tracer = telemetry.tracer;
  std::string out;
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const obs::SpanRecord& span = tracer.spans()[i];
    if (span.parent != -1 || (!trees && span.cat != "ctrl")) continue;
    if (!out.empty()) out += " ";
    out += trees ? render(tracer, i) : span.name;
  }
  tracer.clear();
  return out;
}

std::string stats(const ctrl::LinkStats& s) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "parse=%.3f alloc=%.3f update=%.3f", s.parse_ms,
                s.alloc_ms, s.update_ms);
  return buf;
}

const char* monitor_kind(obs::MonitorEvent::Kind kind) {
  switch (kind) {
    case obs::MonitorEvent::Kind::Deploy: return "deploy";
    case obs::MonitorEvent::Kind::Revoke: return "revoke";
    case obs::MonitorEvent::Kind::Alert: return "alert";
    case obs::MonitorEvent::Kind::TxnCommit: return "txn_commit";
    case obs::MonitorEvent::Kind::TxnRollback: return "txn_rollback";
    case obs::MonitorEvent::Kind::ChainTxnCommit: return "chain_txn_commit";
    case obs::MonitorEvent::Kind::ChainTxnRollback: return "chain_txn_rollback";
    case obs::MonitorEvent::Kind::AdmissionShed: return "admission_shed";
    case obs::MonitorEvent::Kind::DefragMove: return "defrag_move";
  }
  return "?";
}

const char* kind_name(ctrl::ControlEvent::Kind kind) {
  switch (kind) {
    case ctrl::ControlEvent::Kind::Link: return "link";
    case ctrl::ControlEvent::Kind::Relink: return "relink";
    case ctrl::ControlEvent::Kind::Revoke: return "revoke";
    case ctrl::ControlEvent::Kind::LinkFailed: return "link_failed";
    case ctrl::ControlEvent::Kind::RevokeFailed: return "revoke_failed";
  }
  return "?";
}

/// What one script run left behind.
struct Surface {
  std::vector<std::string> steps;  ///< per step: outcome | stats | writes | spans
  std::string audit;               ///< "kind:id ..." in log order
  std::string counters;            ///< "name=value ..." for both families
  std::string monitor;             ///< monitor event kinds in stream order
};

/// Run the script against `controller` (a Controller or ChainController).
/// `link` performs the serial single-program link; `writes` reads the
/// per-hop writes_applied counters.
template <typename Ctrl, typename LinkFn, typename WritesFn>
Surface run_script(Ctrl& controller, obs::Telemetry& telemetry, bool trees,
                   LinkFn link, WritesFn writes) {
  Surface out;
  controller.set_fixed_alloc_charge_ms(5.0);
  common::ThreadPool pool(1);
  telemetry.tracer.clear();

  auto step = [&](const std::string& what, auto&& op) {
    const std::vector<std::uint64_t> before = writes();
    const std::string outcome = op();
    const std::vector<std::uint64_t> after = writes();
    std::string line = what + " " + outcome + " | writes";
    for (std::size_t h = 0; h < after.size(); ++h) {
      line += " " + std::to_string(after[h] - before[h]);
    }
    line += " | " + take_spans(telemetry, trees);
    out.steps.push_back(line);
  };
  auto linked = [](const Result<ctrl::LinkResult>& r) -> std::string {
    if (!r.ok()) return "err " + std::string(error_code_name(r.error().code));
    return "id " + std::to_string(r.value().id) + " | " + stats(r.value().stats);
  };
  auto status = [](const Status& s) -> std::string {
    return s.ok() ? "ok" : "err " + std::string(error_code_name(s.error().code));
  };

  ProgramId id = 0;
  step("link", [&] {
    auto r = link(source("cache", "cache"));
    if (r.ok()) id = r.value().id;
    return linked(r);
  });
  step("relink", [&] {
    auto r = controller.relink(id, source("cache", "cache"));
    if (r.ok()) id = r.value().id;
    return linked(r);
  });
  step("revoke", [&] { return status(controller.revoke(id)); });
  step("session", [&] {
    auto results = controller.link_many({source("hh", "hh")}, pool);
    if (results.front().ok()) id = results.front().value().id;
    return linked(results.front());
  });
  step("conflict", [&] { return linked(link(source("hh", "hh"))); });
  step("revoke", [&] { return status(controller.revoke(id)); });

  for (const auto& event : controller.events()) {
    if (!out.audit.empty()) out.audit += " ";
    out.audit += std::string(kind_name(event.kind)) + ":" + std::to_string(event.id);
  }
  for (const char* family : {"ctrl.events.", "ctrl.chain.events."}) {
    for (const char* kind :
         {"link", "relink", "revoke", "link_failed", "revoke_failed"}) {
      const std::string name = std::string(family) + kind;
      const auto* counter = telemetry.metrics.find_counter(name);
      if (counter == nullptr) continue;
      if (!out.counters.empty()) out.counters += " ";
      out.counters += name + "=" + std::to_string(counter->value());
    }
  }
  for (const auto& event : telemetry.monitor.events()) {
    if (!out.monitor.empty()) out.monitor += " ";
    out.monitor += monitor_kind(event.kind);
  }
  return out;
}

Surface single_surface(bool async) {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  controller.set_async_writes(async);
  return run_script(
      controller, telemetry, true,
      [&](const std::string& src) { return controller.link_single(src); },
      [&] { return std::vector<std::uint64_t>{controller.updates().writes_applied()}; });
}

Surface chain_surface(bool async) {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::SwitchChain chain(2, chain_spec(), rmt::ParserConfig{{7777}});
  ctrl::ChainController controller(chain, clock, {}, {}, &telemetry);
  controller.set_async_writes(async);
  return run_script(
      controller, telemetry, false,
      [&](const std::string& src) { return controller.link(src); },
      [&] {
        return std::vector<std::uint64_t>{controller.updates(0).writes_applied(),
                                          controller.updates(1).writes_applied()};
      });
}

void expect_steps(const Surface& got, const std::vector<std::string>& want) {
  ASSERT_EQ(got.steps.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got.steps[i], want[i]) << "step " << i;
  }
}

// Audit, counters and monitor kinds are the same for both channel modes.
// Relink audits the new version and the retired one in a different order on
// the two surfaces.
constexpr const char* kSingleAudit =
    "link:1 relink:2 revoke:1 revoke:2 link:2 link_failed:0 revoke:2";
constexpr const char* kSingleCounters =
    "ctrl.events.link=2 ctrl.events.relink=1 ctrl.events.revoke=3 "
    "ctrl.events.link_failed=1";
constexpr const char* kSingleMonitor =
    "deploy txn_commit deploy txn_commit revoke revoke deploy txn_commit "
    "revoke";

constexpr const char* kChainAudit =
    "link:1 revoke:1 relink:2 revoke:2 link:2 link_failed:0 revoke:2";
constexpr const char* kChainCounters =
    "ctrl.chain.events.link=2 ctrl.chain.events.relink=1 "
    "ctrl.chain.events.revoke=3 ctrl.chain.events.link_failed=1";
constexpr const char* kChainMonitor =
    "deploy deploy chain_txn_commit deploy deploy chain_txn_commit revoke "
    "revoke revoke revoke deploy deploy chain_txn_commit revoke revoke";

TEST(SessionSurface, SingleSwitchSerial) {
  const Surface s = single_surface(false);
  expect_steps(s, {
      "link id 1 | parse=2.000 alloc=5.000 update=10.500 | writes 18 | "
      "link(parse,translate,solve,txn.reserve,entrygen,txn.stage,"
      "install(txn.commit(bfrt.batch*3)))",
      "relink id 2 | parse=0.000 alloc=5.000 update=10.500 | writes 38 | "
      "relink(parse,translate,solve,txn.reserve,entrygen,txn.stage,"
      "install(txn.commit(bfrt.batch*3)),revoke(bfrt.batch*3,bfrt.mem_reset))",
      "revoke ok | writes 19 | revoke(bfrt.batch*3,bfrt.mem_reset)",
      "session id 2 | parse=2.000 alloc=5.000 update=18.500 | writes 31 | "
      "txn.reserve entrygen txn.stage txn.commit(bfrt.batch*3)",
      "conflict err Conflict | writes 0 | link(parse,translate)",
      "revoke ok | writes 35 | revoke(bfrt.batch*3,bfrt.mem_reset*4)",
  });
  EXPECT_EQ(s.audit, kSingleAudit);
  EXPECT_EQ(s.counters, kSingleCounters);
  EXPECT_EQ(s.monitor, kSingleMonitor);
}

TEST(SessionSurface, SingleSwitchAsync) {
  // The async commit span closes at submission; the channel's bfrt spans
  // are replayed when the write settles (after the park, for sessions and
  // revokes).
  const Surface s = single_surface(true);
  expect_steps(s, {
      "link id 1 | parse=2.000 alloc=5.000 update=10.500 | writes 18 | "
      "link(parse,translate,solve,txn.reserve,entrygen,txn.stage,"
      "install(txn.commit,bfrt.batch*3))",
      "relink id 2 | parse=0.000 alloc=5.000 update=10.500 | writes 38 | "
      "relink(parse,translate,solve,txn.reserve,entrygen,txn.stage,"
      "install(txn.commit,bfrt.batch*3),revoke(bfrt.batch*3,bfrt.mem_reset))",
      "revoke ok | writes 19 | "
      "revoke bfrt.batch bfrt.batch bfrt.batch bfrt.mem_reset",
      "session id 2 | parse=2.000 alloc=5.000 update=18.500 | writes 31 | "
      "txn.reserve entrygen txn.stage txn.commit bfrt.batch bfrt.batch "
      "bfrt.batch",
      "conflict err Conflict | writes 0 | link(parse,translate)",
      "revoke ok | writes 35 | revoke bfrt.batch bfrt.batch bfrt.batch "
      "bfrt.mem_reset bfrt.mem_reset bfrt.mem_reset bfrt.mem_reset",
  });
  EXPECT_EQ(s.audit, kSingleAudit);
  EXPECT_EQ(s.counters, kSingleCounters);
  EXPECT_EQ(s.monitor, kSingleMonitor);
}

TEST(SessionSurface, ChainSerial) {
  // The serial channel replays the op-log once per hop.
  const Surface s = chain_surface(false);
  expect_steps(s, {
      "link id 1 | parse=2.000 alloc=5.000 update=21.000 | writes 18 18 | "
      "chain_link",
      "relink id 2 | parse=0.000 alloc=5.000 update=21.000 | writes 38 38 | "
      "chain_relink",
      "revoke ok | writes 19 19 | chain_revoke",
      "session id 2 | parse=2.000 alloc=5.000 update=37.000 | writes 31 31 | "
      "chain_txn.stage chain_txn.commit",
      "conflict err Conflict | writes 0 0 | chain_link",
      "revoke ok | writes 35 35 | chain_revoke",
  });
  EXPECT_EQ(s.audit, kChainAudit);
  EXPECT_EQ(s.counters, kChainCounters);
  EXPECT_EQ(s.monitor, kChainMonitor);
}

TEST(SessionSurface, ChainAsync) {
  // Pipelined phase 2: the hops' channels drain concurrently, so a chain
  // update costs what one hop's does.
  const Surface s = chain_surface(true);
  expect_steps(s, {
      "link id 1 | parse=2.000 alloc=5.000 update=10.500 | writes 18 18 | "
      "chain_link",
      "relink id 2 | parse=0.000 alloc=5.000 update=10.500 | writes 38 38 | "
      "chain_relink",
      "revoke ok | writes 19 19 | chain_revoke",
      "session id 2 | parse=2.000 alloc=5.000 update=18.500 | writes 31 31 | "
      "chain_txn.stage chain_txn.commit",
      "conflict err Conflict | writes 0 0 | chain_link",
      "revoke ok | writes 35 35 | chain_revoke",
  });
  EXPECT_EQ(s.audit, kChainAudit);
  EXPECT_EQ(s.counters, kChainCounters);
  EXPECT_EQ(s.monitor, kChainMonitor);
}

}  // namespace
}  // namespace p4runpro
