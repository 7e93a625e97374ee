// Inline channel: without a writer thread, the split submit/finish API runs
// the same job on the caller's thread and settles it before submit returns.
// submit_install + finish_install and submit_remove + finish_remove must
// leave exactly the footprint of execute_install / remove — virtual clock,
// dataplane state, memory occupancy, bfrt spans (names, parents, virtual
// times, args, trace ids) and the ctrl.bfrt.* counters — on a clean run and
// on a remove that faults after its first memory reset.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "apps/program_library.h"
#include "common/clock.h"
#include "compiler/entrygen.h"
#include "control/controller.h"
#include "control/resource_manager.h"
#include "control/update_engine.h"
#include "dataplane/runpro_dataplane.h"
#include "dataplane/write_op.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace p4runpro {
namespace {

/// A program linked on a scratch controller: its plan and placements are
/// replayed on the engines under test.
ctrl::InstalledProgram linked_program(const std::string& templ) {
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock);
  apps::ProgramConfig config;
  config.instance_name = templ;
  config.mem_buckets = 64;
  auto linked = controller.link_single(apps::make_program_source(templ, config));
  EXPECT_TRUE(linked.ok()) << linked.error().str();
  return *controller.program(linked.value().id);
}

/// One switch with a serial engine, the program's blocks already reserved.
struct Bed {
  SimClock clock;
  obs::Telemetry telemetry;
  dp::RunproDataplane dataplane{dp::DataplaneSpec{}, rmt::ParserConfig{{7777}}};
  ctrl::ResourceManager resources{dataplane.spec()};
  ctrl::UpdateEngine engine{dataplane, resources, clock};

  explicit Bed(const ctrl::InstalledProgram& program) {
    telemetry.tracer.set_clock(&clock);
    engine.set_telemetry(&telemetry);
    for (const auto& [vmem, placement] : program.placements) {
      EXPECT_TRUE(resources.reclaim_block(placement.rpb, placement.block).ok()) << vmem;
    }
  }
};

/// Everything a write leaves behind that the two call forms must share.
struct Footprint {
  SimClock::Nanos clock_ns = 0;
  std::vector<std::size_t> table_sizes;
  std::vector<std::vector<Word>> memory;
  std::size_t recirc_entries = 0;
  double memory_utilization = 0.0;
  std::vector<std::string> spans;
  std::vector<std::string> counters;

  friend bool operator==(const Footprint&, const Footprint&) = default;
};

Footprint footprint(Bed& bed) {
  Footprint out;
  out.clock_ns = bed.clock.now_ns();
  auto& plane = bed.dataplane;
  for (int rpb = 1; rpb <= plane.spec().total_rpbs(); ++rpb) {
    out.table_sizes.push_back(plane.rpb(rpb).table().size());
    std::vector<Word> words;
    for (std::uint32_t a = 0; a < plane.spec().memory_per_rpb; ++a) {
      words.push_back(plane.rpb(rpb).memory().read(a));
    }
    out.memory.push_back(std::move(words));
  }
  out.recirc_entries = plane.recirc_block().entries();
  out.memory_utilization = bed.resources.total_memory_utilization();
  for (const obs::SpanRecord& span : bed.telemetry.tracer.spans()) {
    std::string line = span.name + " cat=" + span.cat +
                       " parent=" + std::to_string(span.parent) +
                       " trace=" + std::to_string(span.trace) + " [" +
                       std::to_string(span.start_vns) + "," +
                       std::to_string(span.end_vns) + "]" +
                       (span.open ? " open" : "");
    for (const auto& [key, value] : span.args) line += " " + key + "=" + value;
    out.spans.push_back(std::move(line));
  }
  const auto& metrics = bed.telemetry.metrics;
  for (const char* name : {"ctrl.bfrt.batches", "ctrl.bfrt.entry_writes",
                           "ctrl.bfrt.mem_resets", "ctrl.bfrt.maintenance_batches",
                           "ctrl.bfrt.coalesced_batches"}) {
    const auto* counter = metrics.find_counter(name);
    out.counters.push_back(std::string(name) + "=" +
                           (counter ? std::to_string(counter->value()) : "absent"));
  }
  const auto* entries = metrics.find_histogram("ctrl.bfrt.batch_entries");
  out.counters.push_back("batch_entries=" +
                         (entries ? std::to_string(entries->count()) + "/" +
                                        std::to_string(entries->sum())
                                  : std::string("absent")));
  return out;
}

[[nodiscard]] bool ready(const std::shared_future<void>& done) {
  return done.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

/// Install then remove `program` on `bed` under one traced "op" span,
/// either through the single calls or through submit + finish. Remove
/// faults after `remove_fault` writes (-1: clean). Returns the remove result.
Status install_and_remove(Bed& bed, ctrl::InstalledProgram program, bool split,
                          int remove_fault) {
  obs::TraceScope trace(&bed.telemetry);
  auto op = bed.telemetry.tracer.span("op", "test");
  dp::WriteBatch batch;
  rp::stage_install(program.plan, batch);

  Result<ctrl::UpdateEngine::AppliedEntries> applied = Error{"unset", "test"};
  if (split) {
    auto pending = bed.engine.submit_install(batch);
    EXPECT_TRUE(ready(pending.done)) << "inline install still pending at submit";
    EXPECT_TRUE(pending.settled);
    applied = bed.engine.finish_install(pending);
  } else {
    applied = bed.engine.execute_install(batch);
  }
  EXPECT_TRUE(applied.ok());
  if (!applied.ok()) return applied.error();
  program.filter_handles = applied.value().filter_handles;
  program.rpb_handles = applied.value().rpb_handles;
  program.recirc_handles = applied.value().recirc_handles;

  bed.engine.set_fault_after_writes(remove_fault);
  if (!split) return bed.engine.remove(program);
  auto pending = bed.engine.submit_remove(program);
  EXPECT_TRUE(ready(pending.done)) << "inline remove still pending at submit";
  EXPECT_TRUE(pending.settled);
  EXPECT_EQ(pending.faulted(), remove_fault >= 0);
  return bed.engine.finish_remove(pending);
}

TEST(InlineChannel, SplitCallsMatchExecuteInstallAndRemove) {
  const ctrl::InstalledProgram program = linked_program("hh");
  ASSERT_GT(program.placements.size(), 1u);
  Bed single(program);
  Bed split(program);
  ASSERT_TRUE(install_and_remove(single, program, false, -1).ok());
  ASSERT_TRUE(install_and_remove(split, program, true, -1).ok());

  const Footprint want = footprint(single);
  EXPECT_GT(want.clock_ns, 0u);
  EXPECT_EQ(want.memory_utilization, 0.0);  // every reset block came back
  EXPECT_EQ(footprint(split), want);
}

TEST(InlineChannel, SplitRemoveFaultMatchesRemove) {
  // A remove faulting after its first memory reset: the block stays
  // reserved (its free waits for the settle), only its bytes come back.
  const ctrl::InstalledProgram program = linked_program("hh");
  dp::WriteBatch removal;
  rp::stage_remove(program.plan, program.filter_handles, program.rpb_handles,
                   program.recirc_handles, program.placements, removal);
  int first_reset = 0;
  while (removal.ops[static_cast<std::size_t>(first_reset)].kind !=
         dp::WriteOp::Kind::ResetMemRange) {
    ++first_reset;
  }
  Bed single(program);
  Bed split(program);
  const Status a = install_and_remove(single, program, false, first_reset + 1);
  const Status b = install_and_remove(split, program, true, first_reset + 1);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(a.error().code, ErrorCode::ChannelError);
  EXPECT_EQ(b.error().code, ErrorCode::ChannelError);

  const Footprint want = footprint(single);
  EXPECT_GT(want.memory_utilization, 0.0);  // the program still holds its blocks
  EXPECT_EQ(footprint(split), want);
}

}  // namespace
}  // namespace p4runpro
