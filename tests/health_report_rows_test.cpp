// Health dashboard event tail: every monitor event kind renders its own
// row, labelled with the kind's event token.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "apps/program_library.h"
#include "common/clock.h"
#include "control/controller.h"
#include "control/inspect.h"
#include "dataplane/runpro_dataplane.h"
#include "obs/telemetry.h"

namespace p4runpro {
namespace {

int rows_containing(const std::string& report, const std::string& needle) {
  std::istringstream in(report);
  int rows = 0;
  for (std::string line; std::getline(in, line);) {
    rows += line.find(needle) != std::string::npos ? 1 : 0;
  }
  return rows;
}

TEST(HealthReportRows, OneLinkShowsOneDeployAndOneTxnCommitRow) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  apps::ProgramConfig config;
  config.instance_name = "cache";
  ASSERT_TRUE(controller.link_single(apps::make_program_source("cache", config)).ok());

  const std::string report = ctrl::health_report(telemetry);
  EXPECT_EQ(rows_containing(report, "] deploy  1 'cache'"), 1) << report;
  EXPECT_EQ(rows_containing(report, "] txn_commit 1 'cache'"), 1) << report;
}

TEST(HealthReportRows, RollbackRowCarriesTheError) {
  obs::Telemetry telemetry;
  SimClock clock;
  dp::RunproDataplane dataplane(dp::DataplaneSpec{}, rmt::ParserConfig{{7777}});
  ctrl::Controller controller(dataplane, clock, {}, {}, &telemetry);
  apps::ProgramConfig config;
  config.instance_name = "cache";
  controller.updates().set_fault_after_writes(0);
  ASSERT_FALSE(controller.link_single(apps::make_program_source("cache", config)).ok());

  const std::string report = ctrl::health_report(telemetry);
  EXPECT_EQ(rows_containing(report, "] txn_rollback 1 'cache': [ChannelError]"), 1)
      << report;
  EXPECT_EQ(rows_containing(report, "] deploy "), 0) << report;
}

}  // namespace
}  // namespace p4runpro
