// Fleet-config parser tests: the strict-validation contract of
// fleet/config.hpp (duplicate names, bad ports, unknown capability syntax,
// non-loopback hosts, bad factors) plus the capability-tag eligibility
// semantics (dimension-wise whitelisting with mode:/scenario:/*).

#include <gtest/gtest.h>

#include <string>

#include "fleet/config.hpp"

namespace eus::fleet {
namespace {

FleetConfig parse(const std::string& json) {
  return parse_fleet_config_text(json);
}

void expect_rejected(const std::string& json, const std::string& needle) {
  try {
    (void)parse_fleet_config_text(json);
    FAIL() << "config was accepted: " << json;
  } catch (const FleetConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error '" << e.what() << "' does not mention '" << needle << "'";
  }
}

TEST(FleetConfig, ParsesMinimalBackend) {
  const FleetConfig fleet =
      parse(R"({"backends":[{"name":"a","port":7471}]})");
  ASSERT_EQ(fleet.backends.size(), 1U);
  const BackendConfig& b = fleet.backends[0];
  EXPECT_EQ(b.name, "a");
  EXPECT_EQ(b.host, "127.0.0.1");
  EXPECT_EQ(b.port, 7471);
  EXPECT_TRUE(b.capabilities.empty());
  EXPECT_DOUBLE_EQ(b.speed_factor, 1.0);
  EXPECT_DOUBLE_EQ(b.watts, 1.0);
  EXPECT_EQ(b.max_in_flight, 32U);
  EXPECT_TRUE(b.enabled);
}

TEST(FleetConfig, ParsesFullDescriptor) {
  const FleetConfig fleet = parse(R"({"backends":[
    {"name":"big.box-1", "host":"localhost", "port":1,
     "capabilities":["mode:nsga2","scenario:dataset1","*"],
     "speed_factor":2.5, "watts":95.0, "max_in_flight":8,
     "enabled":false}]})");
  ASSERT_EQ(fleet.backends.size(), 1U);
  const BackendConfig& b = fleet.backends[0];
  EXPECT_EQ(b.name, "big.box-1");
  EXPECT_EQ(b.port, 1);
  EXPECT_EQ(b.capabilities.size(), 3U);
  EXPECT_DOUBLE_EQ(b.speed_factor, 2.5);
  EXPECT_DOUBLE_EQ(b.watts, 95.0);
  EXPECT_EQ(b.max_in_flight, 8U);
  EXPECT_FALSE(b.enabled);
}

TEST(FleetConfig, RejectsEmptyAndMissingBackendList) {
  expect_rejected(R"({"backends":[]})", "at least one");
  expect_rejected(R"({})", "backends");
  expect_rejected(R"({"backends":42})", "backends");
}

TEST(FleetConfig, RejectsDuplicateNames) {
  expect_rejected(R"({"backends":[{"name":"a","port":7471},
                                  {"name":"a","port":7472}]})",
                  "duplicate");
}

TEST(FleetConfig, RejectsDuplicateEndpoints) {
  expect_rejected(R"({"backends":[{"name":"a","port":7471},
                                  {"name":"b","port":7471}]})",
                  "duplicate");
}

TEST(FleetConfig, RejectsBadPorts) {
  expect_rejected(R"({"backends":[{"name":"a","port":0}]})", "port");
  expect_rejected(R"({"backends":[{"name":"a","port":65536}]})", "port");
  expect_rejected(R"({"backends":[{"name":"a","port":-1}]})", "port");
  expect_rejected(R"({"backends":[{"name":"a","port":1e300}]})", "port");
  expect_rejected(R"({"backends":[{"name":"a","port":7471.5}]})", "port");
  expect_rejected(R"({"backends":[{"name":"a","port":"7471"}]})", "port");
  expect_rejected(R"({"backends":[{"name":"a"}]})", "port");
}

TEST(FleetConfig, RejectsBadNames) {
  expect_rejected(R"({"backends":[{"name":"","port":7471}]})", "name");
  expect_rejected(R"({"backends":[{"name":"a b","port":7471}]})", "name");
  expect_rejected(R"({"backends":[{"port":7471}]})", "name");
}

TEST(FleetConfig, RejectsNonLoopbackHosts) {
  expect_rejected(
      R"({"backends":[{"name":"a","host":"10.0.0.7","port":7471}]})",
      "loopback");
}

TEST(FleetConfig, RejectsUnknownCapabilitySyntax) {
  expect_rejected(R"({"backends":[
      {"name":"a","port":7471,"capabilities":["gpu"]}]})",
                  "unknown capability syntax");
  expect_rejected(R"({"backends":[
      {"name":"a","port":7471,"capabilities":["mode:warp-drive"]}]})",
                  "mode");
  expect_rejected(R"({"backends":[
      {"name":"a","port":7471,"capabilities":["scenario:"]}]})",
                  "scenario");
  expect_rejected(R"({"backends":[
      {"name":"a","port":7471,"capabilities":[7]}]})",
                  "capabilit");
}

TEST(FleetConfig, RejectsBadFactorsAndCaps) {
  expect_rejected(
      R"({"backends":[{"name":"a","port":7471,"speed_factor":0}]})",
      "speed_factor");
  expect_rejected(
      R"({"backends":[{"name":"a","port":7471,"watts":-1}]})", "watts");
  expect_rejected(
      R"({"backends":[{"name":"a","port":7471,"max_in_flight":0}]})",
      "max_in_flight");
  expect_rejected(
      R"({"backends":[{"name":"a","port":7471,"max_in_flight":1e300}]})",
      "max_in_flight");
  expect_rejected(
      R"({"backends":[{"name":"a","port":7471,"max_in_flight":2.5}]})",
      "max_in_flight");
  expect_rejected(
      R"({"backends":[{"name":"a","port":7471,"enabled":"yes"}]})",
      "enabled");
}

TEST(FleetConfig, RejectsInvalidJson) {
  EXPECT_THROW((void)parse_fleet_config_text("{nope"), FleetConfigError);
}

TEST(FleetCapabilities, EmptyListAndStarAcceptEverything) {
  EXPECT_TRUE(capabilities_allow({}, "nsga2", "dataset1"));
  EXPECT_TRUE(capabilities_allow({"*"}, "heuristic", "inline"));
}

TEST(FleetCapabilities, ModeTagsWhitelistModes) {
  const std::vector<std::string> caps = {"mode:nsga2", "mode:pareto-query"};
  EXPECT_TRUE(capabilities_allow(caps, "nsga2", "dataset1"));
  EXPECT_TRUE(capabilities_allow(caps, "pareto-query", "dataset2"));
  EXPECT_FALSE(capabilities_allow(caps, "heuristic", "dataset1"));
}

TEST(FleetCapabilities, ScenarioTagsWhitelistScenarios) {
  const std::vector<std::string> caps = {"scenario:dataset1"};
  EXPECT_TRUE(capabilities_allow(caps, "nsga2", "dataset1"));
  EXPECT_FALSE(capabilities_allow(caps, "nsga2", "dataset2"));
}

TEST(FleetCapabilities, DimensionsComposeIndependently) {
  const std::vector<std::string> caps = {"mode:nsga2", "scenario:dataset1"};
  EXPECT_TRUE(capabilities_allow(caps, "nsga2", "dataset1"));
  EXPECT_FALSE(capabilities_allow(caps, "nsga2", "dataset2"));
  EXPECT_FALSE(capabilities_allow(caps, "heuristic", "dataset1"));
  // "*" is the documented escape hatch: it accepts everything even next
  // to narrower tags.
  const std::vector<std::string> star = {"*", "mode:nsga2"};
  EXPECT_TRUE(capabilities_allow(star, "heuristic", "dataset1"));
}

}  // namespace
}  // namespace eus::fleet
