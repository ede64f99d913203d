#include "agent/tools.h"

#include <gtest/gtest.h>

#include "tests/agent/agent_fixture.h"

namespace cp::agent {
namespace {

using testing::AgentFixture;

class ToolsTest : public AgentFixture {};

TEST_F(ToolsTest, RegistryListsStandardTools) {
  for (const char* name : {"topology_generation", "topology_legalization", "topology_extension",
                           "topology_modification", "topology_analysis"}) {
    EXPECT_TRUE(tools_.has(name)) << name;
    EXPECT_FALSE(tools_.spec(name).documentation.empty());
  }
}

TEST_F(ToolsTest, UnknownToolYieldsErrorResult) {
  const ToolResult r = tools_.call("warp_drive", util::Json());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.payload.get_string("error", "").find("unknown tool"), std::string::npos);
}

TEST_F(ToolsTest, GenerationReturnsIdAndStats) {
  util::Json args;
  args["style"] = "Layer-10001";
  args["rows"] = kWindow;
  args["cols"] = kWindow;
  args["seed"] = 7;
  args["steps"] = 8;
  const ToolResult r = tools_.call("topology_generation", args);
  ASSERT_TRUE(r.ok) << r.payload.dump();
  const std::string id = r.payload.get_string("topology_id", "");
  EXPECT_TRUE(store_.has_topology(id));
  EXPECT_EQ(r.payload.get_int("rows", 0), kWindow);
  EXPECT_GT(r.payload.get_number("density", 0.0), 0.1);
  EXPECT_GT(r.payload.get_int("complexity_x", 0), 0);
}

TEST_F(ToolsTest, GenerationRejectsOversize) {
  util::Json args;
  args["style"] = "Layer-10001";
  args["rows"] = kWindow * 2;
  const ToolResult r = tools_.call("topology_generation", args);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.payload.get_string("error", "").find("topology_extension"), std::string::npos);
}

TEST_F(ToolsTest, GenerationUnknownStyleFails) {
  util::Json args;
  args["style"] = "Layer-777";
  const ToolResult r = tools_.call("topology_generation", args);
  EXPECT_FALSE(r.ok);
}

TEST_F(ToolsTest, GenerationRejectsUnknownSchedule) {
  // An unknown placement name is reported as an error result, not thrown
  // through the agent loop.
  util::Json args;
  args["style"] = "Layer-10001";
  args["rows"] = 16;
  args["cols"] = 16;
  args["steps"] = 4;
  args["schedule"] = "quadratic";
  ToolResult r;
  EXPECT_NO_THROW(r = tools_.call("topology_generation", args));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.payload.get_string("error", "").find("quadratic"), std::string::npos);
}

TEST_F(ToolsTest, LegalizationSuccessStoresPattern) {
  util::Json gen;
  gen["style"] = "Layer-10001";
  gen["seed"] = 3;
  gen["steps"] = 8;
  const ToolResult g = tools_.call("topology_generation", gen);
  ASSERT_TRUE(g.ok);
  util::Json args;
  args["topology_id"] = g.payload.get_string("topology_id", "");
  args["width_nm"] = kBudgetNm;
  args["height_nm"] = kBudgetNm;
  args["style"] = "Layer-10001";
  const ToolResult r = tools_.call("topology_legalization", args);
  ASSERT_TRUE(r.ok) << r.payload.dump();
  EXPECT_TRUE(store_.has_pattern(r.payload.get_string("pattern_id", "")));
}

TEST_F(ToolsTest, LegalizationFailureReportsRegionAndLog) {
  util::Json gen;
  gen["style"] = "Layer-10001";
  gen["seed"] = 3;
  gen["steps"] = 8;
  const ToolResult g = tools_.call("topology_generation", gen);
  util::Json args;
  args["topology_id"] = g.payload.get_string("topology_id", "");
  args["width_nm"] = 20;  // below the 32-interval pitch floor: always fails
  args["height_nm"] = 20;
  args["style"] = "Layer-10001";
  const ToolResult r = tools_.call("topology_legalization", args);
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.payload.get_string("error", ""), "legalization_failed");
  EXPECT_FALSE(r.payload.get_string("log", "").empty());
  ASSERT_TRUE(r.payload.contains("region"));
  const util::Json& region = r.payload.at("region");
  EXPECT_GE(region.get_int("bottom", -1), region.get_int("upper", 0));
}

TEST_F(ToolsTest, ExtensionGrowsTopology) {
  util::Json args;
  args["style"] = "Layer-10001";
  args["target_rows"] = 64;
  args["target_cols"] = 64;
  args["method"] = "Out";
  args["steps"] = 8;
  args["seed"] = 5;
  const ToolResult r = tools_.call("topology_extension", args);
  ASSERT_TRUE(r.ok) << r.payload.dump();
  EXPECT_EQ(r.payload.get_int("rows", 0), 64);
  EXPECT_GT(r.payload.get_int("model_calls", 0), 1);
  EXPECT_EQ(r.payload.get_string("method", ""), "Out-Painting");
}

TEST_F(ToolsTest, ExtensionFromExistingSeed) {
  util::Json gen;
  gen["style"] = "Layer-10001";
  gen["seed"] = 4;
  gen["steps"] = 8;
  const ToolResult g = tools_.call("topology_generation", gen);
  util::Json args;
  args["style"] = "Layer-10001";
  args["topology_id"] = g.payload.get_string("topology_id", "");
  args["target_rows"] = 64;
  args["target_cols"] = 64;
  args["method"] = "In";
  args["steps"] = 8;
  const ToolResult r = tools_.call("topology_extension", args);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payload.get_string("method", ""), "In-Painting");
}

TEST_F(ToolsTest, ModificationRegeneratesRegion) {
  util::Json gen;
  gen["style"] = "Layer-10001";
  gen["seed"] = 6;
  gen["steps"] = 8;
  const ToolResult g = tools_.call("topology_generation", gen);
  const std::string id = g.payload.get_string("topology_id", "");
  const squish::Topology before = store_.topology(id);

  util::Json args;
  args["topology_id"] = id;
  args["upper"] = 8;
  args["left"] = 8;
  args["bottom"] = 24;
  args["right"] = 24;
  args["style"] = "Layer-10001";
  args["seed"] = 42;
  args["steps"] = 8;
  const ToolResult r = tools_.call("topology_modification", args);
  ASSERT_TRUE(r.ok) << r.payload.dump();
  const squish::Topology after = store_.topology(r.payload.get_string("topology_id", ""));
  // Outside the region nothing changed.
  for (int row = 0; row < kWindow; ++row) {
    for (int col = 0; col < kWindow; ++col) {
      if (row >= 8 && row < 24 && col >= 8 && col < 24) continue;
      ASSERT_EQ(after.at(row, col), before.at(row, col));
    }
  }
}

TEST_F(ToolsTest, ModificationRejectsBadRegion) {
  util::Json gen;
  gen["style"] = "Layer-10001";
  gen["seed"] = 6;
  gen["steps"] = 8;
  const ToolResult g = tools_.call("topology_generation", gen);
  util::Json args;
  args["topology_id"] = g.payload.get_string("topology_id", "");
  args["upper"] = 20;
  args["bottom"] = 10;  // inverted
  args["style"] = "Layer-10001";
  const ToolResult r = tools_.call("topology_modification", args);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.payload.get_string("error", "").find("bad region"), std::string::npos);
}

TEST_F(ToolsTest, AnalysisReportsWithoutExposingMatrix) {
  util::Json gen;
  gen["style"] = "Layer-10003";
  gen["seed"] = 2;
  gen["steps"] = 8;
  const ToolResult g = tools_.call("topology_generation", gen);
  util::Json args;
  args["topology_id"] = g.payload.get_string("topology_id", "");
  const ToolResult r = tools_.call("topology_analysis", args);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.payload.get_int("rows", 0), kWindow);
  // The payload must not contain any raw matrix dump.
  EXPECT_EQ(r.payload.dump().find("[[", 0), std::string::npos);
}

TEST_F(ToolsTest, MissingTopologyIdSurfacesAsToolError) {
  util::Json args;
  args["topology_id"] = "topo-9999";
  const ToolResult r = tools_.call("topology_analysis", args);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.payload.get_string("error", "").find("topo-9999"), std::string::npos);
}

TEST_F(ToolsTest, DeterministicForSameSeed) {
  util::Json args;
  args["style"] = "Layer-10001";
  args["seed"] = 99;
  args["steps"] = 8;
  const ToolResult a = tools_.call("topology_generation", args);
  const ToolResult b = tools_.call("topology_generation", args);
  const auto& ta = store_.topology(a.payload.get_string("topology_id", ""));
  const auto& tb = store_.topology(b.payload.get_string("topology_id", ""));
  EXPECT_EQ(ta, tb);
}

TEST_F(ToolsTest, PatternStoreBasics) {
  PatternStore s;
  const std::string id = s.put_topology(squish::Topology(4, 4));
  EXPECT_TRUE(s.has_topology(id));
  EXPECT_EQ(s.topology_count(), 1u);
  s.erase_topology(id);
  EXPECT_FALSE(s.has_topology(id));
  EXPECT_THROW(s.topology(id), std::out_of_range);
}

}  // namespace
}  // namespace cp::agent
