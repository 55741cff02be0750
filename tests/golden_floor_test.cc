// H-vs-PT floors on the blessed replay reproducers. Each committed trace
// under tests/traces pins a fleet on which YARN-H once trailed YARN-PT; its
// seed-42 golden (byte-checked by harvest_sim_golden_diff) must keep the
// scheduling improvement at or above the row's floor. A re-bless that widens
// a gap past its floor fails here, next to the diff that caused it.
//
// Replay presets ignore --scale (the fleet is the recorded one), so the
// golden's scheduling block is also the full-size result.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

namespace harvest {
namespace {

struct ReplayFloor {
  const char* scenario;
  double floor_percent;
};

constexpr ReplayFloor kFloors[] = {
    // The fleet_sweep DC-5 regression (H trailed PT by ~19%): H >= PT.
    {"replay_regression", 0.0},
    // The 905-server week_horizon DC-4 fleet (H trailed by ~30% after the
    // first replay fixes): the old gap must not come back.
    {"week_horizon_replay", -30.0},
    // The 102-server DC-9 testbed at the 4-hour horizon (H trails by ~6%).
    {"dc9_testbed_replay", -15.0},
};

std::string GoldenPath(const std::string& scenario) {
  return std::string(HARVEST_GOLDEN_DIR) + "/" + scenario + ".seed42.json";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The string value of the top-level "trace_source" key ("" when absent).
std::string TraceSource(const std::string& json) {
  const std::string key = "\"trace_source\": \"";
  const size_t start = json.find(key);
  if (start == std::string::npos) {
    return "";
  }
  const size_t begin = start + key.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

// history_improvement_percent of every datacenter's "scheduling" block, in
// output order.
std::vector<double> SchedulingImprovements(const std::string& json) {
  const std::string block = "\"scheduling\": {";
  const std::string key = "\"history_improvement_percent\": ";
  std::vector<double> improvements;
  for (size_t at = json.find(block); at != std::string::npos; at = json.find(block, at + 1)) {
    const size_t value = json.find(key, at);
    if (value == std::string::npos) {
      break;
    }
    improvements.push_back(std::strtod(json.c_str() + value + key.size(), nullptr));
  }
  return improvements;
}

class ReplayFloorTest : public ::testing::TestWithParam<ReplayFloor> {};

TEST_P(ReplayFloorTest, GoldenHoldsFloor) {
  const ReplayFloor& row = GetParam();
  const std::string json = ReadFile(GoldenPath(row.scenario));
  ASSERT_FALSE(json.empty()) << "missing golden " << GoldenPath(row.scenario);
  EXPECT_TRUE(TraceSource(json).starts_with("replay:")) << TraceSource(json);
  const std::vector<double> improvements = SchedulingImprovements(json);
  ASSERT_FALSE(improvements.empty()) << "no scheduling block in " << row.scenario;
  for (double improvement : improvements) {
    EXPECT_GE(improvement, row.floor_percent)
        << row.scenario << ": YARN-H vs YARN-PT gap widened past the floor";
  }
}

INSTANTIATE_TEST_SUITE_P(Reproducers, ReplayFloorTest, ::testing::ValuesIn(kFloors),
                         [](const ::testing::TestParamInfo<ReplayFloor>& info) {
                           return std::string(info.param.scenario);
                         });

// A new replay golden must declare its floor in the table above.
TEST(ReplayFloorTableTest, EveryReplayGoldenHasAFloor) {
  int replay_goldens = 0;
  for (const auto& entry : std::filesystem::directory_iterator(HARVEST_GOLDEN_DIR)) {
    const std::string name = entry.path().filename().string();
    if (!TraceSource(ReadFile(entry.path().string())).starts_with("replay:")) {
      continue;
    }
    ++replay_goldens;
    bool listed = false;
    for (const ReplayFloor& row : kFloors) {
      listed = listed || name == std::string(row.scenario) + ".seed42.json";
    }
    EXPECT_TRUE(listed) << name << " replays a committed trace but has no floor";
  }
  EXPECT_EQ(replay_goldens, static_cast<int>(std::size(kFloors)));
}

}  // namespace
}  // namespace harvest
