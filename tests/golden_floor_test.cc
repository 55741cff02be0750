// Assertions over the blessed seed-42 goldens (byte-checked by
// harvest_sim_golden_diff), so a re-bless that breaks one fails here, next to
// the diff that caused it.
//
// H-vs-PT floors on the replay reproducers: each committed trace under
// tests/traces pins a fleet on which YARN-H once trailed YARN-PT, and its
// golden must keep the scheduling improvement at or above the row's floor.
// Replay presets ignore --scale (the fleet is the recorded one), so the
// golden's scheduling block is also the full-size result.
//
// Paper shapes: who wins in Figs 14-16 and the §4.2 placement ablation, one
// table row per shape, over the goldens that carry the row's grid.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
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

// --- Paper shapes ---------------------------------------------------------

// The end of the JSON object that opens at text[open] (one past its '}').
size_t ObjectEnd(std::string_view text, size_t open) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  return text.size();
}

// The object value of `"key": {...}` in `text` ("" when absent).
std::string_view ObjectValue(std::string_view text, const std::string& key) {
  const size_t at = text.find("\"" + key + "\": {");
  if (at == std::string_view::npos) {
    return {};
  }
  const size_t open = text.find('{', at);
  return text.substr(open, ObjectEnd(text, open) - open);
}

// The value of the first `"key": ` at or after `from`: a number, or a
// string's contents when `quoted`.
std::string ScalarAfter(std::string_view text, const std::string& key, size_t from,
                        bool quoted) {
  const std::string needle = "\"" + key + "\": " + (quoted ? "\"" : "");
  const size_t at = text.find(needle, from);
  if (at == std::string_view::npos) {
    return "";
  }
  const size_t begin = at + needle.size();
  const size_t end = text.find_first_of(quoted ? "\"" : ",\n}", begin);
  return std::string(text.substr(begin, end - begin));
}

double NumberAfter(std::string_view text, const std::string& key, size_t from) {
  return std::strtod(ScalarAfter(text, key, from, false).c_str(), nullptr);
}

// A grid's cells as (placement, axis) -> metric. The axis is the
// replication factor of a durability grid and the target utilization of an
// availability sweep, so map order walks each placement's axis upward.
using Grid = std::map<std::pair<std::string, double>, double>;

Grid GridCells(std::string_view grid, const std::string& axis, const std::string& metric) {
  Grid cells;
  const std::string needle = "\"placement\": \"";
  for (size_t at = grid.find(needle, grid.find("\"cells\": [")); at != std::string_view::npos;
       at = grid.find(needle, at + 1)) {
    const size_t cell = grid.rfind('{', at);
    cells[{ScalarAfter(grid, "placement", cell, true), NumberAfter(grid, axis, cell)}] =
        NumberAfter(grid, metric, cell);
  }
  return cells;
}

// A cell's metric; NaN (which fails every comparison) when the grid lacks it.
double Cell(const Grid& grid, const std::string& placement, double axis) {
  const auto it = grid.find({placement, axis});
  return it == grid.end() ? std::nan("") : it->second;
}

// One datacenter of a golden, reduced to the figures the shape rows read.
struct GoldenDc {
  std::string name;
  Grid lost;    // durability: (placement, replication) -> lost_percent
  Grid failed;  // availability: (placement, target) -> failed_percent
  std::optional<double> improvement;  // scheduling history_improvement_percent
};

// The golden's datacenters, in output order. "name" is the first key of a
// datacenter object and appears nowhere else, so it splits the document.
std::vector<GoldenDc> ReadGoldenDcs(const std::string& scenario) {
  const std::string json = ReadFile(GoldenPath(scenario));
  const std::string key = "\"name\": \"";
  std::vector<GoldenDc> dcs;
  for (size_t at = json.find(key); at != std::string::npos;) {
    const size_t next = json.find(key, at + 1);
    const std::string_view text = std::string_view(json).substr(at, next - at);
    GoldenDc dc;
    dc.name = ScalarAfter(text, "name", 0, true);
    dc.lost = GridCells(ObjectValue(text, "durability"), "replication", "lost_percent");
    dc.failed = GridCells(ObjectValue(text, "availability"), "target_utilization",
                          "failed_percent");
    const std::string_view scheduling = ObjectValue(text, "scheduling");
    if (!scheduling.empty()) {
      dc.improvement = NumberAfter(scheduling, "history_improvement_percent", 0);
    }
    dcs.push_back(std::move(dc));
    at = next;
  }
  return dcs;
}

// One asserted ordering: `better` <= `worse` (or < when `strict`).
struct Comparison {
  std::string what;
  double better = 0.0;
  double worse = 0.0;
  bool strict = false;
};

std::string At(const std::string& what, double axis) {
  std::ostringstream text;
  text << what << " at " << axis;
  return text.str();
}

// HDFS-H against `rival` at every axis value of the grid.
std::vector<Comparison> HVersus(const Grid& grid, const std::string& rival) {
  std::vector<Comparison> out;
  for (const auto& [cell, h] : grid) {
    if (cell.first == "HDFS-H") {
      out.push_back({At("HDFS-H vs " + rival, cell.second), h, Cell(grid, rival, cell.second)});
    }
  }
  return out;
}

struct ShapeRow {
  const char* name;
  const char* figure;
  std::vector<std::string> goldens;
  std::vector<Comparison> (*check)(const GoldenDc&);
};

// The goldens whose every datacenter carries a durability grid, and those
// that also carry an availability sweep.
const std::vector<std::string> kDurabilityGoldens = {
    "dc9_testbed",  "fleet_sweep",      "hetero_shapes", "reimage_storm",
    "storage_stress", "storm_under_load", "week_horizon"};
const std::vector<std::string> kAvailabilityGoldens = {"dc9_testbed", "storage_stress",
                                                       "week_horizon"};

const ShapeRow kShapeRows[] = {
    {"Fig15_HLosesNoMoreThanStock",
     "Fig 15: HDFS-H loses no more blocks than HDFS-Stock at each replication",
     kDurabilityGoldens, [](const GoldenDc& dc) { return HVersus(dc.lost, "HDFS-Stock"); }},
    {"Fig15_H3xLosesNoMoreThanStock4x",
     "Fig 15: HDFS-H at 3x loses no more blocks than HDFS-Stock at 4x",
     {"dc9_testbed", "reimage_storm", "storage_stress", "storm_under_load"},
     [](const GoldenDc& dc) {
       if (dc.lost.empty()) {
         return std::vector<Comparison>{};
       }
       return std::vector<Comparison>{{"HDFS-H 3x vs HDFS-Stock 4x", Cell(dc.lost, "HDFS-H", 3),
                                       Cell(dc.lost, "HDFS-Stock", 4)}};
     }},
    {"Ablation42_HLosesNoMoreThanRandom",
     "§4.2 ablation: HDFS-H loses no more blocks than HDFS-Random",
     kDurabilityGoldens, [](const GoldenDc& dc) { return HVersus(dc.lost, "HDFS-Random"); }},
    {"Ablation42_HFailsNoMoreThanRandom",
     "§4.2 ablation: HDFS-H fails no more accesses than HDFS-Random",
     kAvailabilityGoldens, [](const GoldenDc& dc) { return HVersus(dc.failed, "HDFS-Random"); }},
    {"Fig16_FailedRisesWithUtilization",
     "Fig 16 (root-scaled sweep): failed accesses do not fall as utilization rises",
     kAvailabilityGoldens,
     [](const GoldenDc& dc) {
       // Map neighbors of one placement are its consecutive targets.
       std::vector<Comparison> out;
       for (auto it = dc.failed.begin(); it != dc.failed.end(); ++it) {
         const auto next = std::next(it);
         if (next != dc.failed.end() && next->first.first == it->first.first) {
           out.push_back({At(it->first.first + " vs its next target", it->first.second),
                          it->second, next->second});
         }
       }
       return out;
     }},
    {"Fig16_HFailsNoMoreThanStock",
     "Fig 16 (root-scaled sweep): HDFS-H fails no more accesses than HDFS-Stock",
     kAvailabilityGoldens, [](const GoldenDc& dc) { return HVersus(dc.failed, "HDFS-Stock"); }},
    {"Fig14_HImprovesOnPT", "Fig 14: YARN-H runs jobs faster than YARN-PT in every DC",
     {"fleet_sweep", "dc9_testbed"},
     [](const GoldenDc& dc) {
       if (!dc.improvement) {
         return std::vector<Comparison>{};
       }
       return std::vector<Comparison>{
           {"history_improvement_percent > 0", 0.0, *dc.improvement, true}};
     }},
};

void PrintTo(const ShapeRow& row, std::ostream* os) { *os << row.name; }

class PaperShapeTest : public ::testing::TestWithParam<ShapeRow> {};

// Every comparison holds in every DC of every named golden, every such DC
// yields at least one, and at least one is strict somewhere (a row that
// only ever compares equal values would assert nothing).
TEST_P(PaperShapeTest, GoldensHoldShape) {
  const ShapeRow& row = GetParam();
  int strict_wins = 0;
  for (const std::string& scenario : row.goldens) {
    const std::vector<GoldenDc> dcs = ReadGoldenDcs(scenario);
    EXPECT_FALSE(dcs.empty()) << "missing golden " << GoldenPath(scenario);
    for (const GoldenDc& dc : dcs) {
      const std::vector<Comparison> comparisons = row.check(dc);
      EXPECT_FALSE(comparisons.empty())
          << row.figure << "\n  " << scenario << " " << dc.name << " lacks the row's grid";
      for (const Comparison& c : comparisons) {
        strict_wins += c.better < c.worse ? 1 : 0;
        const bool holds = c.strict ? c.better < c.worse : c.better <= c.worse;
        EXPECT_TRUE(holds) << row.figure << "\n  " << scenario << " " << dc.name << ": "
                           << c.what << ": " << c.better << " vs " << c.worse;
      }
    }
  }
  EXPECT_GT(strict_wins, 0) << row.figure << ": no golden separates the policies";
}

INSTANTIATE_TEST_SUITE_P(Goldens, PaperShapeTest, ::testing::ValuesIn(kShapeRows),
                         [](const ::testing::TestParamInfo<ShapeRow>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace harvest
