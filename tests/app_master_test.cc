#include "src/jobs/app_master.h"

#include <gtest/gtest.h>

namespace harvest {
namespace {

Stage MakeStage(const char* name, int tasks, double seconds, std::vector<int> parents) {
  Stage stage;
  stage.name = name;
  stage.num_tasks = tasks;
  stage.task_seconds = seconds;
  stage.parents = std::move(parents);
  return stage;
}

JobDag TwoStageDag() {
  return JobDag("two", {MakeStage("map", 3, 10, {}), MakeStage("reduce", 2, 10, {0})});
}

TEST(AppMasterTest, InitiallyOnlyRootStagesRunnable) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 100.0);
  std::vector<TaskDemand> demands;
  am.RunnableTasks(&demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].stage, 0);
  EXPECT_EQ(demands[0].count, 3);
  EXPECT_EQ(am.PendingTasks(), 3);
  EXPECT_FALSE(am.done());
}

TEST(AppMasterTest, StageUnlocksWhenParentsComplete) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 0.0);
  am.OnTasksScheduled(0, 3);
  EXPECT_EQ(am.PendingTasks(), 0);
  EXPECT_FALSE(am.OnTaskComplete(0, 10.0));
  EXPECT_FALSE(am.OnTaskComplete(0, 10.0));
  std::vector<TaskDemand> demands = {TaskDemand{7, 7}};  // stale contents are replaced
  am.RunnableTasks(&demands);
  EXPECT_TRUE(demands.empty());  // map not fully done yet
  EXPECT_FALSE(am.OnTaskComplete(0, 10.0));
  am.RunnableTasks(&demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].stage, 1);
  EXPECT_EQ(demands[0].count, 2);
}

TEST(AppMasterTest, CompletionOfLastTaskFinishesJob) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 5.0);
  am.OnTasksScheduled(0, 3);
  am.OnTaskComplete(0, 10.0);
  am.OnTaskComplete(0, 11.0);
  am.OnTaskComplete(0, 12.0);
  am.OnTasksScheduled(1, 2);
  EXPECT_FALSE(am.OnTaskComplete(1, 20.0));
  EXPECT_TRUE(am.OnTaskComplete(1, 25.0));
  EXPECT_TRUE(am.done());
  EXPECT_DOUBLE_EQ(am.finish_time(), 25.0);
  EXPECT_DOUBLE_EQ(am.ExecutionSeconds(), 20.0);
}

TEST(AppMasterTest, KilledTasksReturnToPending) {
  JobDag dag = TwoStageDag();
  AppMaster am(1, &dag, 0.0);
  am.OnTasksScheduled(0, 3);
  am.OnTaskKilled(0);
  EXPECT_EQ(am.kills(), 1);
  std::vector<TaskDemand> demands;
  am.RunnableTasks(&demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].count, 1);  // one task must re-run
  // Re-schedule and finish everything.
  am.OnTasksScheduled(0, 1);
  for (int i = 0; i < 3; ++i) {
    am.OnTaskComplete(0, 10.0);
  }
  am.OnTasksScheduled(1, 2);
  am.OnTaskComplete(1, 20.0);
  EXPECT_TRUE(am.OnTaskComplete(1, 21.0));
}

TEST(AppMasterTest, PartialSchedulingTracksRemainder) {
  JobDag dag = JobDag("wide", {MakeStage("w", 10, 5, {})});
  AppMaster am(2, &dag, 0.0);
  am.OnTasksScheduled(0, 4);
  EXPECT_EQ(am.PendingTasks(), 6);
  std::vector<TaskDemand> demands;
  am.RunnableTasks(&demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].count, 6);
}

TEST(AppMasterTest, DiamondDagUnlocksSinkAfterBothBranches) {
  JobDag dag("diamond", {MakeStage("src", 1, 1, {}), MakeStage("l", 1, 1, {0}),
                         MakeStage("r", 1, 1, {0}), MakeStage("sink", 1, 1, {1, 2})});
  AppMaster am(3, &dag, 0.0);
  am.OnTasksScheduled(0, 1);
  am.OnTaskComplete(0, 1.0);
  // Both branches runnable in parallel.
  std::vector<TaskDemand> demands;
  am.RunnableTasks(&demands);
  EXPECT_EQ(demands.size(), 2u);
  am.OnTasksScheduled(1, 1);
  am.OnTasksScheduled(2, 1);
  am.OnTaskComplete(1, 2.0);
  am.RunnableTasks(&demands);
  EXPECT_TRUE(demands.empty());  // sink blocked on branch r
  am.OnTaskComplete(2, 3.0);
  am.RunnableTasks(&demands);
  ASSERT_EQ(demands.size(), 1u);
  EXPECT_EQ(demands[0].stage, 3);
}

TEST(AppMasterTest, KillsAccumulate) {
  JobDag dag = JobDag("wide", {MakeStage("w", 5, 5, {})});
  AppMaster am(4, &dag, 0.0);
  am.OnTasksScheduled(0, 5);
  am.OnTaskKilled(0);
  am.OnTaskKilled(0);
  am.OnTasksScheduled(0, 2);
  am.OnTaskKilled(0);
  EXPECT_EQ(am.kills(), 3);
}

}  // namespace
}  // namespace harvest
