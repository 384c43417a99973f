#include "snd/cli/cli.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "snd/graph/generators.h"
#include "snd/graph/io.h"
#include "snd/opinion/evolution.h"
#include "snd/opinion/state_io.h"
#include "snd/util/thread_pool.h"

namespace snd {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: suite members run as concurrent CTest jobs, and a
    // shared fixture file would be removed by one test's TearDown while
    // another test's SndCliMain is reading it.
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    graph_path_ =
        ::testing::TempDir() + "/cli_" + info->name() + "_graph.edges";
    states_path_ =
        ::testing::TempDir() + "/cli_" + info->name() + "_states.txt";
    Rng rng(1);
    const Graph g = GenerateRing(30, 2);
    ASSERT_TRUE(WriteEdgeList(g, graph_path_));
    SyntheticEvolution evolution(&g, 2);
    const auto series =
        evolution.GenerateSeries(4, 6, {0.2, 0.05}, {0.2, 0.05}, {});
    ASSERT_TRUE(WriteStateSeries(series, states_path_));
  }

  void TearDown() override {
    std::remove(graph_path_.c_str());
    std::remove(states_path_.c_str());
  }

  std::string graph_path_;
  std::string states_path_;
};

TEST_F(CliTest, DistanceCommandSucceeds) {
  EXPECT_EQ(SndCliMain({"distance", graph_path_, states_path_, "0", "1"}),
            0);
  EXPECT_EQ(SndCliMain({"distance", graph_path_, states_path_, "0", "0"}),
            0);
}

TEST_F(CliTest, SeriesAndAnomaliesCommandsSucceed) {
  EXPECT_EQ(SndCliMain({"series", graph_path_, states_path_}), 0);
  EXPECT_EQ(SndCliMain({"anomalies", graph_path_, states_path_}), 0);
}

TEST_F(CliTest, FlagsAreAccepted) {
  EXPECT_EQ(SndCliMain({"distance", graph_path_, states_path_, "0", "1",
                        "--model=icc", "--banks=global"}),
            0);
  EXPECT_EQ(SndCliMain({"distance", graph_path_, states_path_, "0", "1",
                        "--model=lt", "--banks=per-cluster"}),
            0);
}

TEST_F(CliTest, SsspFlagSelectsBackend) {
  for (const char* flag :
       {"--sssp=auto", "--sssp=dijkstra", "--sssp=dial", "--sssp=delta"}) {
    EXPECT_EQ(SndCliMain({"distance", graph_path_, states_path_, "0", "1",
                          flag}),
              0)
        << flag;
  }
  EXPECT_NE(SndCliMain({"series", graph_path_, states_path_,
                        "--sssp=bogus"}),
            0);
}

TEST_F(CliTest, ThreadsFlagConfiguresThePool) {
  EXPECT_EQ(SndCliMain({"series", graph_path_, states_path_, "--threads=2"}),
            0);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 2);
  EXPECT_EQ(SndCliMain({"distance", graph_path_, states_path_, "0", "1",
                        "--threads=1"}),
            0);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 1);
  EXPECT_NE(SndCliMain({"series", graph_path_, states_path_, "--threads=0"}),
            0);
  EXPECT_NE(SndCliMain({"series", graph_path_, states_path_,
                        "--threads=bogus"}),
            0);
  EXPECT_NE(SndCliMain({"series", graph_path_, states_path_,
                        "--threads=100000"}),
            0);
  ThreadPool::SetGlobalThreads(ThreadPool::DefaultThreads());
}

TEST_F(CliTest, HelpExitsZero) {
  EXPECT_EQ(SndCliMain({"--help"}), 0);
  EXPECT_EQ(SndCliMain({"-h"}), 0);
  EXPECT_EQ(SndCliMain({"help"}), 0);
}

TEST_F(CliTest, RejectsBadInput) {
  EXPECT_NE(SndCliMain({}), 0);
  EXPECT_NE(SndCliMain({"distance", graph_path_, states_path_}), 0);
  EXPECT_NE(SndCliMain({"distance", graph_path_, states_path_, "0", "99"}),
            0);
  EXPECT_NE(SndCliMain({"nonsense", graph_path_, states_path_}), 0);
  EXPECT_NE(SndCliMain({"series", graph_path_, states_path_,
                        "--model=bogus"}),
            0);
  EXPECT_NE(SndCliMain({"series", "/nonexistent.edges", states_path_}), 0);
  EXPECT_NE(SndCliMain({"series", graph_path_, "/nonexistent.txt"}), 0);
}

TEST_F(CliTest, RejectsTheRemovedSolverFlag) {
  // Every term runs on the network simplex; there is no solver to pick.
  EXPECT_NE(SndCliMain({"distance", graph_path_, states_path_, "0", "1",
                        "--solver=simplex"}),
            0);
  EXPECT_NE(SndCliMain({"series", graph_path_, states_path_,
                        "--solver=ssp"}),
            0);
}

TEST_F(CliTest, RejectsMismatchedStateSize) {
  const std::string other = ::testing::TempDir() + "/cli_states_small.txt";
  std::vector<NetworkState> tiny{NetworkState(5), NetworkState(5)};
  ASSERT_TRUE(WriteStateSeries(tiny, other));
  EXPECT_NE(SndCliMain({"series", graph_path_, other}), 0);
  std::remove(other.c_str());
}

}  // namespace
}  // namespace snd
