// The bench trajectory emitter (bench/bench_util.h) writes only where MIND_BENCH_JSON
// points: run from build/ with the variable unset, it must leave the committed
// ../BENCH_microbench.json byte-identical and create nothing in the working directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_util.h"

namespace mind {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BenchTrajectory, UnsetPathLeavesParentTrajectoryUntouched) {
  const fs::path root =
      fs::temp_directory_path() / ("mind_bench_util_test_" + std::to_string(::getpid()));
  fs::create_directories(root / "build");
  const fs::path committed = root / "BENCH_microbench.json";
  const std::string original =
      "{\n  \"schema\": \"mind-microbench-v1\",\n  \"entries\": [\n  ]\n}\n";
  std::ofstream(committed) << original;

  const fs::path cwd = fs::current_path();
  fs::current_path(root / "build");
  ::unsetenv("MIND_BENCH_JSON");
  bench::AppendTrajectoryEntry({bench::BenchResult{"BM_Probe", 1.0, 1}}, "probe");
  fs::current_path(cwd);

  EXPECT_EQ(ReadFile(committed), original);
  EXPECT_FALSE(fs::exists(root / "build" / "BENCH_microbench.json"));
  fs::remove_all(root);
}

TEST(BenchTrajectory, AppendsWhereThePathPoints) {
  const fs::path path =
      fs::temp_directory_path() / ("mind_bench_util_" + std::to_string(::getpid()) + ".json");
  ::setenv("MIND_BENCH_JSON", path.c_str(), 1);
  bench::AppendTrajectoryEntry({bench::BenchResult{"BM_Probe", 1.0, 1}}, "probe");
  ::unsetenv("MIND_BENCH_JSON");
  const std::string written = ReadFile(path);
  EXPECT_NE(written.find("\"label\": \"probe\""), std::string::npos);
  EXPECT_NE(written.find("\"name\": \"BM_Probe\""), std::string::npos);
  fs::remove(path);
}

}  // namespace
}  // namespace mind
