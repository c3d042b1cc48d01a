// Runs every shipped examples/*.mdl program file end to end and pins the
// headline results, so the files users run stay correct.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/engine.h"

#ifndef MAD_SOURCE_DIR
#define MAD_SOURCE_DIR "."
#endif
#ifndef MAD_BINARY_DIR
#define MAD_BINARY_DIR "."
#endif

namespace mad {
namespace {

using core::ParsedRun;
using datalog::Value;

ParsedRun RunFile(const std::string& name) {
  std::string path = std::string(MAD_SOURCE_DIR) + "/examples/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto run = core::ParseAndRun(buffer.str());
  EXPECT_TRUE(run.ok()) << run.status();
  return std::move(run).value();
}

std::optional<double> Cost(const ParsedRun& run, const char* pred,
                           std::vector<const char*> key) {
  datalog::Tuple t;
  for (const char* k : key) t.push_back(Value::Symbol(k));
  auto v = core::LookupCost(*run.program, run.result.db, pred, t);
  if (!v.has_value()) return std::nullopt;
  return v->AsDouble();
}

TEST(ExamplesTest, ShortestPathMdl) {
  ParsedRun run = RunFile("shortest_path.mdl");
  EXPECT_EQ(Cost(run, "s", {"a", "b"}), 1.0);
  EXPECT_EQ(Cost(run, "s", {"b", "b"}), 0.0);
  EXPECT_EQ(Cost(run, "s", {"a", "a"}), 11.0);  // a -> b -> a round trip
  EXPECT_EQ(Cost(run, "s", {"c", "b"}), 1.0);
}

TEST(ExamplesTest, CompanyControlMdl) {
  ParsedRun run = RunFile("company_control.mdl");
  EXPECT_TRUE(Cost(run, "c", {"b", "c"}).has_value());
  EXPECT_TRUE(Cost(run, "c", {"c", "b"}).has_value());
  EXPECT_FALSE(Cost(run, "c", {"a", "b"}).has_value());  // false, not undef
  EXPECT_FALSE(Cost(run, "c", {"a", "c"}).has_value());
}

TEST(ExamplesTest, CircuitMdl) {
  ParsedRun run = RunFile("circuit.mdl");
  EXPECT_EQ(Cost(run, "t", {"g1"}), 0.0);  // self-fed AND: minimal = false
  EXPECT_EQ(Cost(run, "t", {"g2"}), 1.0);  // OR latch locked in
  EXPECT_EQ(Cost(run, "t", {"g3"}), 1.0);
  EXPECT_EQ(Cost(run, "t", {"g4"}), 0.0);  // OR of w2=0 and g1=0
}

TEST(ExamplesTest, PartyMdl) {
  ParsedRun run = RunFile("party.mdl");
  for (const char* guest : {"ann", "bob", "cyd", "dan"}) {
    EXPECT_TRUE(Cost(run, "coming", {guest}).has_value()) << guest;
  }
  // eve needs 3 but only knows ann and bob.
  EXPECT_FALSE(Cost(run, "coming", {"eve"}).has_value());
}

TEST(ExamplesTest, LabelFlowMdl) {
  ParsedRun run = RunFile("label_flow.mdl");
  auto b = core::LookupCost(*run.program, run.result.db, "label",
                            {Value::Symbol("b")});
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->set_value().size(), 3u);  // {red, blue, green}
  auto d = core::LookupCost(*run.program, run.result.db, "label",
                            {Value::Symbol("d")});
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->set_value().size(), 0u);  // isolated cycle stays at ∅
}

TEST(ExamplesTest, GradesMdl) {
  ParsedRun run = RunFile("grades.mdl");
  EXPECT_EQ(Cost(run, "all_avg", {}), 80.0);
  EXPECT_EQ(Cost(run, "flat_avg", {}), 78.0);  // math weighted higher
  EXPECT_EQ(Cost(run, "s_avg", {"john"}), 75.0);
  EXPECT_EQ(Cost(run, "class_count", {"math"}), 3.0);
  EXPECT_FALSE(Cost(run, "class_count", {"art"}).has_value());
  EXPECT_EQ(Cost(run, "alt_class_count", {"art"}), 0.0);
}

// A malformed or out-of-range numeric flag is a usage error (exit 2 and the
// usage text), not an uncaught std::stol exception.
/// Runs `binary` (under build/examples) with `args` and expects the usage
/// text and exit status 2.
void ExpectUsageExit(const std::string& binary, const std::string& args) {
  const std::string command = std::string(MAD_BINARY_DIR) + "/examples/" +
                              binary + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << args << ": " << output;
  EXPECT_EQ(WEXITSTATUS(status), 2) << args << ": " << output;
  EXPECT_NE(output.find("usage: " + binary), std::string::npos) << args;
}

TEST(ExamplesTest, MondlRejectsMalformedNumericFlags) {
  const std::string program =
      std::string(MAD_SOURCE_DIR) + "/examples/shortest_path.mdl";
  for (const char* flag :
       {"--threads=x", "--threads=4x", "--threads=99999999999",
        "--max-iterations=99999999999999999999", "--epsilon=e"}) {
    ExpectUsageExit("mondl", std::string(flag) + " " + program);
  }
}

// A thread count above core::kMaxThreads is a typo, not a request for that
// many OS threads: both CLIs reject it before evaluating anything.
TEST(ExamplesTest, ThreadCountsAboveTheCapAreRejected) {
  const std::string program =
      std::string(MAD_SOURCE_DIR) + "/examples/shortest_path.mdl";
  for (int threads : {core::kMaxThreads + 1, 1000000}) {
    const std::string flag = "--threads=" + std::to_string(threads);
    ExpectUsageExit("mondl", flag + " " + program);
    ExpectUsageExit("madd", "--port=0 " + flag + " " + program);
  }
}

}  // namespace
}  // namespace mad
