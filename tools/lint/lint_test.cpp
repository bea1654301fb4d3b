// Tests for pinsim-lint: every fixture file is analyzed under a
// pretend repo-relative path (rule applicability is path-driven) and
// the exact (rule, line) diagnostics are asserted. Triggering fixtures
// carry `// expect: <rule>` markers on the lines findings must land
// on; non-triggering fixtures and cross-directory re-analyses assert
// explicit expectation lists.
#include "lint.hpp"

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace pinsim::lint {
namespace {

#ifndef PINSIM_LINT_FIXTURES
#error "PINSIM_LINT_FIXTURES must point at tools/lint/fixtures"
#endif

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(PINSIM_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

using RuleLine = std::pair<std::string, int>;  // (rule, 1-based line)

/// Collect the `// expect: rule [rule...]` markers from fixture text.
std::multiset<RuleLine> markers(const std::string& contents) {
  std::multiset<RuleLine> expected;
  std::istringstream lines(contents);
  std::string text;
  int line = 0;
  while (std::getline(lines, text)) {
    ++line;
    const std::size_t at = text.find("// expect:");
    if (at == std::string::npos) continue;
    std::istringstream rules(text.substr(at + std::string("// expect:").size()));
    std::string rule;
    while (rules >> rule) expected.insert({rule, line});
  }
  return expected;
}

std::multiset<RuleLine> analyze(const std::string& fixture,
                                const std::string& pretend_path) {
  const std::string contents = read_fixture(fixture);
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), pretend_path, contents, &diags);
  std::multiset<RuleLine> got;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file, pretend_path);
    got.insert({d.rule, d.line});
  }
  return got;
}

std::string print(const std::multiset<RuleLine>& set) {
  std::ostringstream out;
  for (const auto& [rule, line] : set) out << rule << "@" << line << " ";
  return out.str();
}

/// Assert the analyzer's findings are exactly the fixture's markers.
void expect_markers(const std::string& fixture,
                    const std::string& pretend_path) {
  const std::multiset<RuleLine> expected = markers(read_fixture(fixture));
  ASSERT_FALSE(expected.empty()) << fixture << " has no expect markers";
  const std::multiset<RuleLine> got = analyze(fixture, pretend_path);
  EXPECT_EQ(got, expected) << fixture << " as " << pretend_path
                           << "\n  expected: " << print(expected)
                           << "\n  got:      " << print(got);
}

void expect_exactly(const std::string& fixture,
                    const std::string& pretend_path,
                    const std::multiset<RuleLine>& expected) {
  const std::multiset<RuleLine> got = analyze(fixture, pretend_path);
  EXPECT_EQ(got, expected) << fixture << " as " << pretend_path
                           << "\n  expected: " << print(expected)
                           << "\n  got:      " << print(got);
}

// --- determinism ----------------------------------------------------------

TEST(LintDeterminism, FlagsEveryMarkedLineInSimulatedDirs) {
  expect_markers("determinism_bad.cpp", "src/os/fixture_determinism_bad.cpp");
}

TEST(LintDeterminism, SilentOnCleanCode) {
  expect_exactly("determinism_ok.cpp", "src/os/fixture_determinism_ok.cpp",
                 {});
}

TEST(LintDeterminism, DoesNotApplyOutsideSimulatedDirs) {
  // Same violating file, analyzed as analysis-layer code: the
  // per-directory config switches the determinism rule off.
  expect_exactly("determinism_bad.cpp",
                 "src/core/fixture_determinism_bad.cpp", {});
}

// --- ordering -------------------------------------------------------------

TEST(LintOrdering, FlagsPointerKeyedContainers) {
  expect_markers("ordering_bad.cpp", "src/virt/fixture_ordering_bad.cpp");
}

TEST(LintOrdering, SilentOnStableKeysAndAnnotated) {
  expect_exactly("ordering_ok.cpp", "src/virt/fixture_ordering_ok.cpp", {});
}

TEST(LintOrdering, DoesNotApplyOutsideSimulatedDirs) {
  expect_exactly("ordering_bad.cpp", "tests/virt/fixture_ordering_bad.cpp",
                 {});
}

// --- index-safety ---------------------------------------------------------

TEST(LintIndexSafety, FlagsRawSubscriptsOutsideOwners) {
  expect_markers("index_safety_bad.cpp",
                 "src/os/fixture_index_safety_bad.cpp");
}

TEST(LintIndexSafety, OwnerFileMayTouchItsOwnIndex) {
  // As the rq_index owner, the park_index, links_ and member_index
  // findings remain (their owners are cgroup.cpp, the engine, and
  // cgroup.cpp respectively).
  expect_exactly("index_safety_bad.cpp", "src/os/runqueue.cpp",
                 {{"index-safety", 23},
                  {"index-safety", 26},
                  {"index-safety", 40}});
  // The cgroup owns both of its slot indexes, park_index and
  // member_index; every other finding remains.
  expect_exactly("index_safety_bad.cpp", "src/os/cgroup.cpp",
                 {{"index-safety", 20},
                  {"index-safety", 23}});
}

TEST(LintIndexSafety, SilentOnReadsLambdasAndAnnotated) {
  expect_exactly("index_safety_ok.cpp",
                 "src/os/fixture_index_safety_ok.cpp", {});
}

// --- guarded timers (index-safety group) ----------------------------------

TEST(LintGuardedTimer, FlagsArmingBoundaryTimersOutsideOwner) {
  expect_markers("boundary_timer_bad.cpp",
                 "src/virt/fixture_boundary_timer_bad.cpp");
}

TEST(LintGuardedTimer, OwnerFileMayArmItsOwnTimer) {
  expect_exactly("boundary_timer_bad.cpp", "src/os/kernel.cpp", {});
}

TEST(LintGuardedTimer, SilentOnReadsOtherTimersAndAnnotated) {
  expect_exactly("boundary_timer_ok.cpp",
                 "src/virt/fixture_boundary_timer_ok.cpp", {});
}

// --- engine-api -----------------------------------------------------------

TEST(LintEngineApi, FlagsBareScheduleNextToReschedule) {
  expect_markers("engine_api_bad.cpp", "src/os/fixture_engine_api_bad.cpp");
}

TEST(LintEngineApi, SilentOnTrackedAndAnnotated) {
  expect_exactly("engine_api_ok.cpp", "src/os/fixture_engine_api_ok.cpp",
                 {});
}

TEST(LintEngineApi, DoesNotApplyOutsideSrc) {
  // Engine tests legitimately exercise schedule() and reschedule()
  // side by side; the rule is scoped to src/.
  expect_exactly("engine_api_bad.cpp", "tests/sim/fixture_engine_api.cpp",
                 {});
}

TEST(LintEngineApi, EngineItselfIsExempt) {
  expect_exactly("engine_api_bad.cpp", "src/sim/engine.cpp", {});
}

// --- predicate-purity -----------------------------------------------------

TEST(LintPredicatePurity, FlagsMutableGlobalsInRunUntilPredicates) {
  expect_markers("predicate_purity_bad.cpp",
                 "src/core/fixture_predicate_purity_bad.cpp");
}

TEST(LintPredicatePurity, SilentOnCapturedStateAndAnnotated) {
  expect_exactly("predicate_purity_ok.cpp",
                 "src/core/fixture_predicate_purity_ok.cpp", {});
}

TEST(LintPredicatePurity, DoesNotApplyOutsideConfiguredDirs) {
  // Test code may drive run_until off counters however it likes.
  expect_exactly("predicate_purity_bad.cpp",
                 "tests/sim/fixture_predicate_purity_bad.cpp", {});
}

// --- float-accumulation ---------------------------------------------------

TEST(LintFloatAccumulation, FlagsUnorderedFloatReductions) {
  expect_markers("float_accumulation_bad.cpp",
                 "src/core/fixture_float_accumulation_bad.cpp");
}

TEST(LintFloatAccumulation, SilentOnOrderedIntegerAndAnnotated) {
  expect_exactly("float_accumulation_ok.cpp",
                 "src/core/fixture_float_accumulation_ok.cpp", {});
}

TEST(LintFloatAccumulation, DoesNotApplyOutsideConfiguredDirs) {
  // Test code may reduce floats however it likes.
  expect_exactly("float_accumulation_bad.cpp",
                 "tests/core/fixture_float_accumulation_bad.cpp", {});
}

TEST(LintFloatAccumulation, StacksWithDeterminismInSimulatedDirs) {
  // In a simulated dir the same loops also violate the determinism
  // rule (range-for over an unordered container); both rules land,
  // each on its own anchor line.
  expect_exactly("float_accumulation_bad.cpp",
                 "src/os/fixture_float_accumulation_bad.cpp",
                 {{"determinism", 12},
                  {"determinism", 20},
                  {"determinism", 26},
                  {"float-accumulation", 13},
                  {"float-accumulation", 20},
                  {"float-accumulation", 27}});
}

// --- hygiene --------------------------------------------------------------

TEST(LintHygiene, FlagsHeaderAndOutputViolations) {
  expect_markers("hygiene_bad.hpp", "src/core/fixture_hygiene_bad.hpp");
}

TEST(LintHygiene, SilentOnCleanHeader) {
  expect_exactly("hygiene_ok.hpp", "src/core/fixture_hygiene_ok.hpp", {});
}

TEST(LintHygiene, OutputAllowedInBenchExamplesTools) {
  // The missing-#pragma-once and using-namespace findings stay (lines
  // 1 and 9); the cout/printf findings disappear under bench/.
  expect_exactly("hygiene_bad.hpp", "bench/fixture_hygiene_bad.hpp",
                 {{"hygiene", 1}, {"hygiene", 9}});
}

TEST(LintHygiene, CoutBanDoesNotApplyToLogSink) {
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/util/log.cpp",
               "void emit() { std::cout << 1; }\n", &diags);
  EXPECT_TRUE(diags.empty());
}

TEST(LintHygiene, CoutBanAppliesToOtherUtilFiles) {
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/util/rng.cpp",
               "void emit() { std::cout << 1; }\n", &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hygiene");
  EXPECT_EQ(diags[0].line, 1);
}

// --- suppression ----------------------------------------------------------

TEST(LintSuppression, AllowAboveAllowAllAndWrongRule) {
  expect_markers("suppress.cpp", "src/os/fixture_suppress.cpp");
}

TEST(LintSuppression, SameLineAllowSilencesOnlyThatLine) {
  const std::string code =
      "long a() { return time(nullptr); }  // pinsim-lint: allow(determinism)\n"
      "long b() { return time(nullptr); }\n";
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/hw/clock.cpp", code, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "determinism");
  EXPECT_EQ(diags[0].line, 2);
}

// --- infrastructure -------------------------------------------------------

TEST(LintInfra, PathMatching) {
  EXPECT_TRUE(path_matches("src/os/kernel.cpp", "src/os/"));
  EXPECT_FALSE(path_matches("src/osmisc/kernel.cpp", "src/os/"));
  EXPECT_TRUE(path_matches("src/util/log.cpp", "src/util/log.cpp"));
  EXPECT_FALSE(path_matches("src/util/log.cpp", "src/util/log.cp"));
  EXPECT_FALSE(path_matches("src/os/", "src/os/"));  // dirs match children
}

TEST(LintInfra, LexerEdgesFixtureIsClean) {
  // Raw strings, block comments, char literals, digit separators, and
  // macro bodies carrying banned tokens must all be invisible to the
  // rule passes.
  expect_exactly("lexer_edges.cpp", "src/os/fixture_lexer_edges.cpp", {});
}

TEST(LintInfra, CommentsAndStringsAreStripped) {
  const std::string code =
      "// rand() in a comment is fine\n"
      "/* so is time(nullptr) in a block */\n"
      "const char* s = \"rand() getenv(\";\n"
      "const char* r = R\"(std::random_device)\";\n";
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/sim/strings.cpp", code, &diags);
  EXPECT_TRUE(diags.empty()) << diags.size();
}

TEST(LintInfra, DiagnosticsAreSortedByLine) {
  const std::string code =
      "int b() { return rand(); }\n"
      "int a() { return time(nullptr); }\n";
  std::vector<Diagnostic> diags;
  analyze_file(default_config(), "src/sim/order.cpp", code, &diags);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_EQ(diags[1].line, 2);
}

TEST(LintInfra, ContinuedLineCommentIsCommentaryAndAllowsAttachPastIt) {
  // Regression: a backslash-continued `//` comment used to leak its
  // continuation line into the token stream (false findings), and a
  // continued whole-line allow() attached to the continuation line
  // instead of the first code line after it.
  expect_markers("lexer_comment_continuation.cpp", "src/os/continued.cpp");
}

TEST(LintInfra, RawStringClosingLineCountsAsCode) {
  // Regression: after a multi-line raw string, a trailing comment on
  // the closing line was treated as whole-line, so its allow() leaked
  // onto the next line and masked a real finding there.
  expect_markers("lexer_rawstring_lines.cpp", "src/os/raw_lines.cpp");
}

}  // namespace
}  // namespace pinsim::lint
