#include "toolgen/spec_parser.h"

#include <gtest/gtest.h>

#include "toolgen/tool.h"

namespace qosctrl::toolgen {
namespace {

const char kGoodSpec[] = R"(
# a comment
action acquire
action process
action emit
edge acquire process
edge process emit
levels 0 1
times acquire * 100 150
times emit    * 80  120
times process 0 200 400
times process 1 500 1200
iterations 4
budget 8000
)";

TEST(SpecParser, ParsesAWellFormedSpec) {
  const ParsedSpec spec = parse_spec_string(kGoodSpec);
  ASSERT_TRUE(spec.ok) << spec.error;
  EXPECT_EQ(spec.input.body.num_actions(), 3u);
  EXPECT_EQ(spec.input.iterations, 4);
  EXPECT_EQ(spec.budget, 8000);
  ASSERT_EQ(spec.input.qualities.size(), 2u);
  EXPECT_EQ(spec.input.times[0][1].average, 200);
  EXPECT_EQ(spec.input.times[1][1].worst_case, 1200);
  EXPECT_EQ(spec.input.times[0][0].average, 100);  // '*' filled both
  EXPECT_EQ(spec.input.times[1][0].average, 100);
}

TEST(SpecParser, ParsedSpecRunsThroughTheTool) {
  const ParsedSpec spec = parse_spec_string(kGoodSpec);
  ASSERT_TRUE(spec.ok);
  const ToolOutput out = run_tool(spec.input);
  EXPECT_EQ(out.tables->num_positions(), 12u);
  // Deadlines evenly paced: iteration j at (j+1) * 2000.
  EXPECT_EQ(out.system->deadline(0, 0), 2000);
  EXPECT_EQ(out.system->deadline(0, 11), 8000);
}

TEST(SpecParser, CommentsAndBlanksAreIgnored) {
  const ParsedSpec spec = parse_spec_string(
      "action a # trailing comment\n\n   \n# full comment\nlevels 0\n"
      "times a * 1 2\nbudget 100\n");
  ASSERT_TRUE(spec.ok) << spec.error;
  EXPECT_EQ(spec.input.body.num_actions(), 1u);
}

TEST(SpecParser, RejectsUnknownKeyword) {
  const ParsedSpec spec = parse_spec_string("frobnicate 3\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("line 1"), std::string::npos);
  EXPECT_NE(spec.error.find("frobnicate"), std::string::npos);
}

TEST(SpecParser, RejectsUnknownActionInEdge) {
  const ParsedSpec spec =
      parse_spec_string("action a\nedge a ghost\nlevels 0\n"
                        "times a * 1 2\nbudget 10\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("ghost"), std::string::npos);
}

TEST(SpecParser, RejectsDuplicateAction) {
  const ParsedSpec spec = parse_spec_string("action a\naction a\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("duplicate"), std::string::npos);
}

TEST(SpecParser, RejectsCycle) {
  const ParsedSpec spec = parse_spec_string(
      "action a\naction b\nedge a b\nedge b a\nlevels 0\n"
      "times a * 1 2\ntimes b * 1 2\nbudget 10\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("cycle"), std::string::npos);
}

TEST(SpecParser, RejectsMissingTimes) {
  const ParsedSpec spec = parse_spec_string(
      "action a\naction b\nlevels 0 1\ntimes a * 1 2\n"
      "times b 0 1 2\nbudget 10\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("no times"), std::string::npos);
  EXPECT_NE(spec.error.find("level 1"), std::string::npos);
}

TEST(SpecParser, RejectsNonMonotoneTimes) {
  const ParsedSpec spec = parse_spec_string(
      "action a\nlevels 0 1\ntimes a 0 100 200\ntimes a 1 50 80\n"
      "budget 10\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("decrease"), std::string::npos);
}

TEST(SpecParser, RejectsAvAboveWc) {
  const ParsedSpec spec =
      parse_spec_string("action a\nlevels 0\ntimes a * 10 5\nbudget 10\n");
  EXPECT_FALSE(spec.ok);
}

TEST(SpecParser, RejectsUnsortedLevels) {
  const ParsedSpec spec = parse_spec_string(
      "action a\nlevels 1 0\ntimes a * 1 2\nbudget 10\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("increasing"), std::string::npos);
}

TEST(SpecParser, RejectsMissingBudget) {
  const ParsedSpec spec =
      parse_spec_string("action a\nlevels 0\ntimes a * 1 2\n");
  EXPECT_FALSE(spec.ok);
  EXPECT_NE(spec.error.find("budget"), std::string::npos);
}

TEST(SpecParser, RejectsEmptySpec) {
  const ParsedSpec spec = parse_spec_string("");
  EXPECT_FALSE(spec.ok);
}

/// A spec that is well formed except for `line`, appended last.
ParsedSpec parse_with(const std::string& line) {
  return parse_spec_string(
      "action a\naction b\nlevels 0 1\ntimes a * 1 2\ntimes b * 1 2\n"
      "budget 100\n" +
      line + "\n");
}

TEST(SpecParser, RejectsTrailingTextInNumbers) {
  // Each number token is read whole: "9x" is not 9, "20.5" is not 20.
  EXPECT_FALSE(parse_spec_string("action a\nlevels 0 1 2 3 9x\n"
                                 "times a * 1 2\nbudget 100\n")
                   .ok);
  EXPECT_FALSE(parse_spec_string("action a\nlevels 0 1 2 3 junk\n"
                                 "times a * 1 2\nbudget 100\n")
                   .ok);
  EXPECT_FALSE(parse_spec_string("action a\nlevels 0\n"
                                 "times a * 1 2\nbudget 1234x\n")
                   .ok);
  EXPECT_FALSE(parse_with("iterations 20.5").ok);
  const ParsedSpec level = parse_with("times a 3x 1 2");
  EXPECT_FALSE(level.ok);
  EXPECT_NE(level.error.find("3x"), std::string::npos) << level.error;
  EXPECT_FALSE(parse_with("times a 0 1 2x").ok);
  EXPECT_FALSE(parse_with("budget 99999999999999999999").ok);  // past int64
}

TEST(SpecParser, RejectsLeftoverTextInADirective) {
  // Every directive consumes its whole line.
  for (const char* line :
       {"action c d", "edge a b extra", "iterations 4 4", "budget 100 7",
        "times a * 1 2 3"}) {
    const ParsedSpec spec = parse_with(line);
    EXPECT_FALSE(spec.ok) << line;
    EXPECT_NE(spec.error.find("line 7"), std::string::npos) << spec.error;
  }
  // Comments still end a directive anywhere.
  const ParsedSpec commented = parse_with("iterations 4 # four");
  EXPECT_TRUE(commented.ok) << commented.error;
}

TEST(SpecParser, RejectsNumbersPastTheModelsRange) {
  // A budget at kNoDeadline would pace deadlines that read as none.
  const ParsedSpec at_no_deadline =
      parse_spec_string("action a\nlevels 0\ntimes a * 1 2\niterations 4\n"
                        "budget 1152921504606846976\n");
  EXPECT_FALSE(at_no_deadline.ok);
  EXPECT_NE(at_no_deadline.error.find("line 5:"), std::string::npos)
      << at_no_deadline.error;
  EXPECT_FALSE(parse_with("budget 9223372036854775807").ok);
  EXPECT_TRUE(parse_with("budget 1152921504606846975").ok);

  // Worst cases whose sum (or iterations x sum) passes kNoDeadline.
  for (const char* text :
       {"action a\naction b\nedge a b\nlevels 0\n"
        "times a * 5000000000000000000 6000000000000000000\n"
        "times b * 5000000000000000000 6000000000000000000\nbudget 100\n",
        "action a\nlevels 0\ntimes a * 1 576460752303423489\n"
        "iterations 2\nbudget 100\n"}) {
    const ParsedSpec spec = parse_spec_string(text);
    EXPECT_FALSE(spec.ok) << text;
    EXPECT_NE(spec.error.find("worst case"), std::string::npos)
        << spec.error;
  }
  // Exactly kNoDeadline is in range (the tool then rejects the budget
  // as unschedulable, which is its own check).
  EXPECT_TRUE(parse_spec_string("action a\nlevels 0\n"
                                "times a * 1 576460752303423488\n"
                                "iterations 2\nbudget 100\n")
                  .ok);

  // More unrolled actions than ActionId holds; nothing is unrolled.
  const ParsedSpec ids = parse_with("iterations 2147483647");
  EXPECT_FALSE(ids.ok);
  EXPECT_NE(ids.error.find("action id"), std::string::npos) << ids.error;
  EXPECT_TRUE(parse_with("iterations 1073741823").ok);
}

TEST(SpecParser, LaterTimesOverrideEarlier) {
  const ParsedSpec spec = parse_spec_string(
      "action a\nlevels 0\ntimes a * 1 2\ntimes a 0 5 9\nbudget 10\n");
  ASSERT_TRUE(spec.ok) << spec.error;
  EXPECT_EQ(spec.input.times[0][0].average, 5);
  EXPECT_EQ(spec.input.times[0][0].worst_case, 9);
}

}  // namespace
}  // namespace qosctrl::toolgen
