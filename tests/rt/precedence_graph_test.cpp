#include "rt/precedence_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace qosctrl::rt {
namespace {

PrecedenceGraph diamond() {
  PrecedenceGraph g;
  const ActionId a = g.add_action("a");
  const ActionId b = g.add_action("b");
  const ActionId c = g.add_action("c");
  const ActionId d = g.add_action("d");
  g.add_edge(a, b);
  g.add_edge(a, c);
  g.add_edge(b, d);
  g.add_edge(c, d);
  return g;
}

TEST(PrecedenceGraph, AddActionAssignsDenseIds) {
  PrecedenceGraph g;
  EXPECT_EQ(g.add_action("x"), 0);
  EXPECT_EQ(g.add_action("y"), 1);
  EXPECT_EQ(g.num_actions(), 2u);
  EXPECT_EQ(g.name(0), "x");
  EXPECT_EQ(g.name(1), "y");
}

TEST(PrecedenceGraph, EdgesAreRecordedBothWays) {
  PrecedenceGraph g = diamond();
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.predecessors(3).size(), 2u);
  EXPECT_TRUE(g.predecessors(0).empty());
  EXPECT_TRUE(g.successors(3).empty());
}

TEST(PrecedenceGraph, DuplicateEdgeIsIgnored) {
  PrecedenceGraph g = diamond();
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.successors(0).size(), 2u);
}

TEST(PrecedenceGraph, AcyclicDetection) {
  PrecedenceGraph g = diamond();
  EXPECT_TRUE(g.is_acyclic());
}

TEST(PrecedenceGraph, CycleDetection) {
  PrecedenceGraph g;
  const ActionId a = g.add_action("a");
  const ActionId b = g.add_action("b");
  const ActionId c = g.add_action("c");
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.add_edge(c, a);
  EXPECT_FALSE(g.is_acyclic());
}

TEST(PrecedenceGraph, TopologicalOrderRespectsEdges) {
  PrecedenceGraph g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) {
    pos[static_cast<std::size_t>(order[i])] = i;
  }
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(PrecedenceGraph, IsScheduleAcceptsValidOrders) {
  PrecedenceGraph g = diamond();
  EXPECT_TRUE(g.is_schedule({0, 1, 2, 3}));
  EXPECT_TRUE(g.is_schedule({0, 2, 1, 3}));
}

TEST(PrecedenceGraph, IsScheduleRejectsPrecedenceViolations) {
  PrecedenceGraph g = diamond();
  EXPECT_FALSE(g.is_schedule({1, 0, 2, 3}));  // b before a
  EXPECT_FALSE(g.is_schedule({0, 1, 3, 2}));  // d before c
}

TEST(PrecedenceGraph, IsScheduleRejectsWrongLengthOrDuplicates) {
  PrecedenceGraph g = diamond();
  EXPECT_FALSE(g.is_schedule({0, 1, 2}));        // incomplete
  EXPECT_FALSE(g.is_schedule({0, 1, 2, 2}));     // duplicate
  EXPECT_FALSE(g.is_schedule({0, 1, 2, 3, 3}));  // too long
}

TEST(PrecedenceGraph, PartialExecutionSequences) {
  PrecedenceGraph g = diamond();
  EXPECT_TRUE(g.is_execution_sequence({}));
  EXPECT_TRUE(g.is_execution_sequence({0}));
  EXPECT_TRUE(g.is_execution_sequence({0, 2}));
  EXPECT_FALSE(g.is_execution_sequence({2}));  // predecessor a missing
}

TEST(PrecedenceGraph, UnrollSingleCopyIsIdentity) {
  PrecedenceGraph g = diamond();
  PrecedenceGraph u = g.unroll(1);
  EXPECT_EQ(u.num_actions(), 4u);
  EXPECT_TRUE(u.is_schedule({0, 1, 2, 3}));
  EXPECT_FALSE(u.is_schedule({1, 0, 2, 3}));
}

TEST(PrecedenceGraph, UnrollChainsCopiesSequentially) {
  PrecedenceGraph g = diamond();
  PrecedenceGraph u = g.unroll(3);
  EXPECT_EQ(u.num_actions(), 12u);
  EXPECT_TRUE(u.is_acyclic());
  // Copy 1's source (id 4) must wait for copy 0's sink (id 3).
  const auto& preds = u.predecessors(4);
  EXPECT_TRUE(std::find(preds.begin(), preds.end(), 3) != preds.end());
  // A schedule interleaving copies is invalid.
  EXPECT_FALSE(u.is_execution_sequence({0, 1, 2, 4}));
  // The straight-line order is valid.
  EXPECT_TRUE(u.is_schedule({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(PrecedenceGraph, UnrollNamesCarryCopyIndex) {
  PrecedenceGraph g = diamond();
  PrecedenceGraph u = g.unroll(2);
  EXPECT_EQ(u.name(0), "a#0");
  EXPECT_EQ(u.name(7), "d#1");
}

// Property: unrolled graphs of arbitrary bodies stay acyclic and their
// topological order has the block structure copy 0 < copy 1 < ...
class UnrollProperty : public ::testing::TestWithParam<int> {};

TEST_P(UnrollProperty, BlocksStayOrdered) {
  PrecedenceGraph g = diamond();
  const int n = GetParam();
  PrecedenceGraph u = g.unroll(n);
  ASSERT_TRUE(u.is_acyclic());
  const auto order = u.topological_order();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(4 * n));
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i] / 4, static_cast<ActionId>(i / 4))
        << "position " << i << " is in the wrong copy block";
  }
}

INSTANTIATE_TEST_SUITE_P(Copies, UnrollProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 99));

}  // namespace
}  // namespace qosctrl::rt
