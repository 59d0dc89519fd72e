#include "platform/vcd.h"

#include <gtest/gtest.h>

#include <sstream>

namespace qosctrl::platform {
namespace {

qos::StepTrace step(rt::ActionId action, rt::QualityLevel quality,
                    rt::Cycles start, rt::Cycles cost) {
  qos::StepTrace s;
  s.action = action;
  s.quality = quality;
  s.start = start;
  s.cost = cost;
  return s;
}

std::vector<qos::StepTrace> sample_trace() {
  return {
      step(3, 2, 0, 100),
      step(4, 1, 100, 50),
      step(5, 0, 200, 25),  // 50-cycle idle gap before
  };
}

TEST(Vcd, ContainsHeaderAndDefinitions) {
  std::ostringstream os;
  write_vcd(os, sample_trace());
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module qosctrl $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 32 ! action $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 # busy $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
}

TEST(Vcd, EmitsTimestampsInOrder) {
  std::ostringstream os;
  write_vcd(os, sample_trace());
  const std::string vcd = os.str();
  const auto t0 = vcd.find("#0\n", vcd.find("$end\n"));
  const auto t100 = vcd.find("#100\n");
  const auto t150 = vcd.find("#150\n");  // idle gap start
  const auto t200 = vcd.find("#200\n");
  const auto t225 = vcd.find("#225\n");  // final busy drop
  ASSERT_NE(t0, std::string::npos);
  ASSERT_NE(t100, std::string::npos);
  ASSERT_NE(t150, std::string::npos);
  ASSERT_NE(t200, std::string::npos);
  ASSERT_NE(t225, std::string::npos);
  EXPECT_LT(t0, t100);
  EXPECT_LT(t100, t150);
  EXPECT_LT(t150, t200);
  EXPECT_LT(t200, t225);
}

TEST(Vcd, EncodesActionIdsAsBinary) {
  std::ostringstream os;
  write_vcd(os, sample_trace());
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("b11 !"), std::string::npos);   // action 3
  EXPECT_NE(vcd.find("b100 !"), std::string::npos);  // action 4
  EXPECT_NE(vcd.find("b10 \""), std::string::npos);  // quality 2
}

TEST(Vcd, IdleGapDropsBusy) {
  std::ostringstream os;
  write_vcd(os, sample_trace());
  const std::string vcd = os.str();
  // At #150 the busy flag must fall before rising again at #200.
  const auto gap = vcd.find("#150\n0#");
  EXPECT_NE(gap, std::string::npos);
}

TEST(Vcd, EmptyTraceIsStillValid) {
  std::ostringstream os;
  write_vcd(os, {});
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
}

TEST(Vcd, EndToEndWithRunCycle) {
  rt::PrecedenceGraph g;
  g.add_action("a");
  g.add_action("b");
  g.add_edge(0, 1);
  rt::ParameterizedSystem sys(std::move(g), {0, 1});
  for (rt::ActionId a = 0; a < 2; ++a) {
    sys.set_times(0, a, 10, 10);
    sys.set_times(1, a, 30, 30);
    sys.set_deadline_all_q(a, 1000);
  }
  qos::ConstantController ctl(sys, 1);
  // A late start at t0 = 5 shows as an idle gap before the first step.
  const qos::CycleTrace trace = qos::run_cycle(
      sys, ctl,
      [&](rt::ActionId a, rt::QualityLevel q) { return sys.cwc(q, a); },
      /*t0=*/5);
  std::ostringstream os;
  write_vcd(os, trace.steps);
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("#0\n0#\n#5\n"), std::string::npos);
  EXPECT_NE(vcd.find("b1 \""), std::string::npos);  // quality level 1
  EXPECT_NE(vcd.find("#35\n"), std::string::npos);
  EXPECT_NE(vcd.find("#65\n0#"), std::string::npos);
}

TEST(VcdDeath, RejectsNonChronologicalTrace) {
  const std::vector<qos::StepTrace> bad{step(0, 0, 100, 10),
                                        step(1, 0, 50, 10)};
  std::ostringstream os;
  EXPECT_DEATH(write_vcd(os, bad), "chronological");
}

}  // namespace
}  // namespace qosctrl::platform
