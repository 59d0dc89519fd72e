#include "cli_util.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace qosctrl::cli {
namespace {

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// Runs `cl.parse` over "tool cmd args..."; the strings outlive the
/// parse so text flags can keep pointers into them.
struct Parsed {
  std::vector<std::string> args;
  std::string err;
  int rc = 0;

  Parsed(const CommandLine& cl, std::vector<std::string> flags)
      : args(std::move(flags)) {
    args.insert(args.begin(), {"tool", "cmd"});
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    testing::internal::CaptureStderr();
    rc = cl.parse(static_cast<int>(argv.size()), argv.data());
    err = testing::internal::GetCapturedStderr();
  }
};

/// One flag of each kind, and the values they store.  The setters
/// point into the object, so it is never copied.
struct Table {
  Table() = default;
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  int count = 5;
  int lo = 4, hi = 8;
  std::uint64_t seed = 0;
  std::int64_t window = 0;
  std::int64_t cost = 0;
  double prob = 0.0;
  double factor = 2.0;
  const char* path = nullptr;
  bool quiet = false;
  bool count_given = false;
  std::vector<std::uint64_t> seeds = {7};
  std::vector<farm::FailureEvent> failures;
  std::vector<obs::SloSpec> slos;
  CommandLine cl{"tool", "cmd", {
      given(integer("--count", "N", &count, 0), &count_given),
      int_range("--frames", "LO[:HI]", &lo, &hi, 1),
      u64("--seed", "S", &seed),
      cycles("--window", "W", &window, 1),
      cycles("--cost", "C", &cost, 0, 1000),
      fraction("--prob", "F", &prob),
      real_above("--factor", "X", &factor, 1.0),
      text("--out", "PATH", &path),
      enable("--quiet", &quiet),
      list("--seeds", "A,B,...", &seeds, parse_u64),
      append("--fail", "P@T[+R]", &failures, parse_failure),
      slo("tool", &slos),
  }};
};

TEST(CliFlags, StoresEachKind) {
  Table t;
  const Parsed r(t.cl, {"--count", "3", "--seed", "18446744073709551615",
                        "--window", "9223372036854775807", "--cost", "1000",
                        "--prob", "0.25", "--factor", "1.5", "--out", "x.json",
                        "--quiet", "--seeds", "3,5"});
  ASSERT_EQ(r.rc, -1) << r.err;
  EXPECT_EQ(t.count, 3);
  EXPECT_TRUE(t.count_given);
  EXPECT_EQ(t.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(t.window, kInt64Max);
  EXPECT_EQ(t.cost, 1000);
  EXPECT_EQ(t.prob, 0.25);
  EXPECT_EQ(t.factor, 1.5);
  EXPECT_STREQ(t.path, "x.json");
  EXPECT_TRUE(t.quiet);
  EXPECT_EQ(t.seeds, (std::vector<std::uint64_t>{3, 5}));
}

TEST(CliFlags, DefaultsStayWhenAFlagIsAbsent) {
  Table t;
  const Parsed r(t.cl, {});
  ASSERT_EQ(r.rc, -1);
  EXPECT_EQ(t.count, 5);
  EXPECT_FALSE(t.count_given);
  EXPECT_EQ(t.seeds, std::vector<std::uint64_t>{7});
}

TEST(CliFlags, RejectsAnUnknownFlag) {
  Table t;
  const Parsed r(t.cl, {"--count", "3", "--bogus"});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("tool: unknown option --bogus"), std::string::npos);
  EXPECT_NE(r.err.find("usage: tool cmd"), std::string::npos);
}

TEST(CliFlags, RejectsAValueMissingAtTheEnd) {
  Table t;
  const Parsed r(t.cl, {"--count"});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("tool: --count needs a value"), std::string::npos);
}

TEST(CliFlags, RejectedValuesShareOneMessage) {
  Table t;
  const Parsed r(t.cl, {"--count", "x"});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("tool: bad value for --count: 'x'"),
            std::string::npos);
}

TEST(CliFlags, CommandIsRequired) {
  Table t;
  EXPECT_EQ(Parsed(t.cl, {}).rc, -1);
  CommandLine other{"tool", "other", {}};
  EXPECT_EQ(Parsed(other, {}).rc, 2);
}

TEST(CliFlags, ScalarFlagsKeepTheLastValue) {
  Table t;
  const Parsed r(t.cl, {"--count", "3", "--count", "4", "--seeds", "1,2",
                        "--seeds", "9"});
  ASSERT_EQ(r.rc, -1);
  EXPECT_EQ(t.count, 4);
  EXPECT_EQ(t.seeds, std::vector<std::uint64_t>{9});
}

TEST(CliFlags, RepeatableFlagsAppend) {
  Table t;
  const Parsed r(t.cl, {"--fail", "1@20+5", "--slo", "miss_rate<=0.5",
                        "--fail", "0@7", "--slo", "recovery_latency<10w"});
  ASSERT_EQ(r.rc, -1) << r.err;
  ASSERT_EQ(t.failures.size(), 2u);
  EXPECT_EQ(t.failures[0].processor, 1);
  EXPECT_EQ(t.failures[0].time, 20);
  EXPECT_EQ(t.failures[0].repair, 5);
  EXPECT_EQ(t.failures[1].processor, 0);
  EXPECT_EQ(t.failures[1].time, 7);
  EXPECT_EQ(t.failures[1].repair, 0);
  ASSERT_EQ(t.slos.size(), 2u);
  EXPECT_EQ(t.slos[1].metric, obs::SloMetric::kRecoveryLatency);
}

/// Each {flag, value} must be refused with the one message.
void expect_rejected(const std::vector<std::pair<std::string, std::string>>&
                         cases) {
  for (const auto& [flag, value] : cases) {
    Table t;
    const Parsed r(t.cl, {flag, value});
    EXPECT_EQ(r.rc, 2) << flag << ' ' << value;
    EXPECT_NE(r.err.find("bad value for " + flag + ": '" + value + "'"),
              std::string::npos)
        << r.err;
  }
}

TEST(CliFlags, IntBounds) {
  expect_rejected({{"--count", "2147483648"},
                   {"--count", "-2147483649"},
                   {"--count", "-1"},
                   {"--count", "3x"},
                   {"--count", ""}});
}

TEST(CliFlags, RangesAreOrderedAndBounded) {
  expect_rejected({{"--frames", "0:3"},
                   {"--frames", "5:3"},
                   {"--frames", "3:"},
                   {"--frames", ":3"},
                   {"--frames", "3:4294967298"}});
  Table t;
  ASSERT_EQ(Parsed(t.cl, {"--frames", "3"}).rc, -1);
  EXPECT_EQ(t.lo, 3);
  EXPECT_EQ(t.hi, 3);
  ASSERT_EQ(Parsed(t.cl, {"--frames", "2:6"}).rc, -1);
  EXPECT_EQ(t.lo, 2);
  EXPECT_EQ(t.hi, 6);
}

TEST(CliFlags, U64RejectsSignsAndOverflow) {
  expect_rejected({{"--seed", "-1"},
                   {"--seed", "+1"},
                   {"--seed", "18446744073709551616"}});
}

TEST(CliFlags, CyclesStopAtInt64Max) {
  expect_rejected({{"--window", "9223372036854775808"},
                   {"--window", "18446744073709551615"},
                   {"--window", "-1"},
                   {"--window", "0"},
                   {"--cost", "1001"}});
}

TEST(CliFlags, FractionStaysInTheUnitInterval) {
  expect_rejected({{"--prob", "1.5"},
                   {"--prob", "-0.1"},
                   {"--prob", "nan"}});
  Table t;
  ASSERT_EQ(Parsed(t.cl, {"--prob", "1"}).rc, -1);
  EXPECT_EQ(t.prob, 1.0);
}

TEST(CliFlags, DoublesMustBeFinite) {
  expect_rejected({{"--factor", "nan"},
                   {"--factor", "inf"},
                   {"--factor", "-inf"},
                   {"--factor", "1e999"},
                   {"--factor", "1"}});
}

TEST(CliFlags, ListsRejectEmptyItems) {
  expect_rejected({{"--seeds", ""},
                   {"--seeds", "3,"},
                   {"--seeds", ",3"},
                   {"--seeds", "3,,4"},
                   {"--seeds", "3,-4"}});
}

TEST(CliFlags, FailureRepairMustNotOverflow) {
  expect_rejected({{"--fail", "0@9223372036854775808"},
                   {"--fail", "0@100+9223372036854775808"},
                   {"--fail", "0@9223372036854775800+100"},
                   {"--fail", "0@100+0"},
                   {"--fail", "-1@100"},
                   {"--fail", "@100"}});
  Table t;
  ASSERT_EQ(Parsed(t.cl, {"--fail", "0@100+9223372036854775707"}).rc, -1);
  EXPECT_EQ(t.failures.at(0).time + t.failures.at(0).repair, kInt64Max);
}

TEST(CliFlags, SloPrintsTheGrammarError) {
  Table t;
  const Parsed r(t.cl, {"--slo", "latency_p99>5"});
  EXPECT_EQ(r.rc, 2);
  EXPECT_NE(r.err.find("tool: --slo: "), std::string::npos);
  EXPECT_NE(r.err.find("bad value for --slo: 'latency_p99>5'"),
            std::string::npos);
}

TEST(CliFlags, SynopsisListsEveryFlagWithItsPlaceholder) {
  Table t;
  const std::string usage = t.cl.usage();
  EXPECT_EQ(usage.rfind("usage: tool cmd [--count N]", 0), 0u) << usage;
  // Lines break only between entries, so each entry is found whole.
  for (const Flag& f : t.cl.flags) {
    const std::string entry =
        std::string("[") + f.name +
        (f.placeholder ? std::string(" ") + f.placeholder : "") + "]";
    EXPECT_NE(usage.find(entry), std::string::npos) << entry;
  }
  EXPECT_NE(usage.find("[--quiet]"), std::string::npos);
  EXPECT_NE(usage.find("[--fail P@T[+R]]"), std::string::npos);
  for (std::size_t pos = 0, end; pos < usage.size(); pos = end + 1) {
    end = usage.find('\n', pos);
    EXPECT_LE(end - pos, 78u);
  }
}

TEST(CliFlags, HelpAndVersionNeedNoCommand) {
  Table t;
  std::vector<std::string> help = {"tool", "--help"};
  std::vector<char*> argv;
  for (std::string& a : help) argv.push_back(a.data());
  testing::internal::CaptureStdout();
  EXPECT_EQ(t.cl.parse(2, argv.data()), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), t.cl.usage());
}

}  // namespace
}  // namespace qosctrl::cli
