// Tests for the CLI flag parser and the table/CSV writer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tlb/util/cli.hpp"
#include "tlb/util/table.hpp"

namespace {

using tlb::util::Cli;
using tlb::util::Table;

std::vector<char*> make_argv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

TEST(CliTest, DefaultsApplyWhenUnset) {
  Cli cli;
  cli.add_flag("trials", "100", "number of trials");
  std::vector<std::string> args = {"prog"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("trials"), 100);
}

TEST(CliTest, EqualsSyntax) {
  Cli cli;
  cli.add_flag("trials", "100", "number of trials");
  std::vector<std::string> args = {"prog", "--trials=42"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("trials"), 42);
}

TEST(CliTest, SpaceSyntax) {
  Cli cli;
  cli.add_flag("seed", "1", "rng seed");
  std::vector<std::string> args = {"prog", "--seed", "777"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int("seed"), 777);
}

TEST(CliTest, BooleanFlag) {
  Cli cli;
  cli.add_flag("verbose", "false", "chatty output");
  std::vector<std::string> args = {"prog", "--verbose"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliTest, UnknownFlagFailsParse) {
  Cli cli;
  cli.add_flag("trials", "100", "number of trials");
  std::vector<std::string> args = {"prog", "--tirals=3"};
  auto argv = make_argv(args);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

TEST(CliTest, IntAndDoubleLists) {
  Cli cli;
  cli.add_flag("sizes", "1,2,3", "sweep sizes");
  cli.add_flag("epsilons", "0.1,0.2", "sweep epsilons");
  std::vector<std::string> args = {"prog", "--sizes=64,128,256"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_int_list("sizes"),
            (std::vector<std::int64_t>{64, 128, 256}));
  const auto eps = cli.get_double_list("epsilons");
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_DOUBLE_EQ(eps[0], 0.1);
}

TEST(CliTest, PositionalArgumentsCollected) {
  Cli cli;
  std::vector<std::string> args = {"prog", "input.txt", "output.txt"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
}

/// A Cli with int flag "trials", double flag "alpha" and list flags
/// "sizes"/"alphas", parsed from `--<flag>=<value>`.
Cli parsed(const std::string& flag, const std::string& value) {
  Cli cli;
  cli.add_flag("trials", "1", "");
  cli.add_flag("alpha", "1", "");
  cli.add_flag("sizes", "", "");
  cli.add_flag("alphas", "", "");
  std::vector<std::string> args = {"prog", "--" + flag + "=" + value};
  auto argv = make_argv(args);
  EXPECT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  return cli;
}

/// `get()` throws std::invalid_argument whose message names --flag and
/// quotes the value.
template <class Get>
void expect_rejected(const std::string& flag, const std::string& value,
                     Get get) {
  const Cli cli = parsed(flag, value);
  try {
    get(cli);
    ADD_FAILURE() << "--" << flag << "=" << value << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--" + flag), std::string::npos) << msg;
    EXPECT_NE(msg.find("'" + value + "'"), std::string::npos) << msg;
  }
}

TEST(CliTest, IntFlagsRejectAnythingButAWholeInteger) {
  for (const std::string v : {"2x", "2.9", "", "1e3", " 5", "0x10",
                              "99999999999999999999"}) {
    expect_rejected("trials", v, [](const Cli& c) { c.get_int("trials"); });
  }
  EXPECT_EQ(parsed("trials", "-7").get_int("trials"), -7);
  EXPECT_EQ(parsed("trials", "9223372036854775807").get_int("trials"),
            INT64_MAX);
}

TEST(CliTest, DoubleFlagsRejectJunkAndOutOfRange) {
  for (const std::string v : {"0.2abc", "", "abc", " 1", "1e-320", "1e400",
                              "-1e400", "1,5"}) {
    expect_rejected("alpha", v, [](const Cli& c) { c.get_double("alpha"); });
  }
  EXPECT_DOUBLE_EQ(parsed("alpha", "2.5").get_double("alpha"), 2.5);
  EXPECT_DOUBLE_EQ(parsed("alpha", "1e308").get_double("alpha"), 1e308);
  EXPECT_DOUBLE_EQ(parsed("alpha", "1e-300").get_double("alpha"), 1e-300);
  // Non-finite values are numbers here; the config boundaries reject them.
  EXPECT_TRUE(std::isnan(parsed("alpha", "nan").get_double("alpha")));
  EXPECT_TRUE(std::isinf(parsed("alpha", "inf").get_double("alpha")));
}

TEST(CliTest, ListsRejectEmptyAndBadItems) {
  for (const std::string v : {"64,,128", "64,", ",64", ",", "64,2.5",
                              "64,1x"}) {
    expect_rejected("sizes", v, [](const Cli& c) { c.get_int_list("sizes"); });
  }
  for (const std::string v : {"0.1,,0.2", "0.1,", "0.1,1e-320", "0.1;0.2"}) {
    expect_rejected("alphas", v,
                    [](const Cli& c) { c.get_double_list("alphas"); });
  }
  EXPECT_TRUE(parsed("sizes", "").get_int_list("sizes").empty());
  EXPECT_EQ(parsed("sizes", "-1,0,7").get_int_list("sizes"),
            (std::vector<std::int64_t>{-1, 0, 7}));
}

TEST(CliTest, UnregisteredAccessThrows) {
  Cli cli;
  EXPECT_THROW(cli.get_string("nope"), std::invalid_argument);
}

TEST(TableTest, RowCountAndMismatchGuard) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, AsciiContainsAlignedCells) {
  Table t({"graph", "time"});
  t.add_row({"complete", "1.5"});
  t.add_row({"torus", "12"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("graph"), std::string::npos);
  EXPECT_NE(ascii.find("complete"), std::string::npos);
  EXPECT_NE(ascii.find("----"), std::string::npos);
}

TEST(TableTest, CsvRoundTrip) {
  Table t({"x", "y"});
  t.add_row({"1", "2.5"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2.5\n");
}

TEST(TableTest, WriteCsvCreatesFile) {
  Table t({"k"});
  t.add_row({"7"});
  const std::string path = ::testing::TempDir() + "/tlb_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "k\n7\n");
  std::remove(path.c_str());
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(Table::fmt(3.0), "3");
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::int64_t{-5}), "-5");
  EXPECT_EQ(Table::fmt(std::size_t{12}), "12");
}

}  // namespace
