#include "common/table.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "test_dir.hpp"

namespace stac {
namespace {

TEST(Table, PrintsAlignedHeadersAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, NumericRowFormatting) {
  Table t({"label", "x", "y"});
  t.add_row_numeric("row", {1.23456, 2.0}, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.23"), std::string::npos);
  EXPECT_NE(os.str().find("2.00"), std::string::npos);
}

TEST(Table, CsvEscapesCommas) {
  Table t({"k", "v"});
  t.add_row({"with,comma", "plain"});
  const TestDir dir;
  const std::string path = dir.file("table.csv");
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "k,v");
  EXPECT_EQ(row, "\"with,comma\",plain");
}

TEST(Table, NumAndPctHelpers) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.123), "12.3%");
}

TEST(Banner, ContainsTitle) {
  std::ostringstream os;
  print_banner(os, "Figure 6");
  EXPECT_NE(os.str().find("== Figure 6 =="), std::string::npos);
}

}  // namespace
}  // namespace stac
