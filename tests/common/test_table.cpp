#include "common/table.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace clr::util {
namespace {

TEST(TextTable, RendersHeaderAndRows) {
  TextTable t("title");
  t.set_header({"a", "bb"});
  t.add_row({"1", "2"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("| a | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 1 | 2  |"), std::string::npos);
}

TEST(TextTable, PadsShortRows) {
  TextTable t;
  t.set_header({"x", "y", "z"});
  t.add_row({"only"});
  const std::string s = t.to_string();
  // Row renders with empty padded cells and consistent rule width.
  const auto first_rule = s.find('+');
  ASSERT_NE(first_rule, std::string::npos);
  // All lines have equal length.
  std::size_t prev_len = 0;
  std::size_t start = 0;
  bool first = true;
  while (start < s.size()) {
    const auto end = s.find('\n', start);
    const std::size_t len = end - start;
    if (!first) {
      EXPECT_EQ(len, prev_len);
    }
    prev_len = len;
    first = false;
    start = end + 1;
  }
}

TEST(TextTable, ColumnWidthFollowsWidestCell) {
  TextTable t;
  t.set_header({"h"});
  t.add_row({"wide-cell"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| h         |"), std::string::npos);
}

TEST(TextTable, FmtFixedPrecision) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(2.0, 0), "2");
  EXPECT_EQ(TextTable::fmt(-0.5, 1), "-0.5");
}

TEST(WriteFile, RoundTrips) {
  const auto path = std::filesystem::temp_directory_path() / "clr_table_test.txt";
  write_file(path.string(), "hello\n");
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "hello");
  std::filesystem::remove(path);
}

TEST(WriteFile, ThrowsOnBadPath) {
  EXPECT_THROW(write_file("/nonexistent-dir-xyz/file.txt", "x"), std::runtime_error);
}

}  // namespace
}  // namespace clr::util
