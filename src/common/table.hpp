#pragma once
// ASCII table emission used by the benchmark harnesses to print the paper's
// tables and figure data series.

#include <iosfwd>
#include <string>
#include <vector>

namespace clr::util {

/// Column-aligned ASCII table with an optional title, mirroring the layout of
/// the paper's tables (one header row, one or more value rows).
class TextTable {
 public:
  explicit TextTable(std::string title = {}) : title_(std::move(title)) {}

  /// Set the header row (clears nothing else).
  void set_header(std::vector<std::string> header);

  /// Append a row; it may have fewer cells than the header (padded blank).
  void add_row(std::vector<std::string> row);

  /// Convenience: format doubles with fixed precision.
  static std::string fmt(double value, int precision = 1);

  /// Render with box-drawing '-', '|' separators.
  std::string to_string() const;

  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Write `contents` to `path`, throwing std::runtime_error on failure.
void write_file(const std::string& path, const std::string& contents);

}  // namespace clr::util
