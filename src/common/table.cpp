#include "common/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace clr::util {

void TextTable::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string TextTable::fmt(double value, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << value;
  return oss.str();
}

std::string TextTable::to_string() const {
  std::size_t cols = header_.size();
  for (const auto& r : rows_) cols = std::max(cols, r.size());
  std::vector<std::size_t> widths(cols, 0);
  auto measure = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  };
  measure(header_);
  for (const auto& r : rows_) measure(r);

  auto rule = [&]() {
    std::string s = "+";
    for (std::size_t c = 0; c < cols; ++c) s += std::string(widths[c] + 2, '-') + "+";
    return s + "\n";
  };
  auto line = [&](const std::vector<std::string>& row) {
    std::string s = "|";
    for (std::size_t c = 0; c < cols; ++c) {
      const std::string cell = c < row.size() ? row[c] : std::string{};
      s += " " + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    return s + "\n";
  };

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  out += rule();
  if (!header_.empty()) {
    out += line(header_);
    out += rule();
  }
  for (const auto& r : rows_) out += line(r);
  out += rule();
  return out;
}

void TextTable::print(std::ostream& os) const { os << to_string(); }

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_file: cannot open " + path);
  f << contents;
  if (!f) throw std::runtime_error("write_file: write failed for " + path);
}

}  // namespace clr::util
