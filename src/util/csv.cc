#include "util/csv.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace fedmigr::util {

std::string FormatDouble(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

TableWriter::TableWriter(std::vector<std::string> header)
    : header_(std::move(header)) {
  FEDMIGR_CHECK(!header_.empty());
}

void TableWriter::AddRow() { rows_.emplace_back(); }

void TableWriter::AddCell(std::string value) {
  FEDMIGR_CHECK(!rows_.empty()) << "AddRow() before AddCell()";
  FEDMIGR_CHECK_LT(rows_.back().size(), header_.size());
  rows_.back().push_back(std::move(value));
}

void TableWriter::AddCell(double value, int precision) {
  AddCell(FormatDouble(value, precision));
}

void TableWriter::AddCell(int value) { AddCell(std::to_string(value)); }

void TableWriter::Print(std::ostream& os) const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < header_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << cell;
      if (c + 1 < header_.size()) {
        os << std::string(widths[c] - cell.size() + 2, ' ');
      }
    }
    os << "\n";
  };
  print_row(header_);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) print_row(row);
}

}  // namespace fedmigr::util
