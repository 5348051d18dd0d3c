// Table emission for benchmark harnesses.
//
// Every bench binary prints a paper-style table to stdout; `TableWriter`
// renders it as aligned plain text.

#ifndef FEDMIGR_UTIL_CSV_H_
#define FEDMIGR_UTIL_CSV_H_

#include <ostream>
#include <string>
#include <vector>

namespace fedmigr::util {

// Column-aligned table with a header row. Cells are strings; numeric helpers
// format doubles compactly.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> header);

  // Starts a new row. Cells are appended with Add*() until the next AddRow().
  void AddRow();
  void AddCell(std::string value);
  void AddCell(double value, int precision = 2);
  void AddCell(int value);

  // Renders the table with padded columns.
  void Print(std::ostream& os) const;

  size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with fixed precision (helper shared with TableWriter).
std::string FormatDouble(double value, int precision);

}  // namespace fedmigr::util

#endif  // FEDMIGR_UTIL_CSV_H_
