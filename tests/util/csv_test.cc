#include "util/csv.h"

#include <sstream>

#include <gtest/gtest.h>

namespace fedmigr::util {
namespace {

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
  EXPECT_EQ(FormatDouble(-1.5, 1), "-1.5");
}

TEST(TableWriterTest, PrintsHeaderAndRows) {
  TableWriter table({"name", "value"});
  table.AddRow();
  table.AddCell("alpha");
  table.AddCell(1);
  table.AddRow();
  table.AddCell("beta");
  table.AddCell(2.5, 1);

  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableWriterTest, ColumnsAreAligned) {
  TableWriter table({"a", "b"});
  table.AddRow();
  table.AddCell("looooooong");
  table.AddCell("x");

  std::ostringstream os;
  table.Print(os);
  // Header line must be padded to the widest cell + separator.
  std::istringstream lines(os.str());
  std::string header;
  std::getline(lines, header);
  EXPECT_GE(header.size(), std::string("looooooong  b").size());
}

TEST(TableWriterTest, ShortRowsPrintBlankCells) {
  TableWriter table({"a", "b", "c"});
  table.AddRow();
  table.AddCell("only");
  std::ostringstream os;
  table.Print(os);  // must not crash; remaining columns blank
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

}  // namespace
}  // namespace fedmigr::util
