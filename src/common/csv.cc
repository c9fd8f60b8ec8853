#include "common/csv.h"

#include <iomanip>
#include <stdexcept>

namespace mdsim {

CsvWriter::CsvWriter(const std::string& path) : path_(path), out_(path) {
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path);
  }
}

CsvWriter::~CsvWriter() {
  if (row_started_) end_row();
}

std::string CsvWriter::escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::header(std::initializer_list<std::string> cols) {
  bool first = true;
  for (const auto& c : cols) {
    if (!first) row_ << ',';
    row_ << escape(c);
    first = false;
  }
  row_started_ = true;
  end_row();
}

CsvWriter& CsvWriter::field(const std::string& v) {
  if (row_started_) row_ << ',';
  row_ << escape(v);
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::field(double v) {
  if (row_started_) row_ << ',';
  row_ << std::setprecision(10) << v;
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::field(std::int64_t v) {
  if (row_started_) row_ << ',';
  row_ << v;
  row_started_ = true;
  return *this;
}

CsvWriter& CsvWriter::field(std::uint64_t v) {
  if (row_started_) row_ << ',';
  row_ << v;
  row_started_ = true;
  return *this;
}

void CsvWriter::end_row() {
  raw(row_.str());
  row_.str("");
  row_.clear();
  row_started_ = false;
}

void CsvWriter::append(const CsvWriter& rows) { out_ << rows.memory_.str(); }

void CsvWriter::raw(const std::string& s) {
  if (out_.is_open()) {
    out_ << s << '\n';
  } else {
    memory_ << s << '\n';
  }
}

std::string fmt_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace mdsim
