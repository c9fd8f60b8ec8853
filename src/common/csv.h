// Minimal CSV writer used by the bench harness to emit figure data.
#pragma once

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace mdsim {

/// Streams rows to a CSV file, or holds them in memory for another writer.
/// Fields containing commas/quotes/newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit CsvWriter(const std::string& path);
  /// Keeps the rows in memory until another writer append()s them.
  CsvWriter() = default;
  ~CsvWriter();

  CsvWriter(CsvWriter&&) = default;
  CsvWriter& operator=(CsvWriter&&) = default;

  void header(std::initializer_list<std::string> cols);

  /// Begin a row; append fields with `field`, close with `end_row`.
  CsvWriter& field(const std::string& v);
  CsvWriter& field(double v);
  CsvWriter& field(std::int64_t v);
  CsvWriter& field(std::uint64_t v);
  CsvWriter& field(int v) { return field(static_cast<std::int64_t>(v)); }
  void end_row();

  /// Write the rows an in-memory writer holds.
  void append(const CsvWriter& rows);

  const std::string& path() const { return path_; }

 private:
  void raw(const std::string& s);
  static std::string escape(const std::string& s);

  std::string path_;
  std::ofstream out_;
  std::ostringstream memory_;  // the rows, when no file is open
  bool row_started_ = false;
  std::ostringstream row_;
};

/// Format a double with fixed precision (helper for console tables).
std::string fmt_double(double v, int precision = 2);

}  // namespace mdsim
