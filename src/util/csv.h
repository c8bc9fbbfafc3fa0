#pragma once
// Small CSV reader/writer used by trace I/O and bench result dumps, and
// the one whole-file reader and writer every run artifact (CSVs, JSONL
// traces, roll-ups, repro bundles) goes through.

#include <string>
#include <string_view>
#include <vector>

namespace mpdash {

class CsvWriter {
 public:
  explicit CsvWriter(std::vector<std::string> header);

  void add_row(const std::vector<std::string>& cells);
  std::string str() const;
  // Writes to `path` through write_file; returns false on I/O failure.
  bool write_file(const std::string& path) const;

  // RFC-4180 quoting for one cell (quotes only when needed).
  static std::string escape(const std::string& cell);

 private:
  std::string data_;
  std::size_t columns_;
};

// Parses CSV text (RFC-4180 quoting, \n or \r\n line ends) into rows of
// cells. The header row, if any, is returned as the first row.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

// Reads a whole file into *out; false when it cannot be opened or read.
bool read_file(const std::string& path, std::string* out);

// Replaces `path` with `text`; false when the file cannot be opened or any
// byte fails to land, the final flush at close included (a full disk).
bool write_file(const std::string& path, std::string_view text);

}  // namespace mpdash
