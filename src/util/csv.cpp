#include "util/csv.h"

#include <cstdio>

namespace mpdash {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : columns_(header.size()) {
  std::string line;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) line += ',';
    line += escape(header[i]);
  }
  data_ = line + "\n";
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  std::string line;
  for (std::size_t i = 0; i < columns_; ++i) {
    if (i) line += ',';
    if (i < cells.size()) line += escape(cells[i]);
  }
  // A lone empty cell would serialize to an empty line, which readers
  // (including ours) treat as "no row"; quote it so the row survives.
  if (line.empty()) line = "\"\"";
  data_ += line + "\n";
}

std::string CsvWriter::str() const { return data_; }

bool CsvWriter::write_file(const std::string& path) const {
  return mpdash::write_file(path, data_);
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_data = false;

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_data = true;
        break;
      case ',':
        row.push_back(std::move(cell));
        cell.clear();
        row_has_data = true;
        break;
      case '\r':
        break;
      case '\n':
        if (row_has_data || !cell.empty()) {
          row.push_back(std::move(cell));
          cell.clear();
          rows.push_back(std::move(row));
          row.clear();
        }
        row_has_data = false;
        break;
      default:
        cell += c;
        row_has_data = true;
    }
  }
  if (row_has_data || !cell.empty()) {
    row.push_back(std::move(cell));
    rows.push_back(std::move(row));
  }
  return rows;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace mpdash
