#pragma once
// Minimal JSON document parser: the one reader for every JSON artifact the
// simulator writes — fault plans, repro bundles, and the JSONL traces
// (one document per line, see load_trace_jsonl). The emitters are
// hand-rolled (trace JSONL, fault-plan and bundle serializers); this is
// the matching reader: a small value tree that keeps number literals as
// raw text so integer nanosecond counts and shortest-round-trip doubles
// survive a parse → re-serialize cycle bitwise.
//
// Deliberately not a general-purpose library: no streaming, no SAX, no
// allocator hooks — parse a whole document, walk the tree, done.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mpdash {

struct JsonValue {
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool boolean = false;
  std::string number;  // raw literal text, lossless (kNumber)
  std::string str;     // decoded string (kString)
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject,
                                                           // insertion order

  bool is_null() const { return type == Type::kNull; }
  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_bool() const { return type == Type::kBool; }

  // Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Scalar accessors: fall back when the value has the wrong type or the
  // literal does not parse.
  double as_double(double fallback = 0.0) const;
  std::int64_t as_int64(std::int64_t fallback = 0) const;
  std::uint64_t as_uint64(std::uint64_t fallback = 0) const;
  bool as_bool(bool fallback = false) const;
};

// Parses exactly one JSON document (trailing whitespace allowed, trailing
// garbage is an error). *out is reset in place first, so reusing one value
// across many documents keeps its storage. On failure returns false and
// fills *error with "json: <what> at offset <n>".
bool json_parse(std::string_view text, JsonValue* out, std::string* error);

// Quotes and escapes `s` as a JSON string literal (for the emitters).
std::string json_quote(std::string_view s);

// Shortest decimal form that round-trips the exact double (std::to_chars
// shortest representation) — the float format every triage serializer
// uses so parse → re-serialize is bitwise stable.
std::string json_double(double v);

// Decimal form of an unsigned 64-bit value (seeds, event budgets): JSON
// numbers carry it losslessly because the parser keeps the raw literal.
std::string json_u64(std::uint64_t v);

}  // namespace mpdash
