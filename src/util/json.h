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

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/units.h"

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
};

// The one checked read of a JSON value into a typed field; false when the
// value does not fit the field. A bool takes true/false, a string any
// string and a double any number. An integer, and a Duration (integer
// nanoseconds), takes only a whole literal its type holds: a fraction, an
// exponent, a sign it cannot carry or an overflow is malformed input,
// never a cast. On false, *out holds nothing the caller may use.
bool json_get(const JsonValue& v, bool* out);
bool json_get(const JsonValue& v, std::string* out);
bool json_get(const JsonValue& v, double* out);
bool json_get(const JsonValue& v, Duration* out);
template <typename T>
  requires std::is_integral_v<T>
bool json_get(const JsonValue& v, T* out) {
  if (!v.is_number()) return false;
  const char* end = v.number.data() + v.number.size();
  const auto res = std::from_chars(v.number.data(), end, *out);
  return res.ec == std::errc() && res.ptr == end;
}

// The field reads of one artifact's reader. A field is named the way the
// artifact spells it; its last dotted part is the key in the object read
// ("watchdog.max_wall_s" reads "max_wall_s" from the watchdog object).
// The first bad field sets *error to `<artifact>: missing or bad "<name>"`.
// An optional field keeps *out when absent, but one that is present must
// hold its type.
class JsonFields {
 public:
  JsonFields(const char* artifact, std::string* error)
      : artifact_(artifact), error_(error) {}

  template <typename T>
  bool get(const JsonValue& obj, const char* name, T* out,
           bool optional = false) const {
    const JsonValue* v = obj.find(key_of(name));
    if (v == nullptr) return optional || bad(name);
    return json_get(*v, out) || bad(name);
  }
  // Reports `name` as the bad field; always false.
  bool bad(const char* name) const;

 private:
  static std::string_view key_of(std::string_view name);

  const char* artifact_;
  std::string* error_;
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
