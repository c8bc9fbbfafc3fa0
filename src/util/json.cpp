#include "util/json.h"

#include <charconv>
#include <cstdio>

namespace mpdash {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool json_get(const JsonValue& v, bool* out) {
  if (!v.is_bool()) return false;
  *out = v.boolean;
  return true;
}

bool json_get(const JsonValue& v, std::string* out) {
  if (!v.is_string()) return false;
  *out = v.str;
  return true;
}

bool json_get(const JsonValue& v, double* out) {
  if (!v.is_number()) return false;
  const char* end = v.number.data() + v.number.size();
  const auto res = std::from_chars(v.number.data(), end, *out);
  return res.ec == std::errc() && res.ptr == end;
}

bool json_get(const JsonValue& v, Duration* out) {
  std::int64_t ns = 0;
  if (!json_get(v, &ns)) return false;
  *out = Duration(ns);
  return true;
}

bool JsonFields::bad(const char* name) const {
  if (error_) {
    *error_ = std::string(artifact_) + ": missing or bad \"" + name + "\"";
  }
  return false;
}

std::string_view JsonFields::key_of(std::string_view name) {
  const std::size_t dot = name.rfind('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const char* what) {
    error = std::string("json: ") + what + " at offset " +
            std::to_string(pos);
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  bool parse_hex4(unsigned* out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos + static_cast<std::size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    pos += 4;
    *out = v;
    return true;
  }

  static void append_utf8(std::string* s, unsigned cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return fail("expected string");
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return fail("truncated escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            unsigned cp = 0;
            if (!parse_hex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // Surrogate pair: require the matching low half.
              if (!(consume('\\') && consume('u'))) {
                return fail("lone high surrogate");
              }
              unsigned lo = 0;
              if (!parse_hex4(&lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF) {
                return fail("bad low surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("lone low surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default: return fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      out->push_back(c);
      ++pos;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (!consume('0')) {
      if (pos >= text.size() || text[pos] < '1' || text[pos] > '9') {
        pos = start;
        return fail("bad number");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (consume('.')) {
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        return fail("bad number fraction");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (pos >= text.size() || text[pos] < '0' || text[pos] > '9') {
        return fail("bad number exponent");
      }
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    out->type = JsonValue::Type::kNumber;
    out->number.assign(text.substr(start, pos - start));
    // Validate: the literal must parse as a double.
    double v = 0.0;
    const auto res = std::from_chars(out->number.data(),
                                     out->number.data() + out->number.size(),
                                     v);
    if (res.ec != std::errc()) return fail("unparseable number");
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->type = JsonValue::Type::kObject;
      skip_ws();
      if (consume('}')) return true;
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (!consume(':')) return fail("expected ':'");
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        out->members.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) return true;
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out->type = JsonValue::Type::kArray;
      skip_ws();
      if (consume(']')) return true;
      while (true) {
        JsonValue v;
        if (!parse_value(&v, depth + 1)) return false;
        out->items.push_back(std::move(v));
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) return true;
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return parse_string(&out->str);
    }
    if (literal("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return true;
    }
    if (literal("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return true;
    }
    if (literal("null")) {
      out->type = JsonValue::Type::kNull;
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number(out);
    return fail("unexpected character");
  }
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  Parser p{text, 0, {}};
  // Reset in place rather than reassign: a caller parsing one document
  // per line into the same value (the JSONL trace loader) keeps the
  // member vector's capacity from line to line.
  out->type = JsonValue::Type::kNull;
  out->boolean = false;
  out->number.clear();
  out->str.clear();
  out->items.clear();
  out->members.clear();
  if (!p.parse_value(out, 0)) {
    if (error) *error = p.error;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error) {
      p.fail("trailing garbage");
      *error = p.error;
    }
    return false;
  }
  return true;
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_u64(std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace mpdash
