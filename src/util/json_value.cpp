#include "util/json_value.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace eus::util {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& reason) const {
    throw JsonParseError("JSON parse error at byte " + std::to_string(pos_) +
                         ": " + reason);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        if (consume_literal("true")) {
          v.boolean = true;
        } else if (consume_literal("false")) {
          v.boolean = false;
        } else {
          fail("invalid literal");
        }
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue{};
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point; surrogate pairs are not
          // needed by the harness's ASCII-only documents but basic
          // multilingual text should survive a round-trip.
          if (code < 0x80U) {
            out += static_cast<char>(code);
          } else if (code < 0x800U) {
            out += static_cast<char>(0xC0U | (code >> 6U));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          } else {
            out += static_cast<char>(0xE0U | (code >> 12U));
            out += static_cast<char>(0x80U | ((code >> 6U) & 0x3FU));
            out += static_cast<char>(0x80U | (code & 0x3FU));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("invalid number");
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<std::uint64_t> JsonValue::as_uint() const noexcept {
  constexpr double kMax = 9007199254740992.0;  // 2^53
  if (!is_number() || !(number >= 0.0 && number <= kMax) ||
      number != std::floor(number)) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(number);
}

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = get(key);
  return (v != nullptr && v->is_string()) ? v->string
                                          : std::string(fallback);
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_json(buffer.str());
}

}  // namespace eus::util
