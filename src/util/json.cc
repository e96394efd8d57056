#include "util/json.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace traceweaver::json {
namespace {

/// Nesting change of a byte outside strings. A table, not four compares:
/// this loop is the span parser's inner loop.
constexpr auto kDepthStep = [] {
  std::array<signed char, 256> step{};
  step['{'] = step['['] = 1;
  step['}'] = step[']'] = -1;
  return step;
}();

bool IsJsonWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Appends the UTF-8 encoding of a Unicode scalar value.
void AppendUtf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// The four hex digits of a \u escape starting at text[pos], or nullopt.
std::optional<std::uint32_t> Hex4(const std::string& text, std::size_t pos) {
  if (pos + 4 > text.size()) return std::nullopt;
  std::uint32_t cp = 0;
  for (std::size_t k = pos; k < pos + 4; ++k) {
    const char c = text[k];
    cp <<= 4;
    if (c >= '0' && c <= '9') {
      cp |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      cp |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      cp |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return cp;
}

template <typename Int>
std::optional<Int> FieldInt(const std::string& text, const char* key) {
  const std::size_t pos = FindValue(text, key);
  if (pos == std::string::npos) return std::nullopt;
  Int v{};
  const auto [end, ec] =
      std::from_chars(text.data() + pos, text.data() + text.size(), v);
  if (ec != std::errc()) return std::nullopt;
  return v;
}

}  // namespace

void AppendStr(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendStrField(std::string& out, const char* key,
                    std::string_view value) {
  out += '"';
  out += key;
  out += "\":";
  AppendStr(out, value);
}

std::size_t FindValue(const std::string& text, const char* key) {
  const std::size_t key_len = std::strlen(key);
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"') {
      depth += kDepthStep[static_cast<unsigned char>(c)];
      continue;
    }
    // An opening quote: our key, another key, or a string value.
    if (depth <= 1 && text.compare(i + 1, key_len, key) == 0 &&
        i + 1 + key_len < text.size() && text[i + 1 + key_len] == '"') {
      std::size_t j = i + 2 + key_len;
      while (j < text.size() && IsJsonWhitespace(text[j])) ++j;
      if (j < text.size() && text[j] == ':') {
        ++j;
        while (j < text.size() && IsJsonWhitespace(text[j])) ++j;
        return j;
      }
    }
    // Not our key: skip the whole string body so nothing inside it can be
    // mistaken for structure.
    ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') ++i;
      if (i < text.size()) ++i;
    }
    if (i >= text.size()) return std::string::npos;  // Unterminated.
  }
  return std::string::npos;
}

std::optional<std::uint64_t> FieldU64(const std::string& text,
                                      const char* key) {
  return FieldInt<std::uint64_t>(text, key);
}

std::optional<std::int64_t> FieldI64(const std::string& text,
                                     const char* key) {
  return FieldInt<std::int64_t>(text, key);
}

std::optional<double> FieldF64(const std::string& text, const char* key) {
  const std::size_t pos = FindValue(text, key);
  if (pos == std::string::npos) return std::nullopt;
  // strtod accepts the JSON number grammar plus more; writers only
  // produce %.17g / %.6f values, so this round-trips exactly.
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + pos, &end);
  if (end == text.c_str() + pos) return std::nullopt;
  return v;
}

std::optional<std::string> FieldStr(const std::string& text,
                                    const char* key) {
  std::size_t pos = FindValue(text, key);
  if (pos == std::string::npos || pos >= text.size() || text[pos] != '"') {
    return std::nullopt;
  }
  std::string out;
  for (++pos; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++pos >= text.size()) break;
    switch (text[pos]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        auto cp = Hex4(text, pos + 1);
        if (!cp) return std::nullopt;
        pos += 4;
        if (*cp >= 0xDC00 && *cp <= 0xDFFF) return std::nullopt;
        if (*cp >= 0xD800 && *cp <= 0xDBFF) {
          // A high surrogate must be followed by an escaped low one.
          if (text.compare(pos + 1, 2, "\\u") != 0) return std::nullopt;
          const auto low = Hex4(text, pos + 3);
          if (!low || *low < 0xDC00 || *low > 0xDFFF) return std::nullopt;
          cp = 0x10000 + ((*cp - 0xD800) << 10) + (*low - 0xDC00);
          pos += 6;
        }
        AppendUtf8(out, *cp);
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;  // Unterminated.
}

}  // namespace traceweaver::json
