#include "util/json.h"

#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace traceweaver::json {
namespace {

/// Nesting change of a byte outside strings.
constexpr auto kDepthStep = [] {
  std::array<signed char, 256> step{};
  step['{'] = step['['] = 1;
  step['}'] = step[']'] = -1;
  return step;
}();

// Word-at-a-time byte search (SWAR): the scanners below look at eight
// bytes per step instead of one, which is most of the walk's speed.
constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kHighs = 0x8080808080808080ull;

/// Eight bytes at p, first byte in the lowest bits.
std::uint64_t LoadWord(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// High bit set in each byte of `w` equal to `b`. Only the lowest set
/// bit is exact (a borrow can mark a higher byte), which is all the
/// scanners use: they stop at the first match.
std::uint64_t BytesEqual(std::uint64_t w, unsigned char b) {
  const std::uint64_t x = w ^ (kOnes * b);
  return (x - kOnes) & ~x & kHighs;
}

/// First index >= i of a '"' or a bracket in data[0, n), or n.
std::size_t SkipPlain(const char* data, std::size_t i, std::size_t n) {
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = LoadWord(data + i);
    // '[' ']' are '{' '}' without bit 0x20.
    const std::uint64_t folded = w | (kOnes * 0x20);
    const std::uint64_t hits = BytesEqual(w, '"') |
                               BytesEqual(folded, '{') |
                               BytesEqual(folded, '}');
    if (hits != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(hits) / 8);
    }
  }
  while (i < n && data[i] != '"' && kDepthStep[static_cast<unsigned char>(
                                        data[i])] == 0) {
    ++i;
  }
  return i;
}

/// Index of the quote closing a string whose body starts at data[i]; an
/// escape skips the byte after the backslash. >= n when unterminated.
std::size_t StringEnd(const char* data, std::size_t i, std::size_t n) {
  for (;;) {
    for (; i + 8 <= n; i += 8) {
      const std::uint64_t w = LoadWord(data + i);
      const std::uint64_t hits = BytesEqual(w, '"') | BytesEqual(w, '\\');
      if (hits != 0) {
        i += static_cast<std::size_t>(std::countr_zero(hits) / 8);
        break;
      }
    }
    while (i < n && data[i] != '"' && data[i] != '\\') ++i;
    if (i >= n || data[i] == '"') return i;
    i += 2;  // Backslash: skip it and the escaped byte.
  }
}

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
std::optional<std::uint32_t> Hex4(std::string_view text, std::size_t pos) {
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
std::optional<Int> ParseInt(std::string_view value) {
  Int v{};
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), v);
  if (ec != std::errc()) return std::nullopt;
  return v;
}

/// Bytes strtod may consume: whitespace, signs, digits, '.', exponent and
/// hex markers, and the letters and '(' ')' '_' of inf/nan(...).
constexpr auto kStrtodByte = [] {
  std::array<bool, 256> ok{};
  for (const char c : std::string_view(" \t\n\v\f\r+-._()")) {
    ok[static_cast<unsigned char>(c)] = true;
  }
  for (int c = '0'; c <= '9'; ++c) ok[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) ok[c] = ok[c - 'a' + 'A'] = true;
  return ok;
}();

/// strtoull(s, &end, 10) bounded to `s`: leading whitespace, an optional
/// sign (a '-' negates modulo 2^64), decimal digits, ULLONG_MAX on
/// overflow. *consumed is 0 when no digit was read.
std::uint64_t ParseStrtoull(std::string_view s, std::size_t* consumed) {
  std::size_t pos = 0;
  const auto is_space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  while (pos < s.size() && is_space(s[pos])) ++pos;
  bool negative = false;
  if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
    negative = s[pos] == '-';
    ++pos;
  }
  const std::size_t digits = pos;
  std::uint64_t value = 0;
  bool overflow = false;
  for (; pos < s.size() && s[pos] >= '0' && s[pos] <= '9'; ++pos) {
    const auto digit = static_cast<std::uint64_t>(s[pos] - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      overflow = true;
    } else {
      value = value * 10 + digit;
    }
  }
  if (pos == digits) {
    *consumed = 0;
    return 0;
  }
  *consumed = pos;
  if (overflow) return std::numeric_limits<std::uint64_t>::max();
  return negative ? 0 - value : value;
}

void AppendU64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, end);
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

bool FieldWalker::Next() {
  const char* const data = text_.data();
  const std::size_t n = text_.size();
  int depth = depth_;
  std::size_t i = pos_;
  while ((i = SkipPlain(data, i, n)) < n) {
    if (data[i] != '"') {
      depth += kDepthStep[static_cast<unsigned char>(data[i++])];
      continue;
    }
    // A string, skipped whole so nothing inside it can be mistaken for
    // structure. Outside nested values, one followed by ':' is a key.
    const std::size_t close = StringEnd(data, i + 1, n);
    if (close >= n) break;  // Unterminated.
    if (depth <= 1) {
      std::size_t j = close + 1;
      while (j < n && IsJsonWhitespace(data[j])) ++j;
      if (j < n && data[j] == ':') {
        ++j;
        while (j < n && IsJsonWhitespace(data[j])) ++j;
        key_ = text_.substr(i + 1, close - i - 1);
        value_pos_ = j;
        pos_ = close + 1;
        depth_ = depth;
        return true;
      }
    }
    i = close + 1;
  }
  pos_ = n;
  depth_ = depth;
  return false;
}

std::size_t FindValue(std::string_view text, std::string_view key) {
  for (FieldWalker walker(text); walker.Next();) {
    if (walker.key() == key) return walker.value_pos();
  }
  return std::string::npos;
}

namespace {

// Value decoders. A value view runs from the value's first byte to the
// end of the walked text; a decoder reads one value from its front,
// exactly as far as it would read in the whole line.

std::optional<std::uint64_t> ParseU64(std::string_view value) {
  return ParseInt<std::uint64_t>(value);
}

std::optional<std::int64_t> ParseI64(std::string_view value) {
  return ParseInt<std::int64_t>(value);
}

/// strtod's grammar (writers only produce %.17g / %.6f values, so this
/// round-trips exactly).
std::optional<double> ParseF64(std::string_view value) {
  // strtod needs a terminator; hand it the longest prefix it could
  // consume, so it stops exactly where it would in the whole line.
  std::size_t len = 0;
  while (len < value.size() &&
         kStrtodByte[static_cast<unsigned char>(value[len])]) {
    ++len;
  }
  char small[64];
  std::string large;
  const char* text = small;
  if (len < sizeof(small)) {
    std::memcpy(small, value.data(), len);
    small[len] = '\0';
  } else {
    large.assign(value.data(), len);
    text = large.c_str();
  }
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text) return std::nullopt;
  return v;
}

/// Decodes \" \\ \/ \b \f \n \r \t and \uXXXX (surrogate pairs combine;
/// the result is UTF-8). A value that is not a string, any other escape,
/// a lone surrogate or an unterminated string yields nullopt.
std::optional<std::string> ParseStr(std::string_view value) {
  if (value.empty() || value[0] != '"') return std::nullopt;
  // Fast path: no escapes before the closing quote.
  std::size_t pos = 1;
  while (pos < value.size() && value[pos] != '"' && value[pos] != '\\') {
    ++pos;
  }
  if (pos >= value.size()) return std::nullopt;  // Unterminated.
  std::string out(value.substr(1, pos - 1));
  for (; pos < value.size(); ++pos) {
    const char c = value[pos];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++pos >= value.size()) break;
    switch (value[pos]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        auto cp = Hex4(value, pos + 1);
        if (!cp) return std::nullopt;
        pos += 4;
        if (*cp >= 0xDC00 && *cp <= 0xDFFF) return std::nullopt;
        if (*cp >= 0xD800 && *cp <= 0xDBFF) {
          // A high surrogate must be followed by an escaped low one.
          if (value.substr(pos + 1, 2) != "\\u") return std::nullopt;
          const auto low = Hex4(value, pos + 3);
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

bool ParseTrue(std::string_view value) {
  return value.substr(0, 4) == "true";
}

std::optional<std::string_view> ValueOf(std::string_view text,
                                        std::string_view key) {
  const std::size_t pos = FindValue(text, key);
  if (pos == std::string::npos) return std::nullopt;
  return text.substr(pos);
}

}  // namespace

Fields::Fields(std::string_view text) : text_(text) {
  FieldWalker walker(text);
  while (walker.Next()) {
    const std::string_view key = walker.key();
    const Field field{static_cast<std::size_t>(key.data() - text.data()),
                      key.size(), walker.value_pos()};
    if (count_ == kInline) {
      spill_.push_back(field);
      continue;
    }
    std::size_t slot = Slot(key);
    while (index_[slot] != 0 && KeyOf(inline_[index_[slot] - 1]) != key) {
      slot = (slot + 1) % kSlots;
    }
    if (index_[slot] != 0) continue;  // A repeat: the first occurrence wins.
    inline_[count_++] = field;
    index_[slot] = static_cast<std::uint8_t>(count_);
  }
  closed_ = walker.depth() == 0;
}

std::size_t Fields::Slot(std::string_view key) {
  if (key.empty()) return 0;
  const auto first = static_cast<unsigned char>(key.front());
  const auto last = static_cast<unsigned char>(key.back());
  return (first * 31 + last * 7 + key.size()) % kSlots;
}

std::optional<std::string_view> Fields::Find(std::string_view key) const {
  for (std::size_t slot = Slot(key); index_[slot] != 0;
       slot = (slot + 1) % kSlots) {
    const Field& f = inline_[index_[slot] - 1];
    if (KeyOf(f) == key) return text_.substr(f.value_pos);
  }
  // Not among the inline keys: its first occurrence, if any, spilled.
  for (const Field& f : spill_) {
    if (KeyOf(f) == key) return text_.substr(f.value_pos);
  }
  return std::nullopt;
}

std::optional<std::uint64_t> Fields::U64(std::string_view key) const {
  const auto value = Find(key);
  return value ? ParseU64(*value) : std::nullopt;
}

std::optional<std::int64_t> Fields::I64(std::string_view key) const {
  const auto value = Find(key);
  return value ? ParseI64(*value) : std::nullopt;
}

std::optional<double> Fields::F64(std::string_view key) const {
  const auto value = Find(key);
  return value ? ParseF64(*value) : std::nullopt;
}

std::optional<std::string> Fields::Str(std::string_view key) const {
  const auto value = Find(key);
  return value ? ParseStr(*value) : std::nullopt;
}

bool Fields::True(std::string_view key) const {
  const auto value = Find(key);
  return value && ParseTrue(*value);
}

std::optional<std::uint64_t> FieldU64(std::string_view text,
                                      std::string_view key) {
  const auto value = ValueOf(text, key);
  return value ? ParseU64(*value) : std::nullopt;
}

std::optional<std::int64_t> FieldI64(std::string_view text,
                                     std::string_view key) {
  const auto value = ValueOf(text, key);
  return value ? ParseI64(*value) : std::nullopt;
}

std::optional<double> FieldF64(std::string_view text, std::string_view key) {
  const auto value = ValueOf(text, key);
  return value ? ParseF64(*value) : std::nullopt;
}

std::optional<std::string> FieldStr(std::string_view text,
                                    std::string_view key) {
  const auto value = ValueOf(text, key);
  return value ? ParseStr(*value) : std::nullopt;
}

bool ObjectArrayWalker::Next() {
  if (done_) return false;
  const std::size_t n = text_.size();
  if (pos_ == 0) {
    if (n == 0 || text_[0] != '[') {
      done_ = true;
      return false;
    }
    pos_ = 1;
  }
  while (pos_ < n) {
    if (text_[pos_] == ']') {
      done_ = ok_ = true;
      return false;
    }
    if (text_[pos_] == ',') {
      ++pos_;
      continue;
    }
    if (text_[pos_] != '{') break;
    // One element: balance braces outside strings.
    const std::size_t start = pos_;
    int depth = 0;
    while ((pos_ = SkipPlain(text_.data(), pos_, n)) < n) {
      const char c = text_[pos_];
      if (c == '"') {
        pos_ = StringEnd(text_.data(), pos_ + 1, n) + 1;
        continue;
      }
      ++pos_;
      if (c == '{') {
        ++depth;
      } else if (c == '}' && --depth == 0) {
        element_ = text_.substr(start, pos_ - start);
        return true;
      }
    }
    break;  // Unbalanced element.
  }
  done_ = true;  // Malformed element or no closing ']'.
  return false;
}

void AppendU64Pairs(
    std::string& out,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> pairs) {
  out += '[';
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    AppendU64(out, pairs[i].first);
    out += ',';
    AppendU64(out, pairs[i].second);
    out += ']';
  }
  out += ']';
}

bool U64PairWalker::Next() {
  if (done_) return false;
  const std::string_view p = text_;
  if (pos_ == 0) {
    if (p.empty() || p[0] != '[') {
      done_ = true;
      return false;
    }
    pos_ = 1;
  }
  while (pos_ < p.size()) {
    if (p[pos_] == ']') {
      done_ = ok_ = true;
      return false;
    }
    if (p[pos_] == ',' || p[pos_] == '[') {
      ++pos_;
      continue;
    }
    std::size_t used = 0;
    first_ = ParseStrtoull(p.substr(pos_), &used);
    pos_ += used;
    if (pos_ >= p.size() || p[pos_] != ',') break;
    second_ = ParseStrtoull(p.substr(pos_ + 1), &used);
    pos_ += 1 + used;
    if (pos_ >= p.size() || p[pos_] != ']') break;
    ++pos_;
    return true;
  }
  done_ = true;  // A malformed pair or no closing ']'.
  return false;
}

}  // namespace traceweaver::json
