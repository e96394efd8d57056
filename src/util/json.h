// The JSON string codec shared by every line-oriented writer and reader in
// the repo: span JSONL, checkpoints, store segments, provenance, Jaeger
// export, explain and the run report.
//
// Span names reach these writers from unmodified services, so they are
// outside input: the writer escapes every byte JSON forbids raw inside a
// string, and the reader accepts exactly JSON's escape set. Records are
// machine-written single-line objects, so the reader is a field walker,
// not a DOM: FieldWalker makes one forward pass over a line and yields
// the outermost object's keys, skipping string bodies (honoring escapes)
// and nested objects/arrays, so neither a key embedded in a string value
// (a service literally named `x","parent":9`) nor a key of a nested span
// object ever matches. Values are decoded only when a decoder asks, and
// the first occurrence of a key wins.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace traceweaver::json {

/// Appends `value` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, \n \t \r \b \f use their short escapes and every
/// other byte below 0x20 becomes \u00xx. All other bytes (UTF-8 included)
/// are copied unchanged.
void AppendStr(std::string& out, std::string_view value);

/// Appends `"key":"<escaped value>"` (no leading comma).
void AppendStrField(std::string& out, const char* key,
                    std::string_view value);

/// One forward walk over the fields of the outermost object of `text`:
/// every string outside nested objects/arrays that is followed by `:`
/// (whitespace around the colon tolerated) is a key. This is the repo's
/// only field scanner; FindValue, Fields and the Field* helpers are thin
/// wrappers over it. An unterminated string ends the walk.
class FieldWalker {
 public:
  explicit FieldWalker(std::string_view text) : text_(text) {}

  /// Advances to the next key; false once the text is exhausted.
  bool Next();

  /// The key's raw bytes between its quotes (escapes are not decoded, so
  /// a key matches only its literal spelling).
  std::string_view key() const { return key_; }

  /// Offset of the value's first byte in the walked text.
  std::size_t value_pos() const { return value_pos_; }

  /// Bracket depth reached so far (0 once a whole object was walked).
  int depth() const { return depth_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string_view key_;
  std::size_t value_pos_ = 0;
};

/// Position of the value of the first outermost-object `"key":` in
/// `text`, or npos.
std::size_t FindValue(std::string_view text, std::string_view key);

/// Every field of one line, found in a single FieldWalker pass; lookups
/// then touch only the field table, never the line again. Views point
/// into the walked text, which must outlive this object.
class Fields {
 public:
  explicit Fields(std::string_view text);

  /// The value view of `key`'s first occurrence, or nullopt.
  std::optional<std::string_view> Find(std::string_view key) const;

  std::optional<std::uint64_t> U64(std::string_view key) const;
  std::optional<std::int64_t> I64(std::string_view key) const;
  std::optional<double> F64(std::string_view key) const;
  std::optional<std::string> Str(std::string_view key) const;
  bool True(std::string_view key) const;

  /// True when the walk ended with every bracket it opened closed, i.e.
  /// the line is one whole object (a cut line leaves one open).
  bool closed() const { return closed_; }

 private:
  /// Offsets into text_; trivial, so the inline table costs no set-up.
  struct Field {
    std::size_t key_pos;
    std::size_t key_len;
    std::size_t value_pos;
  };
  /// Machine-written lines carry at most ~20 fields; the rest spill.
  static constexpr std::size_t kInline = 24;
  static constexpr std::size_t kSlots = 64;

  static std::size_t Slot(std::string_view key);
  std::string_view KeyOf(const Field& field) const {
    return text_.substr(field.key_pos, field.key_len);
  }

  std::string_view text_;
  std::array<Field, kInline> inline_;
  std::size_t count_ = 0;
  /// Open-addressed hash of the inline fields' keys: field index + 1, or
  /// 0 for an empty slot. Only a key's first occurrence is indexed.
  std::array<std::uint8_t, kSlots> index_{};
  std::vector<Field> spill_;
  bool closed_ = false;
};

/// One-shot lookups: a walk that stops at the first `key`, then a decode.
std::optional<std::uint64_t> FieldU64(std::string_view text,
                                      std::string_view key);
std::optional<std::int64_t> FieldI64(std::string_view text,
                                     std::string_view key);
std::optional<double> FieldF64(std::string_view text, std::string_view key);
std::optional<std::string> FieldStr(std::string_view text,
                                    std::string_view key);

/// Walks a JSON array of objects, `[{...},{...}]`, handing out each
/// element verbatim as a view (no copies). Framing is strict: the value
/// must start with '[', elements must be objects, commas between them are
/// skipped and anything else (whitespace included) is malformed.
class ObjectArrayWalker {
 public:
  explicit ObjectArrayWalker(std::string_view value) : text_(value) {}

  /// Advances to the next element; false at the closing ']' (ok() true)
  /// or on malformed framing (ok() false).
  bool Next();

  std::string_view element() const { return element_; }
  /// True once the closing ']' was reached.
  bool ok() const { return ok_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool done_ = false;
  bool ok_ = false;
  std::string_view element_;
};

/// Appends `[[a,b],[c,d],...]`: each pair as two unsigned decimals.
void AppendU64Pairs(
    std::string& out,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> pairs);

/// Walks a JSON array of unsigned pairs, `[[a,b],[c,d],...]`, the one
/// reader of pair arrays (trace-record parents, checkpoint commit runs).
/// Its rules are lenient where the writers never go: commas and '['
/// between pairs are skipped, and each number is read as strtoull would
/// (leading whitespace, an optional sign, ULLONG_MAX on overflow, 0 when
/// no digit is present). Each pair must then be `a,b]` exactly, and the
/// array must start with '[' and end with ']'.
class U64PairWalker {
 public:
  explicit U64PairWalker(std::string_view value) : text_(value) {}

  /// Advances to the next pair; false at the closing ']' (ok() true) or
  /// on malformed framing (ok() false).
  bool Next();

  std::uint64_t first() const { return first_; }
  std::uint64_t second() const { return second_; }
  /// True once the closing ']' was reached.
  bool ok() const { return ok_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  bool done_ = false;
  bool ok_ = false;
  std::uint64_t first_ = 0;
  std::uint64_t second_ = 0;
};

}  // namespace traceweaver::json
