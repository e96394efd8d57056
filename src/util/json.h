// The JSON string codec shared by every line-oriented writer and reader in
// the repo: span JSONL, checkpoints, store segments, provenance, Jaeger
// export, explain and the run report.
//
// Span names reach these writers from unmodified services, so they are
// outside input: the writer escapes every byte JSON forbids raw inside a
// string, and the reader accepts exactly JSON's escape set. Records are
// machine-written single-line objects, so the reader is a field scanner,
// not a DOM: FindValue() locates a key of the outermost object, skipping
// string bodies (honoring escapes) and nested objects/arrays, so neither a
// key embedded in a string value (a service literally named
// `x","parent":9`) nor a key of a nested span object ever matches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace traceweaver::json {

/// Appends `value` as a quoted JSON string: `"` and `\` are
/// backslash-escaped, \n \t \r \b \f use their short escapes and every
/// other byte below 0x20 becomes \u00xx. All other bytes (UTF-8 included)
/// are copied unchanged.
void AppendStr(std::string& out, std::string_view value);

/// Appends `"key":"<escaped value>"` (no leading comma).
void AppendStrField(std::string& out, const char* key,
                    std::string_view value);

/// Position of the value of the outermost object's `"key":` in `text`
/// (whitespace around the colon tolerated), or npos.
std::size_t FindValue(const std::string& text, const char* key);

std::optional<std::uint64_t> FieldU64(const std::string& text,
                                      const char* key);
std::optional<std::int64_t> FieldI64(const std::string& text,
                                     const char* key);
std::optional<double> FieldF64(const std::string& text, const char* key);
/// Decodes \" \\ \/ \b \f \n \r \t and \uXXXX (surrogate pairs combine;
/// the result is UTF-8). Any other escape, a lone surrogate or an
/// unterminated string yields nullopt.
std::optional<std::string> FieldStr(const std::string& text,
                                    const char* key);

}  // namespace traceweaver::json
