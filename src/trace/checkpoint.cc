#include "trace/checkpoint.h"

#include <array>
#include <cstdio>
#include <istream>
#include <ostream>

#include "util/json.h"

namespace traceweaver {
namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the byte-wise table of the
/// reflected polynomial, and kCrcTables[k][b] is the CRC contribution of
/// byte b followed by k zero bytes, so eight table lookups fold eight
/// input bytes at once.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}();

/// Little-endian 32-bit load (one mov on x86; byte order fixed so the
/// tables apply on any host).
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = c ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

ChecksummedWriter::ChecksummedWriter(std::ostream& out, std::string schema)
    : out_(out), schema_(std::move(schema)) {}

void ChecksummedWriter::WriteLine(const std::string& line) {
  // Incremental CRC: seed with the running value so Finish() guards the
  // exact byte stream written (including newlines).
  crc_ = Crc32(line.data(), line.size(), crc_);
  const char nl = '\n';
  crc_ = Crc32(&nl, 1, crc_);
  out_ << line << '\n';
  ++lines_;
}

void ChecksummedWriter::Finish() {
  if (finished_) return;
  finished_ = true;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"footer\":\"%s\",\"lines\":%zu,\"crc32\":%lu}",
                schema_.c_str(), lines_, static_cast<unsigned long>(crc_));
  out_ << buf << '\n';
  out_.flush();
}

std::optional<std::vector<std::string>> ReadChecksummedLines(
    std::istream& in, const std::string& schema, std::string* error) {
  std::vector<std::string> lines;
  std::uint32_t crc = 0;
  // Each line is read straight into its slot: one copy out of the stream.
  while (std::getline(in, lines.emplace_back())) {
    const std::string& line = lines.back();
    if (line.rfind("{\"footer\":", 0) == 0) {
      const json::Fields footer(line);
      const auto fschema = footer.Str("footer");
      const auto flines = footer.U64("lines");
      const auto fcrc = footer.U64("crc32");
      lines.pop_back();
      if (!fschema || !flines || !fcrc) {
        SetError(error, "malformed checkpoint footer");
        return std::nullopt;
      }
      if (*fschema != schema) {
        SetError(error, "checkpoint schema mismatch: found " + *fschema +
                            ", expected " + schema);
        return std::nullopt;
      }
      if (*flines != lines.size()) {
        SetError(error, "checkpoint line count mismatch (truncated file?)");
        return std::nullopt;
      }
      if (*fcrc != crc) {
        SetError(error, "checkpoint CRC mismatch (corrupted file)");
        return std::nullopt;
      }
      return lines;
    }
    crc = Crc32(line.data(), line.size(), crc);
    const char nl = '\n';
    crc = Crc32(&nl, 1, crc);
  }
  SetError(error, "checkpoint footer missing (truncated file?)");
  return std::nullopt;
}

}  // namespace traceweaver
