#include "trace/checkpoint.h"

#include <array>
#include <cstdio>
#include <cstring>
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

/// Bytes from the read position to the end of `in` (0 when the stream
/// cannot seek). A section is at most that long.
std::size_t BytesLeft(std::istream& in) {
  std::streambuf* buf = in.rdbuf();
  const std::streampos here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return 0;
  const std::streampos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  buf->pubseekpos(here, std::ios::in);
  return end > here ? static_cast<std::size_t>(end - here) : 0;
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

std::optional<ChecksummedSection> ReadChecksummedLines(
    std::istream& in, const std::string& schema, std::string* error) {
  ChecksummedSection section;
  std::vector<char>& bytes = section.bytes;
  // Sized once from what the stream holds: growing by doubling would copy
  // the section several times and briefly hold twice its size.
  bytes.reserve(BytesLeft(in));
  std::size_t count = 0;
  // One reused line buffer; every payload line is appended to the
  // section buffer exactly as written, newline included, so one CRC call
  // over the buffer checks the whole section.
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("{\"footer\":", 0) != 0) {
      bytes.insert(bytes.end(), line.begin(), line.end());
      bytes.push_back('\n');
      ++count;
      continue;
    }
    const json::Fields footer(line);
    const auto fschema = footer.Str("footer");
    const auto flines = footer.U64("lines");
    const auto fcrc = footer.U64("crc32");
    if (!fschema || !flines || !fcrc) {
      SetError(error, "malformed checkpoint footer");
      return std::nullopt;
    }
    if (*fschema != schema) {
      SetError(error, "checkpoint schema mismatch: found " + *fschema +
                          ", expected " + schema);
      return std::nullopt;
    }
    if (*flines != count) {
      SetError(error, "checkpoint line count mismatch (truncated file?)");
      return std::nullopt;
    }
    if (*fcrc != Crc32(bytes.data(), bytes.size())) {
      SetError(error, "checkpoint CRC mismatch (corrupted file)");
      return std::nullopt;
    }
    section.lines.reserve(count);
    const char* const data = bytes.data();
    for (std::size_t begin = 0; begin < bytes.size();) {
      const auto* nl = static_cast<const char*>(
          std::memchr(data + begin, '\n', bytes.size() - begin));
      const auto end = static_cast<std::size_t>(nl - data);
      section.lines.emplace_back(data + begin, end - begin);
      begin = end + 1;
    }
    return section;
  }
  SetError(error, "checkpoint footer missing (truncated file?)");
  return std::nullopt;
}

}  // namespace traceweaver
