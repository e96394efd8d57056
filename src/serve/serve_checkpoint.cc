#include "serve/serve_checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

namespace traceweaver::serve {
namespace {

bool Fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

void WriteSections(std::ostream& out, const ServeState& state,
                   std::uint64_t source_offset) {
  state.weaver->SaveCheckpoint(out, {{"source_offset", source_offset}});
  if (state.committer != nullptr) state.committer->SaveState(out);
  if (state.sampler != nullptr) state.sampler->SaveState(out);
}

/// Loads the sections in file order. Each Load* leaves its own object
/// untouched on failure, but an earlier section may already have loaded.
bool ReadSections(std::istream& in, const ServeState& state,
                  std::uint64_t* source_offset, std::string* error) {
  std::string reason;
  std::map<std::string, std::uint64_t> extra;
  if (!state.weaver->LoadCheckpoint(in, &reason, &extra)) {
    return Fail(error, "weaver section: " + reason);
  }
  if (state.committer != nullptr && !state.committer->LoadState(in, &reason)) {
    return Fail(error, "committer section: " + reason);
  }
  if (state.sampler != nullptr && !state.sampler->LoadState(in, &reason)) {
    return Fail(error, "sampler section: " + reason);
  }
  if (in.peek() != std::char_traits<char>::eof()) {
    return Fail(error, "checkpoint has a section this run does not use");
  }
  const auto it = extra.find("source_offset");
  *source_offset = it == extra.end() ? 0 : it->second;
  return true;
}

}  // namespace

bool SaveServeCheckpoint(const std::string& dir, const ServeState& state,
                         std::uint64_t source_offset, std::string* error) {
  // Seal first: the offset saved below must never outrun durability.
  std::string reason;
  if (state.store != nullptr && !state.store->Seal(&reason)) {
    return Fail(error, "store seal failed: " + reason);
  }
  // Created like the store directory (TraceStore::Open).
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Fail(error, "cannot create " + dir);
  const std::string path = dir + "/checkpoint.jsonl";
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Fail(error, "cannot open " + tmp);
    WriteSections(out, state, source_offset);
    out.flush();
    if (!out) return Fail(error, "write to " + tmp + " failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Fail(error, "rename of " + tmp + " failed");
  }
  return true;
}

bool ResumeServeCheckpoint(const std::string& dir, const ServeState& state,
                           std::uint64_t* source_offset, std::string* error) {
  const std::string path = dir + "/checkpoint.jsonl";
  std::ifstream in(path, std::ios::binary);
  if (!in) return Fail(error, "no checkpoint at " + path);
  // A later section can fail after an earlier one loaded; the snapshot
  // of the state before the resume lets that case roll back whole.
  std::stringstream before;
  WriteSections(before, state, 0);
  if (ReadSections(in, state, source_offset, error)) return true;
  std::uint64_t unused = 0;
  ReadSections(before, state, &unused, nullptr);
  return false;
}

}  // namespace traceweaver::serve
