// Helpers shared by the line-oriented text formats: checkpoints, shard
// results, merged-proof containers and service journals.  The proof checker
// (cert/checker.cpp) keeps its own parsing on purpose and does not use these.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace aspmt::util {

/// Parse all of `text` as one number of type T with std::from_chars (no
/// whitespace, no leading '+'); false on anything else.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Split the first line, without its '\n', off `rest`.
inline std::string_view take_line(std::string_view& rest) {
  const std::size_t nl = rest.find('\n');
  const std::string_view line = rest.substr(0, nl);
  rest = nl == std::string_view::npos ? std::string_view{} : rest.substr(nl + 1);
  return line;
}

/// Split the first space-separated token off `rest`, skipping leading spaces.
inline std::string_view take_token(std::string_view& rest) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  const std::size_t sp = rest.find(' ');
  const std::string_view tok = rest.substr(0, sp);
  rest = sp == std::string_view::npos ? std::string_view{} : rest.substr(sp + 1);
  return tok;
}

/// 64-bit FNV-1a hash of `bytes`: the checksum of checkpoints and journals.
inline std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace aspmt::util
