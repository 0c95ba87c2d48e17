// Command-line flags shared by aspmt_dse and aspmt_served.
//
// After the subcommand, an argument is `--key value`, `--key=value`, a bare
// `--key` (an empty value: a switch), `-o FILE` (same as `--out FILE`) or a
// positional.  Each subcommand lists the flags it reads (Command); any other
// flag is a usage error, so a misspelt switch never runs silently without
// its effect.  The numeric accessors read a flag's whole value with
// std::from_chars: an integer flag rejects fractions, out-of-range values
// (negatives for unsigned types) and trailing garbage, and a real flag
// rejects anything that is not one finite number.  Either throws
// BadFlagValue, which both tools report, naming the flag and the value,
// with exit code 2.  Included by relative path: perfbench compiles
// aspmt_dse.cpp on its own.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/text.hpp"

namespace aspmt::cli {

/// A flag value that does not parse as the flag's type: a usage error.
class BadFlagValue : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse all of `text` as one number of type T; false on anything else.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  if (!util::parse_number(text, out)) return false;
  if constexpr (std::floating_point<T>) return std::isfinite(out);
  return true;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> named;

  bool flag(const std::string& name) const { return named.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = named.find(name);
    return it == named.end() ? fallback : it->second;
  }
  /// A real-valued flag (seconds, intervals).
  double num(const std::string& name, double fallback) const {
    return value(name, fallback, "a finite number");
  }
  /// An integer flag of type T: counts, sizes and seeds are unsigned.
  template <std::integral T>
  T integer(const std::string& name, T fallback) const {
    return value(name, fallback,
                 std::is_signed_v<T> ? "an integer" : "a non-negative integer");
  }

 private:
  template <typename T>
  T value(const std::string& name, T fallback, const char* expected) const {
    const auto it = named.find(name);
    if (it == named.end()) return fallback;
    T out{};
    if (!parse_whole(it->second, out)) {
      throw BadFlagValue("--" + name + " '" + it->second + "': expected " +
                         expected);
    }
    return out;
  }
};

/// One subcommand: its name, every flag it reads (each listed once) and its
/// handler.
struct Command {
  std::string_view name;
  std::vector<std::string_view> flags;
  int (*run)(const Args&);
};

/// The first flag on the command line that `command` does not read, as
/// `--name`; "" when it reads them all.
inline std::string unread_flag(const Args& args, const Command& command) {
  for (const auto& [name, value] : args.named) {
    if (std::find(command.flags.begin(), command.flags.end(), name) ==
        command.flags.end()) {
      return "--" + name;
    }
  }
  return {};
}

inline Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const std::size_t eq = a.find('=');
      if (eq != std::string::npos) {
        args.named[a.substr(2, eq - 2)] = a.substr(eq + 1);
        continue;
      }
      const std::string key = a.substr(2);
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.named[key] = argv[++i];
      } else {
        args.named[key] = "";
      }
    } else if (a == "-o" && i + 1 < argc) {
      args.named["out"] = argv[++i];
    } else {
      args.positional.push_back(std::move(a));
    }
  }
  return args;
}

}  // namespace aspmt::cli
