// Tiny command-line flag parser for the example and bench executables.
//
// Supports `--name=value`, `--name value`, and boolean `--flag` forms.
// A binary that declares its flag names through reject_unknown() refuses
// any other `--flag` instead of silently ignoring it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace coloc {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  const std::string& program() const { return program_; }
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Throws invalid_argument_error for the first `--flag` whose name is not
  /// in `declared`, naming it and the nearest declared name (fewest
  /// single-character edits; the earlier one on a tie).
  void reject_unknown(const std::vector<std::string_view>& declared) const;

  /// Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace coloc
