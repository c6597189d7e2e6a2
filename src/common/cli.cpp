#include "common/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "common/error.hpp"

namespace coloc {

namespace {

/// Levenshtein distance: insertions, deletions and substitutions.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  std::iota(row.begin(), row.end(), std::size_t{0});
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t above = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = above;
    }
  }
  return row[b.size()];
}

}  // namespace

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

void CliArgs::reject_unknown(
    const std::vector<std::string_view>& declared) const {
  for (const auto& flag : flags_) {
    const std::string& name = flag.first;
    if (std::find(declared.begin(), declared.end(), name) != declared.end())
      continue;
    std::string message = "unknown flag --" + name;
    if (!declared.empty()) {
      const auto nearest = std::min_element(
          declared.begin(), declared.end(),
          [&name](std::string_view a, std::string_view b) {
            return edit_distance(name, a) < edit_distance(name, b);
          });
      message += " (nearest declared flag: --" + std::string(*nearest) + ")";
    }
    throw invalid_argument_error(message);
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : std::strtoll(it->second.c_str(),
                                                      nullptr, 10);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback
                            : std::strtod(it->second.c_str(), nullptr);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace coloc
