#include "src/util/options.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "src/util/check.hpp"

namespace ftb {

namespace {

// Strict scalar parses: std::stoll("5x") happily returns 5, so a typo'd
// "--sources=0,5x,10" would silently build from the wrong source set.
// Reject any value the conversion does not consume whole — the CLI's
// error-path contract (non-zero exit, diagnostic on stderr) needs the
// throw, not a best-effort prefix.
long long parse_int_strict(const std::string& key, const std::string& v) {
  std::size_t pos = 0;
  long long out = 0;
  try {
    out = std::stoll(v, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  FTB_CHECK_MSG(pos == v.size(),
                "malformed integer '" << v << "' for --" << key);
  return out;
}

double parse_double_strict(const std::string& key, const std::string& v) {
  std::size_t pos = 0;
  double out = 0;
  try {
    out = std::stod(v, &pos);
  } catch (const std::exception&) {
    pos = std::string::npos;
  }
  FTB_CHECK_MSG(pos == v.size(),
                "malformed number '" << v << "' for --" << key);
  return out;
}

}  // namespace

Options::Options(int argc, char** argv, bool env_fallback)
    : env_fallback_(env_fallback) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_.emplace_back(arg, "1");
    } else {
      kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
}

std::string Options::lookup(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  if (!env_fallback_) return "";
  std::string env = "FTBFS_";
  for (char c : key) env += static_cast<char>(std::toupper(c));
  if (const char* e = std::getenv(env.c_str())) return e;
  return "";
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& kv : kv_) out.push_back(kv.first);
  return out;
}

bool Options::has(const std::string& key) const { return !lookup(key).empty(); }

long long Options::get_int(const std::string& key, long long def) const {
  const std::string v = lookup(key);
  return v.empty() ? def : parse_int_strict(key, v);
}

double Options::get_double(const std::string& key, double def) const {
  const std::string v = lookup(key);
  return v.empty() ? def : parse_double_strict(key, v);
}

std::string Options::get_string(const std::string& key,
                                const std::string& def) const {
  const std::string v = lookup(key);
  return v.empty() ? def : v;
}

std::vector<double> Options::get_double_list(const std::string& key,
                                             std::vector<double> def) const {
  const std::string v = lookup(key);
  if (v.empty()) return def;
  std::vector<double> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_double_strict(key, item));
  }
  return out.empty() ? def : out;
}

std::vector<long long> Options::get_int_list(const std::string& key,
                                             std::vector<long long> def) const {
  const std::string v = lookup(key);
  if (v.empty()) return def;
  std::vector<long long> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_int_strict(key, item));
  }
  return out.empty() ? def : out;
}

}  // namespace ftb
