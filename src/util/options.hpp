// options.hpp — tiny "--key=value" command-line / environment option reader
// for the benchmark binaries and the CLI.
//
// Every bench runs with sensible defaults (so `for b in build/bench/*; do
// $b; done` completes in minutes) but can be scaled up:
//
//   ./bench_tradeoff --n=4096 --seed=7
//   FTBFS_N=4096 ./bench_tradeoff            # env var fallback
//
// Precedence: command line > environment (FTBFS_<KEY> upper-cased) > default.
// The CLI reads its command line only (env_fallback = false) and refuses
// any key or positional argument its subcommand does not read.
#pragma once

#include <string>
#include <vector>

namespace ftb {

/// Parses `--key=value` arguments, by default with environment-variable
/// fallback.
class Options {
 public:
  Options(int argc, char** argv, bool env_fallback = true);

  /// True if `--key` or `--key=...` was passed.
  bool has(const std::string& key) const;

  long long get_int(const std::string& key, long long def) const;
  double get_double(const std::string& key, double def) const;
  std::string get_string(const std::string& key, const std::string& def) const;

  /// Comma-separated list of doubles, e.g. --eps=0.1,0.25,0.5
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> def) const;
  /// Comma-separated list of ints, e.g. --n=256,512,1024
  std::vector<long long> get_int_list(const std::string& key,
                                      std::vector<long long> def) const;

  /// Every `--key` on the command line, in order (repeats included).
  std::vector<std::string> keys() const;
  /// Every argument that is not a `--key` form, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  // Returns empty if the key is absent from both argv and environment.
  std::string lookup(const std::string& key) const;

  std::vector<std::pair<std::string, std::string>> kv_;
  std::vector<std::string> positional_;
  bool env_fallback_;
};

}  // namespace ftb
