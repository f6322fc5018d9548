// Tiny command-line flag parser for the bench/example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name`. Unknown
// flags are an error (catches typos in sweep scripts), and so is an int or
// double flag whose whole value does not parse as one, or an int outside the
// range its definition declares. Every flag is registered with a default and
// a help string; `--help` prints usage.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace splpg::util {

class Flags {
 public:
  /// Upper bounds for int flag ranges: a count narrowed to uint32 or to int,
  /// or any non-negative int64.
  static constexpr std::int64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::int64_t kInt = std::numeric_limits<int>::max();
  static constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();

  explicit Flags(std::string program_description);

  /// Registers a flag with its default value (also defines its type).
  void define(const std::string& name, std::string default_value, std::string help);
  void define(const std::string& name, const char* default_value, std::string help);
  void define(const std::string& name, double default_value, std::string help);
  void define(const std::string& name, bool default_value, std::string help);
  /// Registers an int flag whose value must lie in [min, max]. Declare the
  /// range of the field the value is narrowed to, so a negative count or 2^32
  /// never wraps. Throws std::logic_error when the default is outside it.
  void define(const std::string& name, std::int64_t default_value, std::int64_t min,
              std::int64_t max, std::string help);

  /// Parses argv. Returns false (after printing usage) on `--help` or on a
  /// parse error; callers should exit in that case. An int outside its range
  /// is reported as "error: flag --<name> must be in [min, max], got <value>".
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Parses a comma-separated int list flag, e.g. "--partitions=4,8,16".
  /// Throws std::invalid_argument naming the flag when an entry does not
  /// parse whole as an int.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(const std::string& name) const;

  void print_usage() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Entry {
    Type type;
    std::string value;
    std::string default_value;
    std::string help;
    std::int64_t min = 0;  // kInt only: the accepted range
    std::int64_t max = 0;
  };

  const Entry& entry_or_die(const std::string& name, Type expected) const;

  std::string description_;
  std::map<std::string, Entry> entries_;
  std::string program_name_;
};

}  // namespace splpg::util
