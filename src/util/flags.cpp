#include "util/flags.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace splpg::util {

namespace {

const char* type_name(int type) {
  static constexpr const char* kNames[] = {"string", "int", "double", "bool"};
  return kNames[type];
}

/// `text` as a T when the whole of it parses as one, else nullopt
/// ("12abc", "", " 3" and out-of-range values all fail).
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace

Flags::Flags(std::string program_description) : description_(std::move(program_description)) {}

void Flags::define(const std::string& name, std::string default_value, std::string help) {
  entries_[name] = Entry{Type::kString, default_value, std::move(default_value), std::move(help)};
}

void Flags::define(const std::string& name, const char* default_value, std::string help) {
  define(name, std::string(default_value), std::move(help));
}

void Flags::define(const std::string& name, double default_value, std::string help) {
  std::ostringstream stream;
  stream << default_value;
  entries_[name] = Entry{Type::kDouble, stream.str(), stream.str(), std::move(help)};
}

void Flags::define(const std::string& name, bool default_value, std::string help) {
  const std::string text = default_value ? "true" : "false";
  entries_[name] = Entry{Type::kBool, text, text, std::move(help)};
}

void Flags::define(const std::string& name, std::int64_t default_value, std::int64_t min,
                   std::int64_t max, std::string help) {
  if (default_value < min || default_value > max) {
    throw std::logic_error("flag --" + name + " has default " + std::to_string(default_value) +
                           " outside its range [" + std::to_string(min) + ", " +
                           std::to_string(max) + "]");
  }
  const auto text = std::to_string(default_value);
  entries_[name] = Entry{Type::kInt, text, text, std::move(help), min, max};
}

bool Flags::parse(int argc, char** argv) {
  program_name_ = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: positional argument '%s' not supported\n", arg.c_str());
      print_usage();
      return false;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    } else {
      name = arg;
    }
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      print_usage();
      return false;
    }
    Entry& entry = it->second;
    const Type type = entry.type;
    if (!has_value) {
      if (type == Type::kBool) {
        value = "true";
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "error: flag --%s requires a value\n", name.c_str());
        return false;
      }
    }
    const auto number = parse_whole<std::int64_t>(value);
    if ((type == Type::kInt && !number) ||
        (type == Type::kDouble && !parse_whole<double>(value))) {
      std::fprintf(stderr, "error: flag --%s wants %s %s, got '%s'\n", name.c_str(),
                   type == Type::kInt ? "an" : "a", type_name(static_cast<int>(type)),
                   value.c_str());
      return false;
    }
    if (type == Type::kInt && (*number < entry.min || *number > entry.max)) {
      std::fprintf(stderr, "error: flag --%s must be in [%lld, %lld], got %lld\n", name.c_str(),
                   static_cast<long long>(entry.min), static_cast<long long>(entry.max),
                   static_cast<long long>(*number));
      return false;
    }
    entry.value = value;
  }
  return true;
}

const Flags::Entry& Flags::entry_or_die(const std::string& name, Type expected) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::logic_error("flag not defined: --" + name);
  }
  if (it->second.type != expected) {
    throw std::logic_error("flag --" + name + " is a " +
                           type_name(static_cast<int>(it->second.type)) + ", accessed as " +
                           type_name(static_cast<int>(expected)));
  }
  return it->second;
}

std::string Flags::get_string(const std::string& name) const {
  return entry_or_die(name, Type::kString).value;
}

// parse() admits only values that parse whole, and the defaults are printed
// from numbers, so the stored text of an int or double flag always parses.
std::int64_t Flags::get_int(const std::string& name) const {
  return parse_whole<std::int64_t>(entry_or_die(name, Type::kInt).value).value();
}

double Flags::get_double(const std::string& name) const {
  return parse_whole<double>(entry_or_die(name, Type::kDouble).value).value();
}

bool Flags::get_bool(const std::string& name) const {
  const auto& value = entry_or_die(name, Type::kBool).value;
  return value == "true" || value == "1" || value == "yes";
}

std::vector<std::int64_t> Flags::get_int_list(const std::string& name) const {
  const auto text = get_string(name);
  std::vector<std::int64_t> out;
  std::stringstream stream(text);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    const auto value = parse_whole<std::int64_t>(token);
    if (!value) {
      throw std::invalid_argument("flag --" + name + " wants comma-separated ints, got '" + text +
                                  "'");
    }
    out.push_back(*value);
  }
  return out;
}

void Flags::print_usage() const {
  std::fprintf(stderr, "%s\n\nflags:\n", description_.c_str());
  for (const auto& [name, entry] : entries_) {
    std::string type = type_name(static_cast<int>(entry.type));
    if (entry.type == Type::kInt) {
      type += " in [" + std::to_string(entry.min) + ", " + std::to_string(entry.max) + "]";
    }
    std::fprintf(stderr, "  --%-24s %s (%s, default: %s)\n", name.c_str(), entry.help.c_str(),
                 type.c_str(), entry.default_value.c_str());
  }
}

}  // namespace splpg::util
