// Small command-line flag parser shared by the examples and bench binaries.
// Supports --name=value, --name value, and boolean --name / --no-name.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace beepmis::support {

/// Full-match parses behind the getters below and the SweepSpec keys.
/// parse_decimal_u64: digits only (no sign, exponent, space or trailing
/// text), at most 20 of them, no greater than 2^64 - 1.
/// parse_finite_double: strtod over the whole text, finite ("1.5s", "nan"
/// and "inf" fail).  nullopt on anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal_u64(std::string_view text);
[[nodiscard]] std::optional<double> parse_finite_double(std::string_view text);

class Options {
 public:
  /// Registers a flag with its default value and help text.  Registration
  /// order is preserved in the usage message.
  Options& add(std::string name, std::string default_value, std::string help);

  /// Parses argv.  Returns false (and fills error()) on an unknown flag or
  /// malformed input.  `--help` sets help_requested().
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Strict getters: the whole value must parse, or they throw
  /// std::invalid_argument naming `--name` ("-5", "12abc", "1e3", "nan").
  /// get_int and get_u64 read a non-negative integer no greater than
  /// LONG_MAX or `max`; get_double a finite, non-negative number.
  [[nodiscard]] long get_int(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t max = UINT64_MAX) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] bool help_requested() const noexcept { return help_requested_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] std::string usage(const std::string& program) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };

  [[nodiscard]] const Flag& flag_or_throw(const std::string& name) const;

  std::vector<std::string> order_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  std::string error_;
};

}  // namespace beepmis::support
