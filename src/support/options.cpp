#include "support/options.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace beepmis::support {

std::optional<std::uint64_t> parse_decimal_u64(std::string_view text) {
  if (text.empty() || text.size() > 20) return std::nullopt;
  std::uint64_t parsed = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;  // rejects "-3", "+3", "1e3", "7x"
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (parsed > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // beyond 2^64 - 1
    }
    parsed = parsed * 10 + digit;
  }
  return parsed;
}

std::optional<double> parse_finite_double(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string copy(text);  // strtod needs a terminator
  const char* begin = copy.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end != begin + copy.size() || !std::isfinite(parsed)) return std::nullopt;
  return parsed;
}

Options& Options::add(std::string name, std::string default_value, std::string help) {
  if (!flags_.contains(name)) order_.push_back(name);
  flags_[std::move(name)] = Flag{std::move(default_value), std::move(help), std::nullopt};
  return *this;
}

bool Options::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = body.find('='); eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      has_value = true;
    }
    if (auto it = flags_.find(body); it != flags_.end()) {
      if (!has_value) {
        // Boolean-style flag or space-separated value.
        if (i + 1 < argc && flags_.contains(body) &&
            (it->second.default_value == "true" || it->second.default_value == "false")) {
          value = "true";
        } else if (i + 1 < argc) {
          value = argv[++i];
        } else {
          value = "true";
        }
      }
      it->second.value = value;
      continue;
    }
    // --no-name for booleans.
    if (body.rfind("no-", 0) == 0) {
      if (auto it2 = flags_.find(body.substr(3)); it2 != flags_.end()) {
        it2->second.value = "false";
        continue;
      }
    }
    error_ = "unknown flag: --" + body;
    return false;
  }
  return true;
}

const Options::Flag& Options::flag_or_throw(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) throw std::invalid_argument("unregistered flag: " + name);
  return it->second;
}

std::string Options::get(const std::string& name) const {
  const Flag& f = flag_or_throw(name);
  return f.value.value_or(f.default_value);
}

long Options::get_int(const std::string& name) const {
  return static_cast<long>(get_u64(name, std::numeric_limits<long>::max()));
}

std::uint64_t Options::get_u64(const std::string& name, std::uint64_t max) const {
  const std::string value = get(name);
  const std::optional<std::uint64_t> parsed = parse_decimal_u64(value);
  if (!parsed || *parsed > max) {
    throw std::invalid_argument("--" + name + ": expected a non-negative integer no greater than " +
                                std::to_string(max) + ", got '" + value + "'");
  }
  return *parsed;
}

double Options::get_double(const std::string& name) const {
  const std::string value = get(name);
  const std::optional<double> parsed = parse_finite_double(value);
  if (!parsed || *parsed < 0.0) {
    throw std::invalid_argument("--" + name + ": expected a finite, non-negative number, got '" +
                                value + "'");
  }
  return *parsed;
}

bool Options::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string Options::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [flags]\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    out << "  --" << name << " (default: " << f.default_value << ")\n      " << f.help
        << '\n';
  }
  return out.str();
}

}  // namespace beepmis::support
