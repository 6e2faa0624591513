// Command-line helpers shared by the tools: a tiny flag scanner, whole-file
// read/write, and the logging flags every tool accepts.
#pragma once

#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/log.h"
#include "util/error.h"

namespace sramlp::cli {

/// Tiny flag scanner: --name value pairs plus boolean switches, consumed
/// as they are read.
class Args {
 public:
  Args(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool flag(const std::string& name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  std::optional<std::string> value(const std::string& name) {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) {
        std::string v = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        return v;
      }
    }
    return std::nullopt;
  }

  std::string require(const std::string& name) {
    auto v = value(name);
    if (!v) throw Error("missing required option " + name);
    return *v;
  }

  /// A plain decimal count no larger than @p max.  std::stoull accepts
  /// (and wraps) negative input and throws a bare "stoull" on overflow,
  /// so the digits are checked here and every failure names the option.
  std::size_t number(
      const std::string& name, std::size_t fallback,
      std::size_t max = std::numeric_limits<std::size_t>::max()) {
    auto v = value(name);
    if (!v) return fallback;
    std::size_t parsed = 0;
    bool fits = !v->empty() &&
                v->find_first_not_of("0123456789") == std::string::npos;
    for (std::size_t i = 0; fits && i < v->size(); ++i) {
      const auto digit = static_cast<std::size_t>((*v)[i] - '0');
      fits = parsed <= (max - digit) / 10;
      parsed = parsed * 10 + digit;
    }
    if (!fits)
      throw Error("option " + name + " needs a non-negative integer up to " +
                  std::to_string(max) + ", got '" + *v + "'");
    return parsed;
  }

  /// A count that ends up in an `unsigned` (thread counts).
  unsigned small_number(const std::string& name, unsigned fallback) {
    return static_cast<unsigned>(
        number(name, fallback, std::numeric_limits<unsigned>::max()));
  }

  double real(const std::string& name, double fallback) {
    auto v = value(name);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const double parsed = std::stod(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return parsed;
    } catch (const std::exception&) {
      throw Error("option " + name + " needs a number, got '" + *v + "'");
    }
  }

  void reject_leftovers() const {
    if (!args_.empty()) throw Error("unrecognized argument '" + args_[0] + "'");
  }

 private:
  std::vector<std::string> args_;
};

inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

inline void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.good()) throw Error("cannot write " + path);
  out << content;
  if (!out.good()) throw Error("short write on " + path);
}

/// Observability flags shared by every tool.  Consumed before anything
/// else so reject_leftovers() never sees them.  A --log-level is also
/// exported as SRAMLP_LOG, so worker subprocesses a command spawns inherit
/// the level.
inline void apply_logging_flags(Args& args) {
  const std::optional<std::string> level_text = args.value("--log-level");
  const std::optional<std::string> format_text = args.value("--log-format");
  const std::optional<std::string> file = args.value("--log-file");
  // --log-max-bytes N: rotate the log file to PATH.1 once it reaches N
  // bytes (obs::Logger keeps one rotated generation).  Only meaningful
  // with --log-file; the cap is ignored for the stderr sink.
  const std::size_t max_bytes = args.number("--log-max-bytes", 0);
  if (max_bytes > 0 && !file)
    throw Error("--log-max-bytes needs --log-file (stderr never rotates)");
  if (!level_text && !format_text && !file) return;
  const obs::LogLevel level = level_text
                                  ? obs::log_level_from_string(*level_text)
                                  : obs::Logger::global().level();
  obs::Logger::Format format = obs::Logger::Format::kHuman;
  if (format_text) {
    if (*format_text == "jsonl") {
      format = obs::Logger::Format::kJsonl;
    } else if (*format_text != "human") {
      throw Error("--log-format must be human or jsonl, got '" +
                  *format_text + "'");
    }
  }
  obs::Logger::global().configure(level, format,
                                  file ? *file : std::string(), max_bytes);
  if (level_text) ::setenv("SRAMLP_LOG", level_text->c_str(), 1);
}

}  // namespace sramlp::cli
