// Small command-line option parser shared by the examples and bench
// binaries. Supports `--name value`, `--name=value`, and boolean flags
// (`--flag`), with typed accessors and an auto-generated --help text.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nwdec {

/// Declarative option parser: declare options, call parse(), read values.
class cli_parser {
 public:
  /// Creates a parser; `program` and `summary` appear in the help text.
  cli_parser(std::string program, std::string summary);

  /// Declares a string option with a default value.
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Declares an integer option with a default value.
  void add_int(const std::string& name, std::int64_t default_value,
               const std::string& help);
  /// Declares a floating-point option with a default value.
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  /// Declares a boolean flag (false unless present; accepts --name=true/false).
  void add_flag(const std::string& name, const std::string& help);

  /// Parses argv. Returns false when --help was requested (help text has
  /// been printed to stdout and the caller should exit 0). Throws
  /// invalid_argument_error on unknown options or malformed values.
  bool parse(int argc, const char* const* argv);

  /// parse() for a program's main: the status main should exit with right
  /// away -- 0 after --help, 1 after printing "<program>: <error>" to
  /// stderr for a command line parse() refuses -- or nullopt to run on.
  std::optional<int> parse_main(int argc, const char* const* argv);

  /// Typed accessors; the option must have been declared.
  std::string get_string(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Renders the help text.
  std::string help() const;

 private:
  enum class kind { string, integer, floating, flag };
  struct option {
    kind type;
    std::string help;
    std::string default_value;
    std::optional<std::string> value;
  };

  const option& find(const std::string& name, kind expected) const;

  std::string program_;
  std::string summary_;
  std::map<std::string, option> options_;
  std::vector<std::string> order_;
};

}  // namespace nwdec
