#include "util/cli.h"

#include <charconv>
#include <iostream>
#include <sstream>

#include "util/error.h"

namespace nwdec {

namespace {

const char* kind_name(int k) {
  switch (k) {
    case 0: return "string";
    case 1: return "int";
    case 2: return "double";
    default: return "flag";
  }
}

}  // namespace

cli_parser::cli_parser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void cli_parser::add_string(const std::string& name,
                            const std::string& default_value,
                            const std::string& help) {
  NWDEC_EXPECTS(!options_.count(name), "duplicate option: " + name);
  options_[name] = option{kind::string, help, default_value, std::nullopt};
  order_.push_back(name);
}

void cli_parser::add_int(const std::string& name, std::int64_t default_value,
                         const std::string& help) {
  NWDEC_EXPECTS(!options_.count(name), "duplicate option: " + name);
  options_[name] =
      option{kind::integer, help, std::to_string(default_value), std::nullopt};
  order_.push_back(name);
}

void cli_parser::add_double(const std::string& name, double default_value,
                            const std::string& help) {
  NWDEC_EXPECTS(!options_.count(name), "duplicate option: " + name);
  std::ostringstream os;
  os << default_value;
  options_[name] = option{kind::floating, help, os.str(), std::nullopt};
  order_.push_back(name);
}

void cli_parser::add_flag(const std::string& name, const std::string& help) {
  NWDEC_EXPECTS(!options_.count(name), "duplicate option: " + name);
  options_[name] = option{kind::flag, help, "false", std::nullopt};
  order_.push_back(name);
}

std::optional<int> cli_parser::parse_main(int argc,
                                          const char* const* argv) {
  try {
    if (!parse(argc, argv)) return 0;
  } catch (const invalid_argument_error& error) {
    std::cerr << program_ << ": " << error.what() << "\n";
    return 1;
  }
  return std::nullopt;
}

bool cli_parser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw invalid_argument_error("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw invalid_argument_error("unknown option: --" + name);
    }
    option& opt = it->second;
    if (!value) {
      if (opt.type == kind::flag) {
        value = "true";
      } else {
        if (i + 1 >= argc) {
          throw invalid_argument_error("option --" + name + " needs a value");
        }
        value = argv[++i];
      }
    }
    opt.value = std::move(value);
  }
  return true;
}

const cli_parser::option& cli_parser::find(const std::string& name,
                                           kind expected) const {
  const auto it = options_.find(name);
  NWDEC_EXPECTS(it != options_.end(), "option was never declared: " + name);
  NWDEC_EXPECTS(it->second.type == expected,
                "option --" + name + " is not of type " +
                    kind_name(static_cast<int>(expected)));
  return it->second;
}

std::string cli_parser::get_string(const std::string& name) const {
  const option& opt = find(name, kind::string);
  return opt.value.value_or(opt.default_value);
}

std::int64_t cli_parser::get_int(const std::string& name) const {
  const option& opt = find(name, kind::integer);
  const std::string& text = opt.value.value_or(opt.default_value);
  std::int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw invalid_argument_error("option --" + name +
                                 " expects an integer, got: " + text);
  }
  return out;
}

double cli_parser::get_double(const std::string& name) const {
  const option& opt = find(name, kind::floating);
  const std::string& text = opt.value.value_or(opt.default_value);
  try {
    std::size_t pos = 0;
    const double out = std::stod(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return out;
  } catch (const std::exception&) {
    throw invalid_argument_error("option --" + name +
                                 " expects a number, got: " + text);
  }
}

bool cli_parser::get_flag(const std::string& name) const {
  const option& opt = find(name, kind::flag);
  const std::string& text = opt.value.value_or(opt.default_value);
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  throw invalid_argument_error("option --" + name +
                               " expects true/false, got: " + text);
}

std::string cli_parser::help() const {
  std::ostringstream os;
  os << program_ << " - " << summary_ << "\n\noptions:\n";
  for (const std::string& name : order_) {
    const option& opt = options_.at(name);
    os << "  --" << name;
    if (opt.type != kind::flag) os << " <" << kind_name(static_cast<int>(opt.type)) << ">";
    os << "\n      " << opt.help << " (default: " << opt.default_value
       << ")\n";
  }
  return os.str();
}

}  // namespace nwdec
