#include "util/flags.h"

#include <cstdio>
#include <cstdlib>

namespace sofa {
namespace {

bool IsFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!IsFlag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !IsFlag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

void Flags::Record(const std::string& name,
                   const std::string& default_text) const {
  read_.emplace(name, default_text);
}

std::vector<std::string> Flags::Unread() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      unread.push_back(name);
    }
  }
  return unread;
}

bool Flags::Has(const std::string& name) const {
  Record(name, "");
  return values_.count(name) > 0;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t default_value) const {
  Record(name, std::to_string(default_value));
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  Record(name, std::to_string(default_value));
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  return std::strtod(it->second.c_str(), nullptr);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  Record(name, default_value);
  const auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  Record(name, default_value ? "true" : "false");
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return default_value;
  }
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Flags::GetList(const std::string& name) const {
  Record(name, "");
  std::vector<std::string> items;
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return items;
  }
  std::size_t start = 0;
  const std::string& s = it->second;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) {
        items.push_back(s.substr(start));
      }
      break;
    }
    if (comma > start) {
      items.push_back(s.substr(start, comma - start));
    }
    start = comma + 1;
  }
  return items;
}

void ExitOnHelpOrUnreadFlags(const Flags& flags, const char* program) {
  if (flags.GetBool("help", false)) {
    std::printf("usage: %s [--flag=value ...]\nflags:\n", program);
    for (const auto& [name, default_text] : flags.read()) {
      if (name == "help") {
        continue;
      }
      if (default_text.empty()) {
        std::printf("  --%s\n", name.c_str());
      } else {
        std::printf("  --%s (default %s)\n", name.c_str(),
                    default_text.c_str());
      }
    }
    std::exit(0);
  }
  const std::vector<std::string> unread = flags.Unread();
  if (unread.empty()) {
    return;
  }
  std::fprintf(stderr, "%s: unknown flag(s):", program);
  for (const std::string& name : unread) {
    std::fprintf(stderr, " --%s", name.c_str());
  }
  std::fprintf(stderr, " (--help lists the flags)\n");
  std::exit(2);
}

}  // namespace sofa
