#include "util/flags.h"

#include <cstdlib>

namespace hashjoin {

void FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "true";
    }
  }
}

const std::string* FlagParser::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool FlagParser::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

int64_t FlagParser::GetInt(const std::string& name,
                           int64_t default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : std::strtoll(v->c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name,
                             double default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : std::strtod(v->c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name, bool default_value) const {
  const std::string* v = Find(name);
  if (v == nullptr) return default_value;
  return *v == "true" || *v == "1" || *v == "yes";
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& default_value) const {
  const std::string* v = Find(name);
  return v == nullptr ? default_value : *v;
}

std::vector<std::string> FlagParser::Unread() const {
  std::vector<std::string> unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0 && name.rfind("benchmark_", 0) != 0) {
      unread.push_back(name);
    }
  }
  return unread;
}

}  // namespace hashjoin
