#ifndef HASHJOIN_UTIL_FLAGS_H_
#define HASHJOIN_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace hashjoin {

/// Minimal --name=value command-line parser for the bench binaries.
/// Parse() accepts any flag (google-benchmark consumes its own), so bench
/// binaries can mix both flag families. Every Has/Get* call marks its flag
/// read, and Unread() names the flags no code path asked about — a
/// misspelt or retired flag — which a --json run refuses
/// (BenchReporter::WriteAndReport). Not thread-safe.
class FlagParser {
 public:
  /// Parses argv; recognized "--name=value" and "--name value" pairs are
  /// recorded. "--name" alone records "true".
  void Parse(int argc, char** argv);

  bool Has(const std::string& name) const;

  int64_t GetInt(const std::string& name, int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;

  /// Parsed flags that no Has/Get* call has read, google-benchmark's
  /// own --benchmark_* flags excepted.
  std::vector<std::string> Unread() const;

 private:
  /// The value of `name` (nullptr if absent), marking the flag read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_FLAGS_H_
