// Minimal command-line flag parsing for the examples and bench harnesses.
// Supports "--name=value", "--name value" and boolean "--name". Note the
// space form is greedy: "--flag positional" binds "positional" to --flag;
// use "--flag=..." or put positional arguments before bare boolean flags.
//
// Every getter (and Has) records the name it was asked for, so a program
// that reads all its flags up front can reject the ones it never read —
// a mistyped flag otherwise silently runs with the defaults — and list
// the ones it does read for --help (ExitOnHelpOrUnreadFlags).

#ifndef SOFA_UTIL_FLAGS_H_
#define SOFA_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sofa {

/// Parses argv once; typed getters fall back to defaults for absent flags.
class Flags {
 public:
  Flags(int argc, char** argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& name) const;

  std::int64_t GetInt(const std::string& name, std::int64_t default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Splits a comma-separated flag into items; default empty.
  std::vector<std::string> GetList(const std::string& name) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags passed on the command line that no getter (nor Has) has read
  /// so far, sorted.
  std::vector<std::string> Unread() const;

  /// Every name read so far, sorted, with the default its getter gave
  /// ("" for Has and GetList).
  const std::map<std::string, std::string>& read() const { return read_; }

 private:
  void Record(const std::string& name, const std::string& default_text) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, std::string> read_;
};

/// For programs that read every flag before doing any work: call after
/// the last getter. With --help, prints the flags read (with their
/// defaults) to stdout and exits 0; with any flag passed but never read,
/// names them on stderr and exits 2. Otherwise returns.
void ExitOnHelpOrUnreadFlags(const Flags& flags, const char* program);

}  // namespace sofa

#endif  // SOFA_UTIL_FLAGS_H_
