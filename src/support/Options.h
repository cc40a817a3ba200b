//===- support/Options.h - Tiny command-line option parser -----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny "--key=value" option parser plus the global experiment-scaling
/// knob (GPUWMM_SCALE) that lets users grow or shrink every experiment's
/// execution counts uniformly.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SUPPORT_OPTIONS_H
#define GPUWMM_SUPPORT_OPTIONS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gpuwmm {

/// Parses "--key=value" and bare "--flag" arguments.
class Options {
public:
  Options(int Argc, char **Argv);

  bool has(const std::string &Key) const { return Values.count(Key) != 0; }

  /// Every key given on the command line, sorted.
  std::vector<std::string> keys() const;

  /// Returns the integer value of \p Key, or \p Default when absent.
  int64_t getInt(const std::string &Key, int64_t Default) const;

  /// Returns the strictly positive integer value of \p Key, or \p Default
  /// when absent. When the option is present but zero, negative, not a
  /// number, or larger than \p Max (e.g. --jobs=0, --jobs=-3, --jobs=abc,
  /// or a value that would truncate when narrowed), prints a clear error
  /// to stderr and exits with status 2 instead of silently misbehaving.
  int64_t getPositiveInt(const std::string &Key, int64_t Default,
                         int64_t Max = INT64_MAX) const;

  /// Returns the double value of \p Key, or \p Default when absent.
  double getDouble(const std::string &Key, double Default) const;

  /// Returns the string value of \p Key, or \p Default when absent.
  std::string getString(const std::string &Key,
                        const std::string &Default) const;

private:
  std::map<std::string, std::string> Values;
};

/// Returns the global experiment scale factor.
///
/// Reads GPUWMM_SCALE from the environment (default 1.0). Experiment
/// binaries multiply their execution counts by this value, so
/// GPUWMM_SCALE=4 approaches the paper's counts and GPUWMM_SCALE=0.25 gives
/// a smoke-test run.
double experimentScale();

/// Scales \p Count by experimentScale(), with a floor of \p Min.
unsigned scaledCount(unsigned Count, unsigned Min = 1);

} // namespace gpuwmm

#endif // GPUWMM_SUPPORT_OPTIONS_H
