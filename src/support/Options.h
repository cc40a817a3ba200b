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

  /// Returns the integer value of \p Key, or \p Default when absent. A
  /// present value must be a whole decimal integer in [\p Min, \p Max];
  /// anything else (--runs=abc, --programs=2x, --runs=-1, or a value that
  /// would truncate when narrowed) prints an error naming the option to
  /// stderr and exits with status 2 instead of silently misbehaving.
  int64_t getInt(const std::string &Key, int64_t Default, int64_t Min,
                 int64_t Max) const;

  /// getInt with \p Min = 1 (e.g. --jobs: 0, negative and junk values are
  /// refused).
  int64_t getPositiveInt(const std::string &Key, int64_t Default,
                         int64_t Max = INT64_MAX) const {
    return getInt(Key, Default, 1, Max);
  }

  /// A count option (--runs, --programs, --rounds, ...): a positive
  /// integer no larger than \ref MaxCount, so narrowing never truncates.
  unsigned getCount(const std::string &Key, unsigned Default) const {
    return static_cast<unsigned>(getPositiveInt(Key, Default, MaxCount));
  }

  /// --seed: any non-negative 64-bit integer.
  uint64_t getSeed(uint64_t Default) const {
    return static_cast<uint64_t>(
        getInt("seed", static_cast<int64_t>(Default), 0, INT64_MAX));
  }

  /// Upper bound on a count option: far beyond any useful run budget.
  static constexpr int64_t MaxCount = int64_t{1} << 30;

  /// Returns the value of \p Key as a decimal number in [\p Min, \p Max],
  /// or \p Default when absent; exits with status 2, like getInt, when
  /// the value does not parse whole or falls outside the range.
  double getDouble(const std::string &Key, double Default, double Min,
                   double Max) const;

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
/// a smoke-test run. A value that is not a number from 0.001 to 1000 (the
/// --scale range) is ignored with a one-time warning on stderr.
double experimentScale();

/// Scales \p Count by experimentScale(), with a floor of \p Min.
unsigned scaledCount(unsigned Count, unsigned Min = 1);

} // namespace gpuwmm

#endif // GPUWMM_SUPPORT_OPTIONS_H
