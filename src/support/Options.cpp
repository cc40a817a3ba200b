//===- support/Options.cpp - Tiny command-line option parser ---------------===//

#include "support/Options.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

using namespace gpuwmm;

Options::Options(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (Arg.substr(0, 2) != "--")
      continue;
    Arg.remove_prefix(2);
    const size_t Eq = Arg.find('=');
    if (Eq == std::string_view::npos)
      Values.insert_or_assign(std::string(Arg), std::string("1"));
    else
      Values.insert_or_assign(std::string(Arg.substr(0, Eq)),
                              std::string(Arg.substr(Eq + 1)));
  }
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> Keys;
  for (const auto &[Key, Value] : Values)
    Keys.push_back(Key);
  return Keys;
}

namespace {

/// The one exit for a malformed or out-of-range option value.
[[noreturn]] void rejectValue(const std::string &Key, const std::string &Text,
                              const std::string &Expected) {
  std::fprintf(stderr, "error: --%s must be %s (got '%s')\n", Key.c_str(),
               Expected.c_str(), Text.c_str());
  std::exit(2);
}

} // namespace

int64_t Options::getInt(const std::string &Key, int64_t Default, int64_t Min,
                        int64_t Max) const {
  const auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  const std::string &Text = It->second;
  int64_t Parsed = 0;
  const auto [End, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Parsed);
  if (Ec == std::errc() && End == Text.data() + Text.size() &&
      Parsed >= Min && Parsed <= Max)
    return Parsed;
  const std::string Bound = "no larger than " + std::to_string(Max);
  rejectValue(Key, Text,
              Min == 1   ? "a positive integer " + Bound
              : Min == 0 ? "a non-negative integer " + Bound
                         : "an integer from " + std::to_string(Min) +
                               " to " + std::to_string(Max));
}

double Options::getDouble(const std::string &Key, double Default,
                          double Min, double Max) const {
  const auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  const std::string &Text = It->second;
  double Parsed = 0;
  const auto [End, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Parsed);
  // The range test also refuses NaN: every comparison with it is false.
  if (Ec == std::errc() && End == Text.data() + Text.size() &&
      Parsed >= Min && Parsed <= Max)
    return Parsed;
  std::ostringstream Expected;
  Expected << "a number from " << Min << " to " << Max;
  rejectValue(Key, Text, Expected.str());
}

std::string Options::getString(const std::string &Key,
                               const std::string &Default) const {
  const auto It = Values.find(Key);
  return It == Values.end() ? Default : It->second;
}

double gpuwmm::experimentScale() {
  const char *Env = std::getenv("GPUWMM_SCALE");
  if (!Env)
    return 1.0;
  // The --scale rules (whole string, 0.001..1000), but warn and fall back
  // rather than exit, as GPUWMM_JOBS does: an environment variable should
  // not be fatal to library users. Warn once per process, not per count.
  const std::string_view Text = Env;
  double Scale = 0;
  const auto [End, Ec] =
      std::from_chars(Text.data(), Text.data() + Text.size(), Scale);
  if (Ec == std::errc() && End == Text.data() + Text.size() &&
      Scale >= 1e-3 && Scale <= 1e3)
    return Scale;
  static std::atomic<bool> Warned{false};
  if (!Warned.exchange(true))
    std::fprintf(stderr,
                 "warning: ignoring invalid GPUWMM_SCALE='%s' (must be a "
                 "number from 0.001 to 1000); using scale 1\n",
                 Env);
  return 1.0;
}

unsigned gpuwmm::scaledCount(unsigned Count, unsigned Min) {
  const double Scaled = static_cast<double>(Count) * experimentScale();
  const auto Result = static_cast<unsigned>(Scaled);
  return std::max(Result, Min);
}
