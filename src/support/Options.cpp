//===- support/Options.cpp - Tiny command-line option parser ---------------===//

#include "support/Options.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
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

int64_t Options::getInt(const std::string &Key, int64_t Default) const {
  const auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  return std::strtoll(It->second.c_str(), nullptr, 10);
}

int64_t Options::getPositiveInt(const std::string &Key, int64_t Default,
                                int64_t Max) const {
  const auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  const std::string &Text = It->second;
  errno = 0;
  char *End = nullptr;
  const long long Parsed = std::strtoll(Text.c_str(), &End, 10);
  if (Text.empty() || End != Text.c_str() + Text.size() || errno == ERANGE ||
      Parsed <= 0 || Parsed > Max) {
    std::fprintf(stderr,
                 "error: --%s must be a positive integer no larger than "
                 "%lld (got '%s')\n",
                 Key.c_str(), static_cast<long long>(Max), Text.c_str());
    std::exit(2);
  }
  return Parsed;
}

double Options::getDouble(const std::string &Key, double Default) const {
  const auto It = Values.find(Key);
  if (It == Values.end())
    return Default;
  return std::strtod(It->second.c_str(), nullptr);
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
  const double Scale = std::strtod(Env, nullptr);
  return Scale > 0.0 ? Scale : 1.0;
}

unsigned gpuwmm::scaledCount(unsigned Count, unsigned Min) {
  const double Scaled = static_cast<double>(Count) * experimentScale();
  const auto Result = static_cast<unsigned>(Scaled);
  return std::max(Result, Min);
}
