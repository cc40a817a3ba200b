//===- perfbench/src/Bench.cpp - Shared benchmark helpers -----------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           1e-6 * static_cast<double>(T.tv_usec);
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double perfbench::peakRssMiB() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  const size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2.0;
}

void Checks::expect(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
}

const char *perfbench::workloadName(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::Tab5:
    return "tab5";
  case WorkloadKind::Tab5Oracle:
    return "tab5-oracle";
  case WorkloadKind::Hunt:
    return "hunt";
  case WorkloadKind::Tune:
    return "tune";
  }
  return "?";
}

std::optional<WorkloadKind> perfbench::parseWorkload(std::string_view Name) {
  for (WorkloadKind K : AllWorkloads)
    if (Name == workloadName(K))
      return K;
  return std::nullopt;
}
