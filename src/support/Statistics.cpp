//===- support/Statistics.cpp - Small statistics helpers ------------------===//

#include "support/Statistics.h"

#include "support/Check.h"

#include <algorithm>
#include <cmath>

using namespace gpuwmm;

double gpuwmm::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double gpuwmm::quantile(std::vector<double> Values, double Q) {
  GPUWMM_CHECK(Q >= 0.0 && Q <= 1.0, "quantile Q must lie in [0, 1]");
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = static_cast<size_t>(std::ceil(Pos));
  if (Lo == Hi)
    return Values[Lo];
  const double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] * (1.0 - Frac) + Values[Hi] * Frac;
}

double gpuwmm::median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

SampleSummary gpuwmm::summarize(const std::vector<double> &Values) {
  SampleSummary S;
  S.Count = Values.size();
  if (Values.empty())
    return S;
  S.Min = *std::min_element(Values.begin(), Values.end());
  S.Max = *std::max_element(Values.begin(), Values.end());
  S.Mean = mean(Values);
  S.Median = median(Values);
  return S;
}
