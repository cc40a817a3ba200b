//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;

uint32_t SpanLog::open(std::string Name, uint32_t Parent, std::string Tag) {
  const double T = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Span S;
  S.Id = static_cast<uint32_t>(Spans.size() + 1);
  S.Parent = Parent;
  S.Name = std::move(Name);
  S.Tag = std::move(Tag);
  S.Start = S.End = T;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

double SpanLog::close(uint32_t Id) {
  const double T = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Id == 0 || Id > Spans.size())
    return 0.0;
  Span &S = Spans[Id - 1];
  S.End = T;
  return S.seconds();
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans;
}

bool SpanLog::write(const std::string &Path) const {
  std::ofstream OS(Path);
  OS << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [";
  const std::vector<Span> All = spans();
  for (size_t I = 0; I != All.size(); ++I) {
    const Span &S = All[I];
    char Times[64];
    std::snprintf(Times, sizeof(Times), "\"start\": %.9f, \"end\": %.9f",
                  S.Start, S.End);
    OS << (I ? "," : "") << "\n  {\"id\": " << S.Id
       << ", \"parent\": " << S.Parent << ", \"name\": \""
       << gpuwmm::jsonEscape(S.Name) << "\", \"tag\": \""
       << gpuwmm::jsonEscape(S.Tag) << "\", " << Times << "}";
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}
