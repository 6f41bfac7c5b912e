//===- Trace.cpp - In-memory span recorder for the benchmark --------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<uint32_t> NextTid{0};

/// The calling thread's open spans, innermost last.
thread_local std::vector<SpanRecord> OpenStack;
thread_local uint32_t ThreadIndex = NextTid.fetch_add(1);

std::string layerOf(const std::string &Name) {
  return Name.substr(0, Name.find('.'));
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

uint64_t Tracer::begin(std::string Name, uint64_t Rid) {
  SpanRecord R;
  R.Name = std::move(Name);
  R.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  if (!OpenStack.empty()) {
    R.Parent = OpenStack.back().Id;
    if (Rid == 0)
      Rid = OpenStack.back().Rid;
  }
  R.Rid = Rid;
  R.Tid = ThreadIndex;
  R.StartNs = nowNs();
  OpenStack.push_back(std::move(R));
  return OpenStack.back().Id;
}

void Tracer::end() {
  SpanRecord R = std::move(OpenStack.back());
  OpenStack.pop_back();
  R.EndNs = nowNs();
  std::lock_guard<std::mutex> G(Mu);
  Done.push_back(std::move(R));
}

size_t Tracer::spanCount() const {
  std::lock_guard<std::mutex> G(Mu);
  return Done.size();
}

double Tracer::sumMs(const std::string &Name) const {
  std::lock_guard<std::mutex> G(Mu);
  int64_t Ns = 0;
  for (const SpanRecord &R : Done)
    if (R.Name.compare(0, Name.size(), Name) == 0 &&
        (R.Name.size() == Name.size() || R.Name[Name.size()] == ' '))
      Ns += R.EndNs - R.StartNs;
  return double(Ns) / 1e6;
}

std::map<std::string, double> Tracer::selfMsByLayer() const {
  std::lock_guard<std::mutex> G(Mu);
  std::unordered_map<uint64_t, int64_t> ChildNs;
  for (const SpanRecord &R : Done)
    if (R.Parent)
      ChildNs[R.Parent] += R.EndNs - R.StartNs;
  std::map<std::string, double> Self;
  for (const SpanRecord &R : Done) {
    auto It = ChildNs.find(R.Id);
    int64_t Ns = R.EndNs - R.StartNs - (It == ChildNs.end() ? 0 : It->second);
    Self[layerOf(R.Name)] += double(std::max<int64_t>(Ns, 0)) / 1e6;
  }
  return Self;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::lock_guard<std::mutex> G(Mu);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Origin = Done.empty() ? 0 : Done.front().StartNs;
  for (const SpanRecord &R : Done)
    Origin = std::min(Origin, R.StartNs);
  std::fprintf(F, "{\"traceEvents\":[\n");
  for (size_t I = 0; I < Done.size(); ++I) {
    const SpanRecord &R = Done[I];
    std::fprintf(F,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"rid\":%llu}}%s\n",
                 jsonEscape(R.Name).c_str(), jsonEscape(layerOf(R.Name)).c_str(),
                 R.Tid, double(R.StartNs - Origin) / 1e3,
                 double(R.EndNs - R.StartNs) / 1e3,
                 (unsigned long long)R.Id, (unsigned long long)R.Parent,
                 (unsigned long long)R.Rid, I + 1 < Done.size() ? "," : "");
  }
  std::fprintf(F, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(F) == 0;
}

double Tracer::calibrateSpanNs() {
  constexpr int N = 20000;
  Tracer Probe;
  int64_t T0 = nowNs();
  for (int I = 0; I < N; ++I) {
    Probe.begin("calibrate.span", 0);
    Probe.end();
  }
  return double(nowNs() - T0) / N;
}

} // namespace perfbench
