//===- Bench.cpp - Shared run state of the getafix benchmark --------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

double processCpuS() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         double(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB on Linux.
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::min(std::max<size_t>(Rank, 1), V.size()) - 1];
}

void Run::setUp(unsigned Times, const std::function<void()> &SetUp) {
  for (unsigned I = 0; I < Times; ++I) {
    double T0 = nowS();
    SetUp();
    SetupS.push_back(nowS() - T0);
  }
}

void Run::timedRounds(const std::function<double(unsigned)> &Round,
                      const std::function<void()> &Prepare) {
  uint64_t Before;
  {
    std::lock_guard<std::mutex> G(Mu);
    Before = Attempted - Failed;
  }
  double Start = nowS();
  unsigned N = 0;
  do {
    if (Prepare)
      Prepare();
    double T0 = nowS(), Cpu0 = processCpuS();
    RoundSolveS.push_back(Round(N++));
    RoundCpuS.push_back(processCpuS() - Cpu0);
    TimedWallS += nowS() - T0;
  } while (nowS() - Start < Cfg.Seconds);
  std::lock_guard<std::mutex> G(Mu);
  TimedOps = Attempted - Failed - Before;
}

void Run::check(bool Ok, const std::string &What) {
  ++Checks;
  if (Ok)
    return;
  Correct = false;
  if (ReportedFailures++ < 20)
    std::printf("CHECK FAILED: %s\n", What.c_str());
}

void Run::note(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vprintf(Fmt, Args);
  va_end(Args);
  std::printf("\n");
}

void Run::noteSamples() {
  auto Line = [](const std::vector<double> &V) {
    std::string Out;
    for (double X : V) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), " %.4g", X);
      Out += Buf;
    }
    return Out;
  };
  note("set-up s:%s", Line(SetupS).c_str());
  note("round solve s:%s", Line(RoundSolveS).c_str());
}

std::map<std::string, double> Run::endToEnd() const {
  std::lock_guard<std::mutex> G(Mu);
  return {
      {"setup_s", median(SetupS)},
      {"solve_s", median(RoundSolveS)},
      {"cpu_s", median(RoundCpuS)},
      {"peak_rss_mb", peakRssMb()},
      {"req_per_s", TimedWallS > 0 ? double(TimedOps) / TimedWallS : 0.0},
      {"req_p50_ms", median(LatencyMs)},
  };
}

void SolveCounters::report(std::map<std::string, double> &Layer,
                           unsigned NumRounds) const {
  double PerRound = 1.0 / double(NumRounds ? NumRounds : 1);
  using getafix::BddOp;
  auto Rate = [](uint64_t Hits, uint64_t Lookups) {
    return Lookups ? double(Hits) / double(Lookups) : 0.0;
  };
  auto OpRate = [&](BddOp Op) {
    unsigned I = unsigned(Op);
    return Rate(Bdd.OpHits[I], Bdd.OpLookups[I]);
  };
  Layer["fpcalc.rounds"] = double(Rounds) * PerRound;
  Layer["fpcalc.delta_rounds"] = double(DeltaRounds) * PerRound;
  Layer["fpcalc.ms_per_round"] = Rounds ? Seconds * 1e3 / double(Rounds) : 0.0;
  Layer["fpcalc.condensation_width"] = CondensationWidth;
  Layer["fpcalc.sccs_parallel"] = double(SccsParallel) * PerRound;
  Layer["fpcalc.rounds_parallel"] = double(RoundsParallel) * PerRound;
  Layer["fpcalc.disjuncts_parallel"] = double(DisjunctsParallel) * PerRound;
  Layer["fpcalc.imported_nodes"] = double(ImportedNodes) * PerRound;
  Layer["fpcalc.cofactor_apps"] = double(Cofactor.Applications) * PerRound;
  Layer["fpcalc.cofactor_support_growth"] =
      Cofactor.SupportBefore
          ? double(Cofactor.SupportAfter) / double(Cofactor.SupportBefore)
          : 0.0;
  Layer["bdd.nodes_created"] = double(Bdd.NodesCreated) * PerRound;
  Layer["bdd.ns_per_node"] =
      Bdd.NodesCreated ? Seconds * 1e9 / double(Bdd.NodesCreated) : 0.0;
  Layer["bdd.cache_lookups"] = double(Bdd.CacheLookups) * PerRound;
  Layer["bdd.cache_hit_rate"] = Rate(Bdd.CacheHits, Bdd.CacheLookups);
  Layer["bdd.andexists_hit_rate"] = OpRate(BddOp::AndExists);
  Layer["bdd.ite_hit_rate"] = OpRate(BddOp::Ite);
  Layer["bdd.rename_hit_rate"] = OpRate(BddOp::Rename);
  Layer["bdd.gc_runs"] = double(Bdd.GcRuns) * PerRound;
  Layer["bdd.peak_nodes"] = double(PeakNodes);
}

} // namespace perfbench
