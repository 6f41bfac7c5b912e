//===- main.cpp - The getafix benchmark entry point -----------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE] [--threads N]
///
/// Runs one workload (fig3-conc, fig2-seq, serve-warm, serve-churn) and
/// prints human-readable lines followed by one JSON line:
///
///   {"correct": B, "attempted": N, "failed": N,
///    "metrics": {NAME: {"value": V, "unit": U}, ...}}
///
/// With `--trace 0` the metrics are the end-to-end figures; with
/// `--trace 1` spans are recorded and the metrics are the per-layer
/// figures, every name of the per-layer table below (0 where the
/// workload does not exercise that layer).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

using namespace perfbench;

namespace {

struct Metric {
  const char *Name;
  const char *Unit;
};

const Metric EndToEnd[] = {
    {"setup_s", "s"},         {"solve_s", "s"},       {"cpu_s", "s"},
    {"peak_rss_mb", "MB"},    {"req_per_s", "req/s"}, {"req_p50_ms", "ms"},
};

const char *const TracedLayers[] = {"gen",    "bp",         "symbolic",
                                    "fpcalc", "api",        "reach",
                                    "concurrent", "server", "interp"};

std::vector<std::pair<std::string, std::string>> perLayerMetrics() {
  std::vector<std::pair<std::string, std::string>> M = {
      {"bp.parse_ms", "ms"},
      {"bp.cfg_ms", "ms"},
      {"bp.source_kb", "KB"},
      {"api.compile_ms", "ms"},
      {"symbolic.system_ms", "ms"},
      {"fpcalc.parse_ms", "ms"},
      {"api.open_ms", "ms"},
      {"api.query_ms", "ms"},
      {"api.reuse_ratio", "ratio"},
      {"api.footprint_mb", "MB"},
      {"fpcalc.rounds", "count"},
      {"fpcalc.delta_rounds", "count"},
      {"fpcalc.ms_per_round", "ms"},
      {"fpcalc.condensation_width", "count"},
      {"fpcalc.sccs_parallel", "count"},
      {"fpcalc.rounds_parallel", "count"},
      {"fpcalc.disjuncts_parallel", "count"},
      {"fpcalc.imported_nodes", "count"},
      {"fpcalc.cofactor_apps", "count"},
      {"fpcalc.cofactor_support_growth", "ratio"},
      {"bdd.nodes_created", "count"},
      {"bdd.ns_per_node", "ns"},
      {"bdd.cache_lookups", "count"},
      {"bdd.cache_hit_rate", "ratio"},
      {"bdd.andexists_hit_rate", "ratio"},
      {"bdd.ite_hit_rate", "ratio"},
      {"bdd.rename_hit_rate", "ratio"},
      {"bdd.gc_runs", "count"},
      {"bdd.peak_nodes", "count"},
      {"reach.solve_ms.summary", "ms"},
      {"reach.solve_ms.ef-opt", "ms"},
      {"reach.witness_ms", "ms"},
      {"reach.witness_rounds", "count"},
      {"reach.witness_steps", "count"},
  };
  for (const std::string &Cell : fig3CellNames()) {
    M.push_back({"concurrent.solve_ms." + Cell, "ms"});
    M.push_back({"concurrent.reach_states." + Cell, "count"});
  }
  for (auto [Name, Unit] : {std::pair<const char *, const char *>{
                                "server.overhead_ms", "ms"},
                            {"server.protocol_us", "us"},
                            {"server.req_p90_ms", "ms"},
                            {"server.pool_hits", "count"},
                            {"server.pool_opens", "count"},
                            {"server.pool_evictions", "count"},
                            {"server.pool_cache_clears", "count"},
                            {"server.pool_footprint_mb", "MB"}})
    M.push_back({Name, Unit});
  for (const char *L : TracedLayers)
    M.push_back({std::string(L) + ".self_ms", "ms"});
  M.push_back({"trace.spans", "count"});
  M.push_back({"trace.overhead_pct", "%"});
  return M;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fig3-conc|fig2-seq|serve-warm|"
               "serve-churn\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out FILE] [--threads N]\n");
  return 2;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Cfg.Workload = V;
    } else if (Arg == "--seed") {
      Cfg.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      Cfg.Seconds = std::strtod(V.c_str(), &End);
    } else if (Arg == "--trace") {
      Cfg.Trace = V == "1";
      HaveTrace = V == "0" || V == "1";
      End = HaveTrace ? nullptr : &V[0];
    } else if (Arg == "--trace-out") {
      Cfg.TraceOut = V;
    } else if (Arg == "--threads") {
      Cfg.Threads = unsigned(std::strtoul(V.c_str(), &End, 10));
    } else {
      return usage();
    }
    if (End && *End)
      return usage();
  }
  if (!HaveTrace || !(Cfg.Seconds > 0) || Cfg.Seconds > 3600)
    return usage();

  void (*Workload)(Run &) = nullptr;
  if (Cfg.Workload == "fig3-conc")
    Workload = runFig3Conc;
  else if (Cfg.Workload == "fig2-seq")
    Workload = runFig2Seq;
  else if (Cfg.Workload == "serve-warm")
    Workload = runServeWarm;
  else if (Cfg.Workload == "serve-churn")
    Workload = runServeChurn;
  else
    return usage();

  if (Cfg.Trace)
    Tracer::get().enable();
  Run R(Cfg);
  double Wall0 = nowS();
  Workload(R);
  double RunWallS = nowS() - Wall0;

  std::string Metrics;
  auto Emit = [&](const std::string &Name, double Value, const char *Unit) {
    Metrics += (Metrics.empty() ? "" : ", ") + ("\"" + Name + "\": {\"value\": ") +
               number(Value) + ", \"unit\": \"" + Unit + "\"}";
  };
  R.noteSamples();
  if (!Cfg.Trace) {
    std::map<std::string, double> E = R.endToEnd();
    for (const Metric &M : EndToEnd) {
      R.note("%-14s %12.6g %s", M.Name, E[M.Name], M.Unit);
      Emit(M.Name, E[M.Name], M.Unit);
    }
  } else {
    // The same end-to-end figures, for comparison with untraced runs
    // (`steady.py --traced` reports the difference as tracing overhead).
    std::map<std::string, double> E = R.endToEnd();
    for (const Metric &M : EndToEnd)
      R.note("traced %-14s %12.6g %s", M.Name, E[M.Name], M.Unit);
    Tracer &T = Tracer::get();
    std::map<std::string, double> &L = R.layers();
    for (const auto &[Layer, Ms] : T.selfMsByLayer())
      L[Layer + ".self_ms"] = Ms;
    // Set-up layers, per set-up repetition, unless the workload measured
    // them per request itself.
    for (const char *Name :
         {"bp.parse", "bp.cfg", "api.compile", "symbolic.system"})
      if (!L.count(std::string(Name) + "_ms"))
        L[std::string(Name) + "_ms"] = T.sumMs(Name) / R.setUpCount();
    size_t Spans = T.spanCount();
    L["trace.spans"] = double(Spans);
    L["trace.overhead_pct"] =
        100.0 * double(Spans) * Tracer::calibrateSpanNs() / (RunWallS * 1e9);
    if (!Cfg.TraceOut.empty() && !T.writeChromeJson(Cfg.TraceOut))
      R.check(false, "cannot write trace file " + Cfg.TraceOut);
    for (const auto &[Name, Unit] : perLayerMetrics()) {
      double V = L.count(Name) ? L[Name] : 0.0;
      R.note("%-34s %14.6g %s", Name.c_str(), V, Unit.c_str());
      Emit(Name, V, Unit.c_str());
    }
  }
  R.note("attempted %llu, failed %llu, checks %llu, correct %s",
         (unsigned long long)R.attempted(), (unsigned long long)R.failed(),
         (unsigned long long)R.checksRun(), R.correct() ? "yes" : "NO");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.correct() ? "true" : "false",
              (unsigned long long)R.attempted(),
              (unsigned long long)R.failed(), Metrics.c_str());
  return 0;
}
