//===- Fig2Seq.cpp - The paper's Figure 2 sequential programs -------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `fig2-seq`: seeded SLAM-device-driver-shaped and TERMINATOR-shaped
/// programs under the `summary` and `ef-opt` formulations with two
/// evaluator threads, plus a witness query on each small instance.
/// Programs with many procedures give a wide dependency condensation (one
/// SCC per call-graph SCC), so the parallel scheduler, the thread pool and
/// the cross-manager importer do real work, and the front end parses tens
/// of KB during set-up.
///
/// Witness queries are timed apart from the plain queries: extraction
/// re-solves the entry-forward system to a full fixpoint, ten times the
/// rounds of the plain query, so only small instances get one: each small
/// reachable program, and one small unreachable program.
///
/// Checks: every verdict against the generator's ground truth
/// (`Workload::ExpectReachable`), every trace replayed by
/// `reach::verifyWitness`, no trace for an unreachable target, and the
/// small programs against the explicit summary search of `interp`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "api/Solver.h"
#include "bp/Parser.h"
#include "fpcalc/Parser.h"
#include "gen/Workloads.h"
#include "interp/SummaryOracle.h"
#include "reach/SeqReach.h"
#include "reach/Witness.h"

#include <memory>
#include <string>
#include <vector>

using namespace getafix;

namespace perfbench {

namespace {

struct Program {
  gen::Workload W;
  /// Small enough for the explicit summary search of `interp`.
  bool OracleChecked = false;
  /// Gets a witness query: the small reachable instances, and one small
  /// unreachable program, which must come back without a trace.
  bool Witness = false;
  uint64_t WitnessRounds = 0; ///< Of the last witness query.
  std::vector<double> WitnessMs;
  std::unique_ptr<bp::Program> Ast;
  bp::ProgramCfg Cfg;
  unsigned ProcId = 0, Pc = 0;
  std::string SystemText[2]; ///< Printed equation system per engine.
};

struct Engine {
  const char *Name;
  reach::SeqAlgorithm Alg;
};
const Engine Engines[] = {{"summary", reach::SeqAlgorithm::SummarySimple},
                          {"ef-opt", reach::SeqAlgorithm::EntryForwardOpt}};

/// The programs of one run. The TERMINATOR programs come from the run's
/// seed; their cost is set by counter width and phase count, not by the
/// seed. The device-driver programs use fixed generator seeds (their slot
/// numbers): their solve times vary by a third from one generator seed to
/// the next, more than any bound this benchmark could hold.
std::vector<Program> generate(uint64_t Seed) {
  std::vector<Program> Out;
  auto Driver = [&](unsigned Procs, unsigned Globals, unsigned Locals,
                    unsigned Stmts, bool Reachable, unsigned Slot) {
    gen::DriverParams P;
    P.NumProcs = Procs;
    P.NumGlobals = Globals;
    P.LocalsPerProc = Locals;
    P.StmtsPerProc = Stmts;
    P.Reachable = Reachable;
    P.Seed = Slot;
    Program Pr;
    Pr.W = gen::driverProgram(P);
    Pr.OracleChecked = Procs <= 20;
    Pr.Witness = Reachable && Procs <= 20;
    Out.push_back(std::move(Pr));
  };
  auto Terminator = [&](unsigned Bits, unsigned Dead, gen::DeadVarStyle St,
                        bool Reachable, unsigned Slot) {
    gen::TerminatorParams P;
    P.CounterBits = Bits;
    P.NumDeadVars = Dead;
    P.Style = St;
    P.Reachable = Reachable;
    P.Seed = Seed * 16 + Slot;
    Program Pr;
    Pr.W = gen::terminatorProgram(P);
    Pr.Witness = Bits <= 6;
    Out.push_back(std::move(Pr));
  };
  Span S("gen.programs");
  Driver(12, 4, 3, 8, true, 1);
  Driver(20, 6, 4, 12, false, 2);
  Driver(60, 6, 4, 12, true, 3);
  Driver(120, 6, 4, 12, false, 4);
  Terminator(8, 6, gen::DeadVarStyle::Schoose, false, 5);
  Terminator(6, 4, gen::DeadVarStyle::Iterative, true, 6);
  Terminator(6, 4, gen::DeadVarStyle::Schoose, false, 7);
  return Out;
}

} // namespace

void runFig2Seq(Run &R) {
  const unsigned Threads = R.Cfg.Threads ? R.Cfg.Threads : 2;
  std::vector<Program> Progs;
  R.setUp(9, [&] {
    Progs = generate(R.Cfg.Seed);
    for (Program &P : Progs) {
      DiagnosticEngine Diags;
      {
        Span S("bp.parse");
        P.Ast = bp::parseProgram(P.W.Source, Diags);
      }
      if (!P.Ast) {
        R.check(false, P.W.Name + " does not parse: " + Diags.str());
        continue;
      }
      {
        Span S("bp.cfg");
        P.Cfg = bp::buildCfg(*P.Ast);
      }
      R.check(P.Cfg.findLabelPc(P.W.TargetLabel, P.ProcId, P.Pc),
              P.W.Name + ": no target label");
      // What a client pays before its first query: the facade's compile,
      // and the equation system each engine would solve.
      {
        Span S("api.compile");
        Solver::Compilation C =
            Solver::compile(Query::fromSource(P.W.Source).target(P.W.TargetLabel));
        R.check(C.Query != nullptr, P.W.Name + ": compile failed: " + C.Error);
      }
      for (unsigned E = 0; E < 2; ++E) {
        SolverOptions Opts;
        Opts.Engine = Engines[E].Name;
        Span S("symbolic.system");
        P.SystemText[E] = Solver::formulaText(Query::fromCfg(P.Cfg), Opts);
      }
    }
  });
  if (!R.correct())
    return;
  // The printed systems must parse back through the calculus front end
  // (the `fpsolve` path). No query uses the result, so this runs once,
  // outside the timed set-up.
  double FpParseMs = 0.0;
  for (const Program &P : Progs)
    for (unsigned E = 0; E < 2; ++E) {
      DiagnosticEngine FpDiags;
      double T0 = nowS();
      std::unique_ptr<fpc::System> Sys;
      {
        Span S("fpcalc.parse");
        Sys = fpc::parseSystem(P.SystemText[E], FpDiags);
      }
      FpParseMs += (nowS() - T0) * 1e3;
      R.check(Sys != nullptr, P.W.Name + ": " + Engines[E].Name +
                                  " system does not parse back: " +
                                  FpDiags.str());
    }
  if (!R.correct())
    return;

  struct Outcome {
    bool Reachable[2] = {false, false};
    bool HasWitness = false;
    bool WitnessReachable = false;
    bool WitnessOk = true;
    std::string WitnessError;
  };
  std::vector<std::vector<Outcome>> Outcomes;
  std::vector<double> EngineMs[2], WitnessMs;
  uint64_t WitnessRounds = 0, WitnessSteps = 0;
  SolveCounters Counters;
  uint64_t Op = 0;
  R.timedRounds([&](unsigned) {
    Outcomes.emplace_back(Progs.size());
    double Plain = 0.0, EngMs[2] = {0.0, 0.0}, WitMs = 0.0;
    for (size_t I = 0; I < Progs.size(); ++I) {
      Program &P = Progs[I];
      Outcome &Out = Outcomes.back()[I];
      for (unsigned E = 0; E < 2; ++E) {
        reach::SeqOptions Opts;
        Opts.Alg = Engines[E].Alg;
        Opts.Threads = Threads;
        double T0 = nowS();
        reach::SeqResult Res;
        {
          Span S(std::string("reach.solve ") + Engines[E].Name, ++Op);
          Res = reach::checkReachability(P.Cfg, P.ProcId, P.Pc, Opts);
        }
        double Secs = nowS() - T0;
        Plain += Secs;
        EngMs[E] += Secs * 1e3;
        R.noteOp(Res.TargetFound && Res.Limit == support::ResourceLimit::None);
        Out.Reachable[E] = Res.Reachable;
        Counters.add(Res);
      }
      if (!P.Witness)
        continue;
      reach::SeqOptions Opts;
      Opts.Alg = reach::SeqAlgorithm::EntryForwardOpt;
      Opts.Threads = Threads;
      double T0 = nowS();
      reach::WitnessResult W;
      {
        Span S("reach.witness", ++Op);
        W = reach::checkReachabilityWithWitness(P.Cfg, P.ProcId, P.Pc, Opts);
      }
      P.WitnessMs.push_back((nowS() - T0) * 1e3);
      P.WitnessRounds = W.Iterations;
      WitMs += P.WitnessMs.back();
      R.noteOp(W.TargetFound && W.Limit == support::ResourceLimit::None);
      WitnessRounds += W.Iterations;
      WitnessSteps += W.Steps.size();
      Out.HasWitness = !W.Steps.empty();
      Out.WitnessReachable = W.Reachable;
      if (W.Reachable)
        Out.WitnessOk = reach::verifyWitness(P.Cfg, W.Steps, P.ProcId, P.Pc,
                                             &Out.WitnessError);
    }
    EngineMs[0].push_back(EngMs[0]);
    EngineMs[1].push_back(EngMs[1]);
    WitnessMs.push_back(WitMs);
    R.noteLatencyMs(Plain * 1e3 / double(2 * Progs.size()));
    return Plain;
  });

  for (const std::vector<Outcome> &Round : Outcomes)
    for (size_t I = 0; I < Progs.size(); ++I) {
      const Program &P = Progs[I];
      const Outcome &O = Round[I];
      bool Expect = P.W.ExpectReachable;
      for (unsigned E = 0; E < 2; ++E)
        R.check(O.Reachable[E] == Expect,
                P.W.Name + " " + Engines[E].Name + ": wrong verdict");
      if (!P.Witness)
        continue;
      R.check(O.WitnessReachable == Expect, P.W.Name + ": witness verdict");
      R.check(O.HasWitness == Expect,
              P.W.Name + (Expect ? ": no trace for a reachable target"
                                 : ": a trace for an unreachable target"));
      R.check(O.WitnessOk, P.W.Name + ": trace does not replay: " +
                               O.WitnessError);
    }
  // The explicit summary search on the small driver programs.
  for (const Program &P : Progs) {
    if (!P.OracleChecked)
      continue;
    interp::OracleResult O;
    {
      Span S("interp.summary");
      O = interp::summaryReachabilityOfLabel(P.Cfg, P.W.TargetLabel);
    }
    R.check(O.Reachable == P.W.ExpectReachable,
            P.W.Name + ": explicit summary search disagrees");
  }

  unsigned Rounds = unsigned(Outcomes.size());
  R.note("fig2-seq: %u rounds, %u evaluator threads, %zu programs", Rounds,
         Threads, Progs.size());
  for (const Program &P : Progs)
    R.note("  %-28s %6.1f KB %4zu procs %-3s", P.W.Name.c_str(),
           double(P.W.Source.size()) / 1024.0, P.Cfg.Procs.size(),
           P.W.ExpectReachable ? "YES" : "NO");
  for (const Program &P : Progs)
    if (P.Witness)
      R.note("  witness %-28s %6llu rounds %9.1f ms (median)",
             P.W.Name.c_str(), (unsigned long long)P.WitnessRounds,
             median(P.WitnessMs));
  R.note("  per round (median): summary %.1f ms, ef-opt %.1f ms, witness "
         "%.1f ms (%llu witness rounds)",
         median(EngineMs[0]), median(EngineMs[1]), median(WitnessMs),
         (unsigned long long)(WitnessRounds / (Rounds ? Rounds : 1)));

  if (!R.Cfg.Trace)
    return;
  double SourceKb = 0.0;
  for (const Program &P : Progs)
    SourceKb += double(P.W.Source.size()) / 1024.0;
  R.layer("bp.source_kb", SourceKb);
  R.layer("fpcalc.parse_ms", FpParseMs);
  R.layer("reach.solve_ms.summary", median(EngineMs[0]));
  R.layer("reach.solve_ms.ef-opt", median(EngineMs[1]));
  R.layer("reach.witness_ms", median(WitnessMs));
  R.layer("reach.witness_rounds", double(WitnessRounds) / Rounds);
  R.layer("reach.witness_steps", double(WitnessSteps) / Rounds);
  Counters.report(R.layers(), Rounds);
}

} // namespace perfbench
