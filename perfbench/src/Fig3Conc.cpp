//===- Fig3Conc.cpp - The paper's Figure 3 under bounded switching --------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `fig3-conc`: the Bluetooth driver model under the `conc` engine with
/// one evaluator thread. A round computes the full reachable set at
/// growing context bounds k for the small adder/stopper configurations,
/// then runs the two-adder/two-stopper model at k=4 to its verdict. The
/// time goes to the BDD kernel and to evaluator rounds; the front end runs
/// only in set-up, and nothing runs on a thread pool.
///
/// Checks: every verdict against the paper's table ((1,1) never; (1,2)
/// from k=3; (2,1) from k=4; (2,2) from k=3), reach-set sizes that never
/// shrink as k grows, and the small configurations against the explicit
/// bounded search of `interp::concurrentReachability`, whose NO counts
/// only when the search was exhaustive.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "bp/Parser.h"
#include "concurrent/ConcReach.h"
#include "gen/Workloads.h"
#include "interp/ConcurrentOracle.h"

#include <memory>
#include <string>
#include <vector>

using namespace getafix;

namespace perfbench {

namespace {

struct Model {
  unsigned Adders, Stoppers;
  unsigned FirstFailingK; ///< Figure 3; 0 = never fails.
  std::string Name;
  std::string Source;
  std::unique_ptr<bp::ConcurrentProgram> Prog;
  std::vector<bp::ProgramCfg> Cfgs;
};

struct Cell {
  unsigned ModelIdx;
  unsigned K;
  bool FullReachSet; ///< Figure 3 row (no early stop) vs a verdict query.
};

// The round's operations.
const Cell Cells[] = {
    {0, 1, true}, {0, 2, true}, {0, 3, true}, {0, 4, true},
    {1, 1, true}, {1, 2, true}, {1, 3, true},
    {2, 1, true}, {2, 2, true}, {2, 3, true},
    {3, 4, false},
};
constexpr unsigned NumCells = sizeof(Cells) / sizeof(Cells[0]);

const unsigned Configs[][3] = {
    // adders, stoppers, first failing k in Figure 3 (0 = never)
    {1, 1, 0},
    {1, 2, 3},
    {2, 1, 4},
    {2, 2, 3},
};

std::string configName(unsigned Idx) {
  return std::to_string(Configs[Idx][0]) + "a" +
         std::to_string(Configs[Idx][1]) + "s";
}

std::string cellName(const Cell &C) {
  return configName(C.ModelIdx) + "-k" + std::to_string(C.K);
}

} // namespace

std::vector<std::string> fig3CellNames() {
  std::vector<std::string> Names;
  for (const Cell &C : Cells)
    Names.push_back(cellName(C));
  return Names;
}

void runFig3Conc(Run &R) {
  // The model has no random structure: the seed has nothing to vary, and
  // the Figure 3 table is the reference.
  // Set-up generates, parses and lowers the four models. It takes about
  // half a millisecond, so it is repeated often enough for a steady median.
  std::vector<Model> Models;
  R.setUp(101, [&] {
    Models.clear();
    for (unsigned I = 0; I < 4; ++I) {
      Model M;
      M.Adders = Configs[I][0];
      M.Stoppers = Configs[I][1];
      M.FirstFailingK = Configs[I][2];
      M.Name = configName(I);
      {
        Span S("gen.bluetooth");
        M.Source = gen::bluetoothModel(M.Adders, M.Stoppers);
      }
      DiagnosticEngine Diags;
      {
        Span S("bp.parse");
        M.Prog = bp::parseConcurrentProgram(M.Source, Diags);
      }
      if (!M.Prog) {
        R.check(false, M.Name + " does not parse: " + Diags.str());
        return;
      }
      {
        Span S("bp.cfg");
        M.Cfgs = conc::buildThreadCfgs(*M.Prog);
      }
      Models.push_back(std::move(M));
    }
  });
  if (Models.size() != 4)
    return;
  // One small solve before timing, so lazy initialisation is not paid by
  // the first timed round. It is not set-up work a user pays per model.
  {
    conc::ConcOptions Opts;
    Opts.MaxContextSwitches = 2;
    Opts.EarlyStop = false;
    Span S("concurrent.warmup");
    conc::ConcResult Res = conc::checkConcReachabilityOfLabel(
        *Models[0].Prog, Models[0].Cfgs, "ERR", Opts);
    R.check(!Res.Reachable, "1a1s-k2 warm-up: verdict YES against Figure 3");
  }

  // Results of every round, checked after the timed phase.
  std::vector<std::vector<conc::ConcResult>> Results;
  std::vector<std::vector<double>> CellMs(NumCells);
  SolveCounters Counters;
  R.timedRounds([&](unsigned Round) {
    Results.emplace_back();
    double Total = 0.0;
    for (unsigned I = 0; I < NumCells; ++I) {
      const Cell &C = Cells[I];
      const Model &M = Models[C.ModelIdx];
      conc::ConcOptions Opts;
      Opts.MaxContextSwitches = C.K;
      Opts.EarlyStop = !C.FullReachSet;
      double T0 = nowS();
      conc::ConcResult Res;
      {
        Span S("concurrent.solve " + cellName(C),
               uint64_t(Round) * NumCells + I + 1);
        Res = conc::checkConcReachabilityOfLabel(*M.Prog, M.Cfgs, "ERR",
                                                 Opts);
      }
      double Secs = nowS() - T0;
      Total += Secs;
      R.noteOp(Res.TargetFound && Res.Limit == support::ResourceLimit::None);
      CellMs[I].push_back(Secs * 1e3);
      Counters.add(Res);
      Results.back().push_back(std::move(Res));
    }
    R.noteLatencyMs(Total * 1e3 / NumCells);
    return Total;
  });

  // Checks. The per-round results must agree with the table; rows must
  // never shrink in k.
  for (size_t Round = 0; Round < Results.size(); ++Round) {
    const std::vector<conc::ConcResult> &Row = Results[Round];
    for (unsigned I = 0; I < NumCells; ++I) {
      const Cell &C = Cells[I];
      const Model &M = Models[C.ModelIdx];
      bool Expect = M.FirstFailingK != 0 && C.K >= M.FirstFailingK;
      R.check(Row[I].Reachable == Expect,
              cellName(C) + ": verdict " +
                  (Row[I].Reachable ? "YES" : "NO") + " against Figure 3");
      if (I > 0 && C.FullReachSet && Cells[I - 1].ModelIdx == C.ModelIdx)
        R.check(Row[I].ReachStates >= Row[I - 1].ReachStates,
                cellName(C) + ": reach set shrank as k grew");
      if (Round > 0)
        R.check(Row[I].ReachStates == Results[0][I].ReachStates &&
                    Row[I].Reachable == Results[0][I].Reachable,
                cellName(C) + ": differs between rounds");
    }
  }
  // The explicit search, once per run: the small configurations only (the
  // 2a2s state space is beyond its bounds).
  unsigned Confirmed = 0, Unconfirmed = 0;
  for (unsigned I = 0; I < NumCells; ++I) {
    const Cell &C = Cells[I];
    const Model &M = Models[C.ModelIdx];
    if (M.Adders + M.Stoppers > 3)
      continue;
    interp::ConcurrentQuery Q;
    Q.MaxContextSwitches = C.K;
    bool Found = false;
    for (unsigned T = 0; T < M.Cfgs.size() && !Found; ++T)
      if (M.Cfgs[T].findLabelPc("ERR", Q.ProcId, Q.Pc)) {
        Q.Thread = T;
        Found = true;
      }
    R.check(Found, M.Name + ": no ERR label");
    interp::ConcurrentOracleResult O;
    {
      Span S("interp.oracle " + cellName(C));
      O = interp::concurrentReachability(*M.Prog, M.Cfgs, Q);
    }
    if (O.Reachable || O.Exhaustive) {
      ++Confirmed;
      R.check(O.Reachable == Results[0][I].Reachable,
              cellName(C) + ": explicit search disagrees");
    } else {
      ++Unconfirmed;
    }
  }
  R.note("fig3-conc: %zu rounds of %u cells; explicit search confirmed %u "
         "cells, %u NO answers inconclusive",
         Results.size(), NumCells, Confirmed, Unconfirmed);
  for (unsigned I = 0; I < NumCells; ++I) {
    const Cell &C = Cells[I];
    const conc::ConcResult &Res = Results[0][I];
    R.note("  %-8s k=%u %-4s reach-set %10.0f  %8.1f ms (median)",
           Models[C.ModelIdx].Name.c_str(), C.K,
           Res.Reachable ? "YES" : "NO", Res.ReachStates, median(CellMs[I]));
  }

  if (!R.Cfg.Trace)
    return;
  for (unsigned I = 0; I < NumCells; ++I) {
    std::string Name = cellName(Cells[I]);
    R.layer("concurrent.solve_ms." + Name, median(CellMs[I]));
    R.layer("concurrent.reach_states." + Name, Results[0][I].ReachStates);
  }
  double SourceKb = 0.0;
  for (const Model &M : Models)
    SourceKb += double(M.Source.size()) / 1024.0;
  R.layer("bp.source_kb", SourceKb);
  Counters.report(R.layers(), unsigned(Results.size()));
}

} // namespace perfbench
