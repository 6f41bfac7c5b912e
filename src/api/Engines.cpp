//===- Engines.cpp - The built-in engines behind the facade ---------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The eight built-in `Engine` implementations, each a thin adapter from
/// `SolverOptions`/`CompiledQuery` to one of the underlying solvers:
///
///   summary, ef, ef-split, ef-opt — the paper's fixed-point algorithms
///     (Sections 4.1–4.3), solved by the calculus evaluator,
///   moped, bebop                  — the natively-coded Figure-2 baselines,
///   conc                          — Section 5's bounded context-switching
///     fixed-point,
///   lal-reps                      — the eager Lal–Reps sequentialization
///     run as a real engine: transform, solve the sequential program with
///     ef-split, and map the result back.
///
/// The fixed-point engines additionally implement `Engine::open`: their
/// session objects wrap `reach::SeqSession` / `conc::ConcSession`, which
/// persist the compiled calculus, BDD manager, and solved summary rounds
/// across queries. The natively-coded baselines and the (target-dependent)
/// Lal–Reps transformation keep the null default, so `SolverSession` falls
/// back to fresh per-query solves for them.
///
//===----------------------------------------------------------------------===//

#include "api/Solver.h"

#include "concurrent/ConcReach.h"
#include "concurrent/LalReps.h"
#include "reach/Baselines.h"
#include "reach/SeqReach.h"
#include "reach/Witness.h"
#include "support/Timer.h"

#include <memory>

using namespace getafix;
using namespace getafix::api;

namespace {

//===----------------------------------------------------------------------===//
// Option / result mapping shared by the one-shot and session paths
//===----------------------------------------------------------------------===//

/// Per-solve governor wiring: when any governance knob of \p Opts is set,
/// arms `Opts.Governor` (or an internal governor living in this scope)
/// with the limits and exposes the pointer for the engine's native
/// options. Governors are one-shot, so one scope serves exactly one solve
/// attempt; the native solvers uninstall the raw pointer from their
/// managers before returning, so the scope may die right after.
class GovernorScope {
public:
  explicit GovernorScope(const SolverOptions &Opts) {
    if (!Opts.governed())
      return;
    G = Opts.Governor ? Opts.Governor : &Local;
    if (Opts.TimeoutMs != 0)
      G->setDeadlineIn(static_cast<int64_t>(Opts.TimeoutMs));
    if (Opts.NodeBudget != 0)
      G->setNodeBudget(Opts.NodeBudget);
    if (Opts.CancelFlag)
      G->setCancelFlag(Opts.CancelFlag);
  }
  GovernorScope(const GovernorScope &) = delete;
  GovernorScope &operator=(const GovernorScope &) = delete;

  /// Null when the solve is ungoverned.
  support::ResourceGovernor *get() { return G; }

private:
  support::ResourceGovernor Local;
  support::ResourceGovernor *G = nullptr;
};

/// Maps a tripped native-result limit onto the facade status + error
/// text. No-op for `ResourceLimit::None`.
void applyLimit(SolveResult &Out, support::ResourceLimit L) {
  if (L == support::ResourceLimit::None)
    return;
  Out.Status = statusForLimit(L);
  switch (L) {
  case support::ResourceLimit::Deadline:
    Out.Error = "solve stopped: wall-clock deadline exceeded";
    break;
  case support::ResourceLimit::NodeBudget:
    Out.Error = "solve stopped: BDD node budget exhausted";
    break;
  case support::ResourceLimit::Cancelled:
    Out.Error = "solve stopped: cancelled";
    break;
  case support::ResourceLimit::None:
    break;
  }
}

reach::SeqOptions seqOptionsFor(reach::SeqAlgorithm Alg,
                                const SolverOptions &Opts) {
  reach::SeqOptions SO;
  SO.Alg = Alg;
  SO.Strategy = Opts.Strategy;
  SO.EarlyStop = Opts.EarlyStop;
  SO.MaxIterations = Opts.MaxIterations;
  SO.CacheBits = Opts.CacheBits;
  SO.GcThreshold = Opts.GcThreshold;
  SO.FrontierCofactor = Opts.FrontierCofactor;
  SO.ReuseSolvedState = Opts.SessionReuse;
  SO.Threads = Opts.Threads;
  SO.DisjunctParallelThreshold = Opts.DisjunctParallelThreshold;
  SO.RingKeyframeInterval = Opts.RingKeyframeInterval;
  SO.MonolithicSummary = Opts.MonolithicSummary;
  return SO;
}

void fillFromSeq(SolveResult &Out, reach::SeqResult &&R) {
  applyLimit(Out, R.Limit);
  Out.Reachable = R.Reachable;
  Out.HitIterationLimit = R.HitIterationLimit;
  Out.Iterations = R.Iterations;
  Out.DeltaRounds = R.DeltaRounds;
  Out.SummaryNodes = R.SummaryNodes;
  Out.PeakLiveNodes = R.PeakLiveNodes;
  Out.BddNodesCreated = R.BddNodesCreated;
  Out.BddCacheLookups = R.BddCacheLookups;
  Out.BddCacheHits = R.BddCacheHits;
  Out.Bdd = R.Bdd;
  Out.Relations = std::move(R.Relations);
  Out.Cofactor = R.Cofactor;
  Out.SummariesReused = R.SummariesReused;
  Out.SummariesRecomputed = R.SummariesRecomputed;
  Out.SccsSolvedParallel = R.SccsSolvedParallel;
  Out.CondensationWidth = R.CondensationWidth;
  Out.SummaryRelations = R.SummaryRelations;
  Out.RoundsParallel = R.RoundsParallel;
  Out.DisjunctsParallel = R.DisjunctsParallel;
  Out.ImportedNodes = R.ImportedNodes;
  Out.Seconds = R.Seconds;
}

void fillFromWitness(SolveResult &Out, const bp::ProgramCfg &Cfg,
                     reach::WitnessResult &&W, double Seconds) {
  applyLimit(Out, W.Limit);
  Out.Reachable = W.Reachable;
  Out.HitIterationLimit = W.HitIterationLimit;
  Out.Iterations = W.Iterations;
  Out.DeltaRounds = W.DeltaRounds;
  Out.SummaryNodes = W.SummaryNodes;
  Out.PeakLiveNodes = W.PeakLiveNodes;
  Out.BddNodesCreated = W.BddNodesCreated;
  Out.BddCacheLookups = W.BddCacheLookups;
  Out.BddCacheHits = W.BddCacheHits;
  Out.Bdd = W.Bdd;
  Out.Relations = std::move(W.Relations);
  Out.Seconds = Seconds;
  if (W.Reachable) {
    Out.HasWitness = true;
    Out.Witness = std::move(W.Steps);
    Out.WitnessText = reach::formatWitness(Cfg, Out.Witness);
  }
}

//===----------------------------------------------------------------------===//
// Sequential fixed-point engines (Sections 4.1–4.3)
//===----------------------------------------------------------------------===//

/// Session adapter over `reach::SeqSession` (+ a lazy witness session it
/// creates internally): one per `Solver::open` on a sequential fixed-point
/// engine.
class SeqEngineSession : public EngineSession {
public:
  SeqEngineSession(const bp::ProgramCfg &Cfg, reach::SeqOptions SO)
      : Cfg(Cfg), Session(Cfg, SO) {}

  SolveResult solve(const CompiledQuery &Q) override {
    SolveResult Out;
    if (Q.wantWitness()) {
      Timer T;
      reach::WitnessResult W = Session.solveWithWitness(Q.procId(), Q.pc());
      fillFromWitness(Out, Cfg, std::move(W), T.seconds());
      return Out;
    }
    fillFromSeq(Out, Session.solve(Q.procId(), Q.pc()));
    return Out;
  }

  bool answersFromState(const CompiledQuery &Q) override {
    return Session.answersFromState(Q.procId(), Q.pc(), Q.wantWitness());
  }

  void setGovernor(support::ResourceGovernor *G) override {
    Session.setGovernor(G);
  }

  void clearComputedCache() override { Session.clearComputedCache(); }

  size_t liveNodes() const override { return Session.liveNodes(); }
  size_t peakLiveNodes() const override { return Session.peakLiveNodes(); }
  uint64_t allocations() const override { return Session.allocations(); }
  size_t memoryFootprint() const override {
    return Session.memoryFootprint();
  }

private:
  const bp::ProgramCfg &Cfg;
  reach::SeqSession Session;
};

class SeqFixpointEngine : public Engine {
public:
  SeqFixpointEngine(const char *Name, const char *Desc,
                    reach::SeqAlgorithm Alg)
      : Name(Name), Desc(Desc), Alg(Alg) {}

  const char *name() const override { return Name; }
  const char *description() const override { return Desc; }
  bool handlesConcurrent() const override { return false; }
  bool supportsWitness() const override { return true; }

  SolveResult run(const CompiledQuery &Q,
                  const SolverOptions &Opts) const override {
    reach::SeqOptions SO = seqOptionsFor(Alg, Opts);
    GovernorScope GS(Opts);
    SO.Governor = GS.get();

    SolveResult Out;
    if (Q.wantWitness()) {
      Timer T;
      reach::WitnessResult W =
          reach::checkReachabilityWithWitness(Q.cfg(), Q.procId(), Q.pc(),
                                              SO);
      fillFromWitness(Out, Q.cfg(), std::move(W), T.seconds());
      return Out;
    }

    fillFromSeq(Out, reach::checkReachability(Q.cfg(), Q.procId(), Q.pc(),
                                              SO));
    return Out;
  }

  std::unique_ptr<EngineSession>
  open(const CompiledQuery &Program,
       const SolverOptions &Opts) const override {
    return std::make_unique<SeqEngineSession>(Program.cfg(),
                                              seqOptionsFor(Alg, Opts));
  }

  std::string formulaText(const CompiledQuery &Q,
                          const SolverOptions &Opts) const override {
    return reach::formulaText(Q.cfg(), seqOptionsFor(Alg, Opts));
  }

private:
  const char *Name;
  const char *Desc;
  reach::SeqAlgorithm Alg;
};

//===----------------------------------------------------------------------===//
// Baseline engines (Figure 2's comparison columns)
//===----------------------------------------------------------------------===//

class MopedEngine : public Engine {
public:
  const char *name() const override { return "moped"; }
  const char *description() const override {
    return "natively coded symbolic post* saturation (Moped stand-in)";
  }
  bool handlesConcurrent() const override { return false; }

  SolveResult run(const CompiledQuery &Q,
                  const SolverOptions &Opts) const override {
    reach::BaselineOptions BO;
    BO.EarlyStop = Opts.EarlyStop;
    BO.CacheBits = Opts.CacheBits;
    BO.GcThreshold = Opts.GcThreshold;
    GovernorScope GS(Opts);
    BO.Governor = GS.get();
    reach::BaselineResult R =
        reach::mopedPostStar(Q.cfg(), Q.procId(), Q.pc(), BO);
    SolveResult Out;
    applyLimit(Out, R.Limit);
    Out.Reachable = R.Reachable;
    Out.Iterations = R.Iterations;
    Out.SummaryNodes = R.SummaryNodes;
    Out.PeakLiveNodes = R.PeakLiveNodes;
    Out.BddNodesCreated = R.BddNodesCreated;
    Out.BddCacheLookups = R.BddCacheLookups;
    Out.BddCacheHits = R.BddCacheHits;
    Out.Bdd = R.Bdd;
    Out.Seconds = R.Seconds;
    return Out;
  }
};

class BebopEngine : public Engine {
public:
  const char *name() const override { return "bebop"; }
  const char *description() const override {
    return "explicit path-edge/summary-edge tabulation (Bebop stand-in)";
  }
  bool handlesConcurrent() const override { return false; }

  SolveResult run(const CompiledQuery &Q,
                  const SolverOptions &Opts) const override {
    // Enumerative: no BDD knobs apply, but the deadline/cancel limits do.
    reach::BaselineOptions BO;
    GovernorScope GS(Opts);
    BO.Governor = GS.get();
    reach::BaselineResult R =
        reach::bebopTabulate(Q.cfg(), Q.procId(), Q.pc(), BO);
    SolveResult Out;
    applyLimit(Out, R.Limit);
    Out.Reachable = R.Reachable;
    Out.Iterations = R.Iterations;
    Out.Seconds = R.Seconds;
    // PeakLiveNodes stays 0: bebop never touches the BDD manager.
    return Out;
  }
};

//===----------------------------------------------------------------------===//
// Concurrent engines (Section 5)
//===----------------------------------------------------------------------===//

/// `ContextBound`/`Rounds` → the bound k an engine should analyze.
unsigned effectiveContextBound(const SolverOptions &Opts,
                               unsigned NumThreads) {
  if (Opts.Rounds != 0)
    return conc::contextSwitchesForRounds(Opts.Rounds, NumThreads);
  return Opts.ContextBound;
}

conc::ConcOptions concOptionsFor(const SolverOptions &Opts,
                                 unsigned NumThreads) {
  conc::ConcOptions CO;
  CO.MaxContextSwitches = effectiveContextBound(Opts, NumThreads);
  CO.RoundRobin = Opts.RoundRobin || Opts.Rounds != 0;
  CO.Strategy = Opts.Strategy;
  CO.EarlyStop = Opts.EarlyStop;
  CO.MaxIterations = Opts.MaxIterations;
  CO.CacheBits = Opts.CacheBits;
  CO.GcThreshold = Opts.GcThreshold;
  CO.FrontierCofactor = Opts.FrontierCofactor;
  CO.ReuseSolvedState = Opts.SessionReuse;
  CO.Threads = Opts.Threads;
  CO.DisjunctParallelThreshold = Opts.DisjunctParallelThreshold;
  CO.RingKeyframeInterval = Opts.RingKeyframeInterval;
  return CO;
}

void fillFromConc(SolveResult &Out, conc::ConcResult &&R) {
  applyLimit(Out, R.Limit);
  Out.Reachable = R.Reachable;
  Out.HitIterationLimit = R.HitIterationLimit;
  Out.Iterations = R.Iterations;
  Out.DeltaRounds = R.DeltaRounds;
  Out.SummaryNodes = R.ReachNodes;
  Out.PeakLiveNodes = R.PeakLiveNodes;
  Out.BddNodesCreated = R.BddNodesCreated;
  Out.BddCacheLookups = R.BddCacheLookups;
  Out.BddCacheHits = R.BddCacheHits;
  Out.Bdd = R.Bdd;
  Out.Relations = std::move(R.Relations);
  Out.Cofactor = R.Cofactor;
  Out.SummariesReused = R.SummariesReused;
  Out.SummariesRecomputed = R.SummariesRecomputed;
  Out.SccsSolvedParallel = R.SccsSolvedParallel;
  Out.CondensationWidth = R.CondensationWidth;
  Out.SummaryRelations = R.SummaryRelations;
  Out.RoundsParallel = R.RoundsParallel;
  Out.DisjunctsParallel = R.DisjunctsParallel;
  Out.ImportedNodes = R.ImportedNodes;
  Out.ReachStates = R.ReachStates;
  Out.Seconds = R.Seconds;
}

/// Session adapter over `conc::ConcSession`.
class ConcEngineSession : public EngineSession {
public:
  ConcEngineSession(const CompiledQuery &Program, conc::ConcOptions CO)
      : Session(Program.concurrent(), Program.threadCfgs(), CO) {}

  SolveResult solve(const CompiledQuery &Q) override {
    SolveResult Out;
    fillFromConc(Out, Session.solve(Q.thread(), Q.procId(), Q.pc()));
    return Out;
  }

  bool answersFromState(const CompiledQuery &Q) override {
    return Session.answersFromState(Q.thread(), Q.procId(), Q.pc());
  }

  void setGovernor(support::ResourceGovernor *G) override {
    Session.setGovernor(G);
  }

  void clearComputedCache() override { Session.clearComputedCache(); }

  size_t liveNodes() const override { return Session.liveNodes(); }
  size_t peakLiveNodes() const override { return Session.peakLiveNodes(); }
  uint64_t allocations() const override { return Session.allocations(); }
  size_t memoryFootprint() const override {
    return Session.memoryFootprint();
  }

private:
  conc::ConcSession Session;
};

class ConcFixpointEngine : public Engine {
public:
  const char *name() const override { return "conc"; }
  const char *description() const override {
    return "bounded context-switching fixed-point (Section 5, k+1 global "
           "copies)";
  }
  bool handlesConcurrent() const override { return true; }

  SolveResult run(const CompiledQuery &Q,
                  const SolverOptions &Opts) const override {
    conc::ConcOptions CO =
        concOptionsFor(Opts, Q.concurrent().numThreads());
    GovernorScope GS(Opts);
    CO.Governor = GS.get();
    SolveResult Out;
    fillFromConc(Out,
                 conc::checkConcReachability(Q.concurrent(), Q.threadCfgs(),
                                             Q.thread(), Q.procId(), Q.pc(),
                                             CO));
    return Out;
  }

  std::unique_ptr<EngineSession>
  open(const CompiledQuery &Program,
       const SolverOptions &Opts) const override {
    return std::make_unique<ConcEngineSession>(
        Program, concOptionsFor(Opts, Program.concurrent().numThreads()));
  }
};

class LalRepsEngine : public Engine {
public:
  const char *name() const override { return "lal-reps"; }
  const char *description() const override {
    return "eager Lal-Reps sequentialization, solved with ef-split "
           "(O(k) global copies)";
  }
  bool handlesConcurrent() const override { return true; }

  // No session mode: the sequentialization rewrites the program around the
  // *target* label, so there is no target-independent solver state to
  // persist — `SolverSession` falls back to fresh per-query solves.

  SolveResult run(const CompiledQuery &Q,
                  const SolverOptions &Opts) const override {
    SolveResult Out;
    // The sequentialization rewrites the program around a *label*; a point
    // query works when some label names its point.
    std::string Label = Q.label();
    if (Label.empty()) {
      const bp::ProcCfg &Proc = Q.threadCfgs()[Q.thread()].Procs[Q.procId()];
      for (const auto &[Name, Pc] : Proc.LabelPcs)
        if (Pc == Q.pc()) {
          Label = Name;
          break;
        }
      if (Label.empty()) {
        Out.Status = SolveStatus::BadQuery;
        Out.Error = "lal-reps needs a labelled target (the "
                    "sequentialization rewrites the program around the "
                    "label), but the queried point carries no label";
        return Out;
      }
    }

    Timer T;
    unsigned K = effectiveContextBound(Opts, Q.concurrent().numThreads());
    DiagnosticEngine Diags;
    std::unique_ptr<bp::Program> Seq =
        conc::lalRepsSequentialize(Q.concurrent(), Label, K, Diags);
    if (!Seq) {
      Out.Status = SolveStatus::BadQuery;
      Out.Error = "lal-reps sequentialization failed:\n" + Diags.str();
      return Out;
    }
    bp::ProgramCfg SeqCfg = bp::buildCfg(*Seq);

    reach::SeqOptions SO =
        seqOptionsFor(reach::SeqAlgorithm::EntryForwardSplit, Opts);
    // Always solve the transformed program monolithically. The eager
    // reduction multiplies the globals by O(k) copies, so its reachable
    // entries are a vanishing fraction of all entries — the per-procedure
    // split's all-entries seeds forfeit entry-forward pruning and slow
    // these solves ~16x (LalRepsTest seeds: 16s -> 260s). Entry-pruned
    // split relations are not an option either: entries flow caller ->
    // callee while summaries flow callee -> caller, so pruned groups
    // collapse into one condensation SCC the evaluator would solve by
    // nested re-evaluation.
    SO.MonolithicSummary = true;
    // The (fast, purely syntactic) sequentialization above is ungoverned;
    // the limits govern the solve of the transformed program.
    GovernorScope GS(Opts);
    SO.Governor = GS.get();
    reach::SeqResult R =
        reach::checkReachabilityOfLabel(SeqCfg, conc::lalRepsGoalLabel(), SO);

    fillFromSeq(Out, std::move(R));
    Out.TransformedGlobals = Seq->numGlobals();
    Out.Seconds = T.seconds(); // Transform + solve: the cost being compared.
    return Out;
  }
};

} // namespace

void api::detail::registerBuiltinEngines(EngineRegistry &R) {
  R.add(std::make_unique<SeqFixpointEngine>(
      "summary", "summaries from all entries (Section 4.1)",
      reach::SeqAlgorithm::SummarySimple));
  R.add(std::make_unique<SeqFixpointEngine>(
      "ef", "entry-forward summaries, unsplit return clause (Section 4.2)",
      reach::SeqAlgorithm::EntryForward));
  R.add(std::make_unique<SeqFixpointEngine>(
      "ef-split", "entry-forward with the split return clause (Appendix)",
      reach::SeqAlgorithm::EntryForwardSplit));
  R.add(std::make_unique<SeqFixpointEngine>(
      "ef-opt", "frontier-restricted entry-forward (Section 4.3)",
      reach::SeqAlgorithm::EntryForwardOpt));
  R.add(std::make_unique<MopedEngine>());
  R.add(std::make_unique<BebopEngine>());
  R.add(std::make_unique<ConcFixpointEngine>());
  R.add(std::make_unique<LalRepsEngine>());
}
