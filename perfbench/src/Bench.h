//===- Bench.h - Shared run state of the getafix benchmark ------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run configuration, the record a run
/// fills (set-up samples, per-round timings, per-operation latencies,
/// checks, per-layer figures), and the timing helpers.
///
/// A run has three phases. Set-up (generating inputs, parsing, starting
/// and warming the server) is repeated and its median is `setup_s`. The
/// timed phase runs whole rounds of the workload's fixed operation list
/// until `--seconds` have passed. Checks against references computed apart
/// from the solver run afterwards, outside the timed phase.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_PERFBENCH_BENCH_H
#define GETAFIX_PERFBENCH_BENCH_H

#include "bdd/Bdd.h"
#include "fpcalc/Calculus.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Chrome trace-event output of a traced run; empty = not written.
  std::string TraceOut;
  /// Evaluator threads of `fig2-seq` (the reference figures compare 1
  /// and 2); 0 keeps the workload's default.
  unsigned Threads = 0;
};

/// Wall-clock seconds since an arbitrary origin.
inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User plus system CPU seconds of the whole process (every thread,
/// including the in-process server's workers).
double processCpuS();
/// Peak resident set of the process in MB.
double peakRssMb();

/// Fixed-point and BDD counters summed over a run's solves; the traced
/// run turns them into the `fpcalc.*` and `bdd.*` per-layer figures.
struct SolveCounters {
  uint64_t Solves = 0;
  double Seconds = 0.0;
  uint64_t Rounds = 0;
  uint64_t DeltaRounds = 0;
  unsigned CondensationWidth = 0; ///< Widest condensation seen.
  uint64_t SccsParallel = 0;
  uint64_t RoundsParallel = 0;
  uint64_t DisjunctsParallel = 0;
  uint64_t ImportedNodes = 0;
  getafix::fpc::CofactorStats Cofactor;
  getafix::BddStats Bdd;
  size_t PeakNodes = 0; ///< Largest single-solve peak.

  /// Adds one solve's counters. \p Result is any of the library's result
  /// types (`conc::ConcResult`, `reach::SeqResult`, `api::SolveResult`),
  /// which share these field names.
  template <class Result> void add(const Result &R) {
    ++Solves;
    Seconds += R.Seconds;
    Rounds += R.Iterations;
    DeltaRounds += R.DeltaRounds;
    CondensationWidth = std::max(CondensationWidth, R.CondensationWidth);
    SccsParallel += R.SccsSolvedParallel;
    RoundsParallel += R.RoundsParallel;
    DisjunctsParallel += R.DisjunctsParallel;
    ImportedNodes += R.ImportedNodes;
    Cofactor.Applications += R.Cofactor.Applications;
    Cofactor.SupportBefore += R.Cofactor.SupportBefore;
    Cofactor.SupportAfter += R.Cofactor.SupportAfter;
    // `merge` sums the gauges too; keep the largest single peak instead.
    size_t Peak = std::max(PeakNodes, size_t(R.PeakLiveNodes));
    Bdd.merge(R.Bdd);
    PeakNodes = Peak;
  }
  /// Adds the `fpcalc.*` and `bdd.*` figures to \p Layer, counts per
  /// round of the timed phase (\p Rounds of them).
  void report(std::map<std::string, double> &Layer, unsigned Rounds) const;
};

/// Everything one run records.
class Run {
public:
  explicit Run(const RunConfig &Cfg) : Cfg(Cfg) {}

  const RunConfig &Cfg;

  /// Repeats \p SetUp \p Times times, recording each duration; the median
  /// is `setup_s`. The last repetition's state is the one the run keeps.
  void setUp(unsigned Times, const std::function<void()> &SetUp);

  /// Runs whole rounds until `Cfg.Seconds` have passed. \p Round returns
  /// the wall seconds of its plain verdict operations. \p Prepare, when
  /// given, runs before each round outside the timing (input generation
  /// that is not the system's work).
  void timedRounds(const std::function<double(unsigned Round)> &Round,
                   const std::function<void()> &Prepare = nullptr);

  /// One sample of `req_p50_ms`. The serving workloads record every
  /// request. The batch workloads record each round's mean latency per
  /// plain query: their queries differ in cost by three orders of
  /// magnitude, so a median over single queries jumps between programs.
  void noteLatencyMs(double Ms) {
    std::lock_guard<std::mutex> G(Mu);
    LatencyMs.push_back(Ms);
  }
  /// One operation attempted; \p Ok false counts it as failed (an error
  /// status or a broken connection — a wrong answer is a failed check).
  void noteOp(bool Ok) {
    std::lock_guard<std::mutex> G(Mu);
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
  /// A check against an independent reference; false marks the run
  /// incorrect and prints \p What.
  void check(bool Ok, const std::string &What);

  void layer(const std::string &Name, double Value) { Layer[Name] = Value; }
  std::map<std::string, double> &layers() { return Layer; }

  /// Prints a human-readable line (stdout, before the JSON result).
  void note(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  unsigned setUpCount() const { return unsigned(SetupS.size()); }
  bool correct() const { return Correct; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  uint64_t checksRun() const { return Checks; }

  /// Prints the set-up and per-round samples behind the medians.
  void noteSamples();

  /// The end-to-end figures of the run, by metric name.
  std::map<std::string, double> endToEnd() const;
  /// The latency-class samples recorded so far.
  std::vector<double> latencies() const {
    std::lock_guard<std::mutex> G(Mu);
    return LatencyMs;
  }

private:
  mutable std::mutex Mu; ///< Guards LatencyMs, Attempted, Failed.
  std::vector<double> LatencyMs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
  uint64_t Checks = 0;
  unsigned ReportedFailures = 0;

  std::vector<double> SetupS;
  std::vector<double> RoundSolveS;
  std::vector<double> RoundCpuS;
  double TimedWallS = 0.0;
  uint64_t TimedOps = 0;
  std::map<std::string, double> Layer;
};

double median(std::vector<double> V);
/// Nearest-rank percentile, \p Q in [0, 1].
double percentile(std::vector<double> V, double Q);

/// Workload entry points.
void runFig3Conc(Run &R);
/// Names of the Figure 3 cells `fig3-conc` solves, e.g. "2a2s-k4".
std::vector<std::string> fig3CellNames();
void runFig2Seq(Run &R);
void runServeWarm(Run &R);
void runServeChurn(Run &R);

} // namespace perfbench

#endif // GETAFIX_PERFBENCH_BENCH_H
