//===- Serve.cpp - getafixd under warm and churning load ------------------===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two serving workloads run an in-process `server::Server` on a
/// loopback port with two workers, driven by two closed-loop client
/// connections (each sends its next request when the previous response
/// has arrived). Every request asks for the full target batch of one
/// TERMINATOR-shaped program with labelled checkpoints, so the requests
/// of a workload form a single latency class.
///
///   - `serve-warm`: the programs' sessions are opened during set-up and
///     every request names a resident program. This is the read path:
///     protocol, socket, lease and answering from solved state.
///   - `serve-churn`: the pool runs under a memory budget and a session
///     cap, and every request carries the inline source of a program the
///     daemon has not seen. This is the write path: parse, session open,
///     cold solve, and budget enforcement with its cache clears. The
///     evictions come from the session cap: the budget's own eviction
///     phase never fires (see runServeChurn).
///
/// Checks: every row's verdict against the program's construction —
/// `CP<j>` reachable, `DEAD<j>` unreachable, `ERR` as generated.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "api/Solver.h"
#include "bp/Cfg.h"
#include "bp/Parser.h"
#include "gen/Workloads.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Socket.h"

#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace getafix;

namespace perfbench {

namespace {

constexpr unsigned NumClients = 2;
constexpr unsigned NumCheckpoints = 4;
constexpr int ResponseTimeoutMs = 120000;

const std::vector<std::string> &targets() {
  static const std::vector<std::string> T = [] {
    std::vector<std::string> V;
    for (unsigned J = 0; J < NumCheckpoints; ++J)
      V.push_back("CP" + std::to_string(J));
    for (unsigned J = 0; J < NumCheckpoints; ++J)
      V.push_back("DEAD" + std::to_string(J));
    V.push_back("ERR");
    return V;
  }();
  return T;
}

/// Expected verdicts of `targets()`, bit i for target i.
uint32_t expectedMask(bool ErrReachable) {
  uint32_t M = (1u << NumCheckpoints) - 1;
  if (ErrReachable)
    M |= 1u << (2 * NumCheckpoints);
  return M;
}

struct ServedProgram {
  std::string Source;
  bool ErrReachable = false;
  std::string RequestLine; ///< The solve request, newline-terminated.
};

/// One program of the serving family. \p Unique, when non-empty, is
/// prepended as a comment so no two churn requests share a session key.
ServedProgram makeProgram(uint64_t Seed, bool ErrReachable,
                          const std::string &Unique = "") {
  gen::TerminatorParams P;
  P.CounterBits = 6;
  P.NumDeadVars = 4;
  P.Style = gen::DeadVarStyle::Schoose;
  P.Reachable = ErrReachable;
  P.LabeledCheckpoints = NumCheckpoints;
  P.Seed = Seed;
  ServedProgram Out;
  Out.Source = gen::terminatorProgram(P).Source;
  if (!Unique.empty())
    Out.Source = "// " + Unique + "\n" + Out.Source;
  Out.ErrReachable = ErrReachable;
  server::Json Ts = server::Json::array();
  for (const std::string &T : targets())
    Ts.add(server::Json::str(T));
  Out.RequestLine = server::Json::object()
                        .set("op", server::Json::str("solve"))
                        .set("source", server::Json::str(Out.Source))
                        .set("targets", std::move(Ts))
                        .dump() +
                    "\n";
  return Out;
}

/// A client connection speaking the line protocol.
class Client {
public:
  bool connect(unsigned Port, std::string &Error) {
    Conn = support::connectTcp("127.0.0.1", Port, &Error);
    if (!Conn.valid())
      return false;
    Reader = std::make_unique<support::LineReader>(Conn.fd());
    return true;
  }

  /// Sends \p Line (newline-terminated) and decodes the response.
  bool roundTrip(const std::string &Line, server::Json &Resp,
                 std::string &Error) {
    if (!support::writeAll(Conn.fd(), Line, &Error))
      return false;
    std::string Out;
    if (Reader->readLine(Out, ResponseTimeoutMs) !=
        support::LineReader::Status::Line) {
      Error = "no response line";
      return false;
    }
    return server::Json::parse(Out, Resp, Error);
  }

private:
  support::Socket Conn;
  std::unique_ptr<support::LineReader> Reader;
};

/// The server plus its client connections. Destruction closes the
/// clients first so the workers return to accept, then drains the server.
class Deployment {
public:
  Deployment(unsigned Workers, size_t BudgetBytes, size_t MaxSessions) {
    server::ServerOptions Opts;
    Opts.Workers = Workers;
    Opts.Pool.MemoryBudgetBytes = BudgetBytes;
    Opts.Pool.MaxResidentSessions = MaxSessions;
    Srv = std::make_unique<server::Server>(Opts);
  }
  ~Deployment() {
    Clients.clear();
    if (Started) {
      Srv->requestShutdown();
      Srv->wait();
    }
  }
  Deployment(const Deployment &) = delete;
  Deployment &operator=(const Deployment &) = delete;

  bool start(std::string &Error) {
    if (!Srv->start(&Error))
      return false;
    Started = true;
    for (unsigned I = 0; I < NumClients; ++I) {
      Clients.push_back(std::make_unique<Client>());
      if (!Clients.back()->connect(Srv->port(), Error))
        return false;
    }
    return true;
  }

  Client &client(unsigned I) { return *Clients[I]; }

private:
  std::unique_ptr<server::Server> Srv;
  bool Started = false;
  std::vector<std::unique_ptr<Client>> Clients;
};

/// One answered request, kept for the checks after the timed phase.
struct Answer {
  uint32_t Program = 0; ///< Index into the run's program list.
  bool Ok = false;
  uint32_t Mask = 0;    ///< Bit i: target i answered reachable.
  uint32_t Rows = 0;    ///< Rows carrying a verdict.
  double RttMs = 0.0;
  double ServerMs = 0.0; ///< The response's own `seconds`.
};

/// Sends one request and decodes its rows.
Answer ask(Run &R, Client &C, const ServedProgram &P, uint32_t Index,
           uint64_t Rid) {
  Answer A;
  A.Program = Index;
  server::Json Resp;
  std::string Error;
  double T0 = nowS();
  bool Sent;
  {
    Span S("server.request", Rid);
    Sent = C.roundTrip(P.RequestLine, Resp, Error);
  }
  A.RttMs = (nowS() - T0) * 1e3;
  const server::Json *Ok = Sent ? Resp.find("ok") : nullptr;
  A.Ok = Ok && Ok->isBool() && Ok->asBool();
  if (A.Ok) {
    if (const server::Json *Secs = Resp.find("seconds"))
      A.ServerMs = Secs->asNumber() * 1e3;
    if (const server::Json *Rows = Resp.find("rows"))
      for (size_t I = 0; I < Rows->items().size() && I < 32; ++I) {
        const server::Json *Reach = Rows->items()[I].find("reachable");
        if (!Reach || !Reach->isBool())
          continue;
        ++A.Rows;
        if (Reach->asBool())
          A.Mask |= 1u << I;
      }
  } else if (!Sent) {
    R.note("request failed: %s", Error.c_str());
  }
  R.noteOp(A.Ok);
  if (A.Ok)
    R.noteLatencyMs(A.RttMs);
  return A;
}

/// Runs one round: client c sends \p PerClient requests, the program of
/// its i-th request chosen by \p Pick(c, i), each after the previous
/// response. Returns the round's wall seconds.
double clientRound(Run &R, Deployment &D,
                   const std::vector<ServedProgram> &Progs,
                   unsigned PerClient,
                   const std::function<uint32_t(unsigned, unsigned)> &Pick,
                   std::vector<Answer> &Answers, uint64_t &NextRid) {
  std::vector<std::vector<Answer>> Per(NumClients);
  uint64_t Base = NextRid;
  NextRid += uint64_t(NumClients) * PerClient;
  double T0 = nowS();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < NumClients; ++C)
    Threads.emplace_back([&, C] {
      for (unsigned I = 0; I < PerClient; ++I) {
        uint32_t P = Pick(C, I);
        Per[C].push_back(ask(R, D.client(C), Progs[P], P,
                             Base + uint64_t(C) * PerClient + I + 1));
      }
    });
  for (std::thread &T : Threads)
    T.join();
  double Wall = nowS() - T0;
  for (std::vector<Answer> &V : Per)
    Answers.insert(Answers.end(), V.begin(), V.end());
  return Wall;
}

void checkAnswers(Run &R, const std::vector<ServedProgram> &Progs,
                  const std::vector<Answer> &Answers) {
  uint64_t Wrong = 0;
  for (const Answer &A : Answers) {
    if (!A.Ok)
      continue;
    const ServedProgram &P = Progs[A.Program];
    bool Good = A.Rows == targets().size() &&
                A.Mask == expectedMask(P.ErrReachable);
    if (!Good && Wrong++ < 5)
      R.check(false, "program " + std::to_string(A.Program) +
                         ": verdict mask " + std::to_string(A.Mask) +
                         " over " + std::to_string(A.Rows) + " rows");
  }
  R.check(Wrong == 0, std::to_string(Wrong) + " responses with wrong verdicts");
}

/// Queries the `stats` verb and records the pool figures.
void recordPoolStats(Run &R, Client &C) {
  server::Json Resp;
  std::string Error;
  if (!C.roundTrip("{\"op\":\"stats\"}\n", Resp, Error)) {
    R.check(false, "stats request failed: " + Error);
    return;
  }
  const server::Json *Pool = Resp.find("pool");
  auto Get = [&](const char *Name) {
    const server::Json *V = Pool ? Pool->find(Name) : nullptr;
    return V && V->isNumber() ? V->asNumber() : 0.0;
  };
  R.layer("server.pool_hits", Get("hits"));
  R.layer("server.pool_opens", Get("opens") + Get("reopens"));
  R.layer("server.pool_evictions", Get("evictions"));
  R.layer("server.pool_cache_clears", Get("cache_clears"));
  R.layer("server.pool_footprint_mb", Get("footprint_bytes") / (1 << 20));
}

/// Per-layer figures of the served path measured from the client side:
/// the round trip minus the server's own solve time, the tail, and the
/// cost of the protocol codec on the workload's own request lines.
void recordServerLayer(Run &R, const std::vector<ServedProgram> &Progs,
                       const std::vector<Answer> &Answers) {
  std::vector<double> Overhead;
  for (const Answer &A : Answers)
    if (A.Ok)
      Overhead.push_back(A.RttMs - A.ServerMs);
  R.layer("server.overhead_ms", median(Overhead));
  R.layer("server.req_p90_ms", percentile(R.latencies(), 0.9));
  std::vector<double> Us;
  for (const ServedProgram &P : Progs) {
    constexpr int Reps = 50;
    double T0 = nowS();
    for (int I = 0; I < Reps; ++I) {
      server::Request Req;
      std::string Error;
      server::Json J;
      if (!server::parseRequest(P.RequestLine, Req, Error) ||
          !server::Json::parse(P.RequestLine, J, Error) || J.dump().empty())
        R.check(false, "protocol round trip: " + Error);
    }
    Us.push_back((nowS() - T0) * 1e6 / Reps);
  }
  R.layer("server.protocol_us", median(Us));
}

/// The library calls behind a served request, made in-process on
/// \p Progs: parse and CFG construction, `Solver::open` plus the first
/// batch, then \p WarmQueries warm batches. Figures are per program.
void recordApiLayer(Run &R, const std::vector<ServedProgram> &Progs,
                    unsigned WarmQueries) {
  std::vector<Query> Batch;
  for (const std::string &T : targets())
    Batch.push_back(Query().target(T));
  std::vector<double> OpenMs, QueryMs, FootMb;
  uint64_t Reused = 0, Recomputed = 0;
  SolveCounters Counters;
  std::vector<double> ParseMs, CfgMs;
  for (const ServedProgram &P : Progs) {
    // The front end a request pays before its session opens.
    DiagnosticEngine Diags;
    double T0 = nowS();
    std::unique_ptr<bp::Program> Ast;
    {
      Span Sp("bp.parse");
      Ast = bp::parseProgram(P.Source, Diags);
    }
    ParseMs.push_back((nowS() - T0) * 1e3);
    if (!Ast) {
      R.check(false, "served program does not parse: " + Diags.str());
      continue;
    }
    T0 = nowS();
    {
      Span Sp("bp.cfg");
      bp::ProgramCfg Cfg = bp::buildCfg(*Ast);
    }
    CfgMs.push_back((nowS() - T0) * 1e3);

    T0 = nowS();
    std::unique_ptr<SolverSession> S;
    std::vector<SolveResult> First;
    {
      Span Sp("api.open");
      S = Solver::open(Query::fromSource(P.Source), SolverOptions());
      First = S->solveAll(Batch);
    }
    OpenMs.push_back((nowS() - T0) * 1e3);
    for (const SolveResult &Res : First)
      Counters.add(Res);
    for (unsigned Q = 0; Q < WarmQueries; ++Q) {
      double T1 = nowS();
      std::vector<SolveResult> Warm;
      {
        Span Sp("api.query");
        Warm = S->solveAll(Batch);
      }
      QueryMs.push_back((nowS() - T1) * 1e3);
      for (const SolveResult &Res : Warm) {
        Reused += Res.SummariesReused;
        Recomputed += Res.SummariesRecomputed;
      }
    }
    FootMb.push_back(double(S->memoryFootprint()) / (1 << 20));
  }
  double SourceKb = 0.0;
  for (const ServedProgram &P : Progs)
    SourceKb += double(P.Source.size()) / 1024.0;
  R.layer("bp.source_kb", SourceKb / double(Progs.size()));
  R.layer("bp.parse_ms", median(ParseMs));
  R.layer("bp.cfg_ms", median(CfgMs));
  R.layer("api.open_ms", median(OpenMs));
  R.layer("api.query_ms", median(QueryMs));
  R.layer("api.reuse_ratio",
          Reused + Recomputed ? double(Reused) / double(Reused + Recomputed)
                              : 0.0);
  R.layer("api.footprint_mb", median(FootMb));
  Counters.report(R.layers(), unsigned(Progs.size()));
}

} // namespace

void runServeWarm(Run &R) {
  constexpr unsigned NumPrograms = 8;
  constexpr unsigned PerClient = 100;
  std::vector<ServedProgram> Progs;
  {
    Span S("gen.programs");
    for (unsigned I = 0; I < NumPrograms; ++I)
      Progs.push_back(makeProgram(R.Cfg.Seed * 64 + I, I % 2 == 0));
  }
  Deployment D(2, 0, 0);
  std::string Error;
  if (!D.start(Error)) {
    R.check(false, "server start: " + Error);
    return;
  }
  // Set-up opens every session: each program's first request solves it
  // cold. Repetitions first evict what the previous one opened.
  R.setUp(5, [&] {
    server::Json Resp;
    R.check(D.client(0).roundTrip("{\"op\":\"evict\"}\n", Resp, Error),
            "evict request: " + Error);
    for (unsigned I = 0; I < NumPrograms; ++I)
      R.check(D.client(0).roundTrip(Progs[I].RequestLine, Resp, Error),
              "warm-up request: " + Error);
  });
  if (!R.correct())
    return;

  // Each client walks its own half of the programs, so no request waits
  // for another client's lease.
  std::vector<Answer> Answers;
  uint64_t Rid = 0;
  R.timedRounds([&](unsigned Round) {
    return clientRound(
        R, D, Progs, PerClient,
        [&](unsigned C, unsigned I) {
          unsigned Half = NumPrograms / NumClients;
          return uint32_t(C * Half + (Round * PerClient + I) % Half);
        },
        Answers, Rid);
  });
  checkAnswers(R, Progs, Answers);
  R.note("serve-warm: %zu requests over %u resident programs, p50 %.3f ms, "
         "p90 %.3f ms",
         Answers.size(), NumPrograms, median(R.latencies()),
         percentile(R.latencies(), 0.9));
  if (!R.Cfg.Trace)
    return;
  recordPoolStats(R, D.client(0));
  recordServerLayer(R, Progs, Answers);
  recordApiLayer(R, Progs, 20);
}

void runServeChurn(Run &R) {
  constexpr unsigned PerClient = 6;
  // About three sessions' worth, so every open pushes the pool over
  // budget and each request pays a cache-clear pass. The session cap
  // (getafixd --max-sessions) bounds what the budget alone does not: a
  // cleared cache stays allocated but leaves the footprint estimate, so
  // the budget never evicts and resident memory grows with every program.
  constexpr size_t BudgetBytes = size_t(12) << 20;
  constexpr size_t MaxSessions = 8;
  std::vector<ServedProgram> Progs;
  auto Fresh = [&](uint64_t N) {
    uint64_t Seed = (R.Cfg.Seed << 24) + N;
    return makeProgram(Seed, N % 2 == 0,
                       "seed " + std::to_string(R.Cfg.Seed) + " request " +
                           std::to_string(N));
  };
  auto GenerateRound = [&] {
    Span S("gen.programs");
    for (unsigned I = 0; I < NumClients * PerClient; ++I)
      Progs.push_back(Fresh(Progs.size()));
  };
  Deployment D(2, BudgetBytes, MaxSessions);
  std::string Error;
  if (!D.start(Error)) {
    R.check(false, "server start: " + Error);
    return;
  }
  // Set-up fills the pool to its session cap with cold requests, so the
  // timed rounds start in the steady state where every open evicts.
  unsigned WarmUps = 0;
  R.setUp(5, [&] {
    for (unsigned I = 0; I < MaxSessions; ++I) {
      server::Json Resp;
      R.check(D.client(0).roundTrip(
                  makeProgram(R.Cfg.Seed, I % 2 == 0,
                              "warm-up " + std::to_string(WarmUps++))
                      .RequestLine,
                  Resp, Error),
              "warm-up request: " + Error);
    }
  });
  if (!R.correct())
    return;

  uint64_t Rid = 0;
  std::vector<Answer> Answers;
  double GenS = 0.0;
  R.timedRounds(
      [&](unsigned) {
        size_t Base = Progs.size() - NumClients * PerClient;
        return clientRound(
            R, D, Progs, PerClient,
            [&](unsigned C, unsigned I) {
              return uint32_t(Base + C * PerClient + I);
            },
            Answers, Rid);
      },
      [&] {
        // Each round's fresh programs; generating them is not the
        // server's work.
        double T0 = nowS();
        GenerateRound();
        GenS += nowS() - T0;
      });
  checkAnswers(R, Progs, Answers);
  R.note("serve-churn: %zu requests, each a program the daemon had not "
         "seen, p50 %.3f ms, p90 %.3f ms (%.3f s generating between rounds)",
         Answers.size(), median(R.latencies()),
         percentile(R.latencies(), 0.9), GenS);
  if (!R.Cfg.Trace)
    return;
  recordPoolStats(R, D.client(0));
  recordServerLayer(R, Progs, Answers);
  std::vector<ServedProgram> Probe;
  for (unsigned I = 0; I < 4; ++I)
    Probe.push_back(Fresh(Progs.size() + I));
  recordApiLayer(R, Probe, 0);
}

} // namespace perfbench
