//===- Trace.h - In-memory span recorder for the benchmark ------*- C++ -*-===//
//
// Part of the Getafix reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracer. Spans are opened in the benchmark's code
/// around its calls into the library's modules (`bp.parse`,
/// `concurrent.solve`, `server.request`, ...); the text before the first
/// dot names the layer. Each span records a name, a start, an end, its
/// parent span and a request id, and is kept in memory until the run
/// writes the whole set as Chrome trace-event JSON (chrome://tracing and
/// Perfetto read it).
///
/// When tracing is off a `Span` costs one predictable branch, so the
/// untraced runs that produce the end-to-end figures execute the same code.
///
//===----------------------------------------------------------------------===//

#ifndef GETAFIX_PERFBENCH_TRACE_H
#define GETAFIX_PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint64_t Rid = 0;    ///< Request (operation) id; inherited from the parent.
  uint32_t Tid = 0;    ///< Small per-thread index, not the OS thread id.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

class Tracer {
public:
  static Tracer &get();

  void enable() { On = true; }
  bool enabled() const { return On; }

  /// Opens a span on the calling thread and returns its id. Spans close
  /// in LIFO order per thread (`Span` guarantees it).
  uint64_t begin(std::string Name, uint64_t Rid);
  void end();

  size_t spanCount() const;
  /// Summed duration in milliseconds of the spans named exactly \p Name
  /// or starting with \p Name followed by a space.
  double sumMs(const std::string &Name) const;
  /// Self time per layer in milliseconds: each span's duration minus the
  /// time covered by its child spans, summed by the name's layer prefix.
  std::map<std::string, double> selfMsByLayer() const;
  /// Writes every span as Chrome trace-event JSON. False on I/O error.
  bool writeChromeJson(const std::string &Path) const;

  /// Cost of one begin/end pair in nanoseconds, measured on a separate
  /// tracer so the recorded spans are left untouched.
  static double calibrateSpanNs();

private:
  bool On = false;
  std::atomic<uint64_t> NextId{1};
  mutable std::mutex Mu; ///< Guards Done.
  std::vector<SpanRecord> Done;
};

/// RAII span on the global tracer.
class Span {
public:
  explicit Span(const char *Name, uint64_t Rid = 0) {
    if (Tracer::get().enabled())
      Id = Tracer::get().begin(Name, Rid);
  }
  Span(const std::string &Name, uint64_t Rid = 0) {
    if (Tracer::get().enabled())
      Id = Tracer::get().begin(Name, Rid);
  }
  ~Span() {
    if (Id)
      Tracer::get().end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  uint64_t Id = 0;
};

} // namespace perfbench

#endif // GETAFIX_PERFBENCH_TRACE_H
