#pragma once

// Shared declarations of the repo benchmark ("ledger"). One invocation runs
// one named workload; see README.md for the workloads, the metrics and why
// each workload was chosen.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ledger {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;     ///< measurement budget of the untraced pass
  bool trace = false;      ///< per-layer run: untraced pass + traced pass
  std::string trace_path;  ///< Chrome trace-event output of the traced pass
  std::string commit;      ///< source identity printed in the run record
};

/// Samples of one metric, with its unit.
struct Series {
  std::string unit;
  std::vector<double> samples;
};

/// Whether a counter repeats exactly for a given seed or depends on thread
/// interleaving (trended only).
enum class CounterClass { kDeterministic, kTiming };

/// What one pass of a workload measured.
class Report {
 public:
  /// Append one sample of `name`.
  void Add(const std::string& name, const std::string& unit, double value);
  /// A per-layer value (counter, ratio or derived time) of the pass.
  void Layer(const std::string& name, const std::string& unit, double value,
             CounterClass cls = CounterClass::kDeterministic);

  /// One operation attempted (a train, a request, a once-per-run gate).
  void Attempt() { attempted_.fetch_add(1); }
  /// One operation failed: it threw, or its output failed a gate.
  void Fail(const std::string& what);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> failures() const;

  double Median(const std::string& name) const;
  bool Has(const std::string& name) const { return series_.count(name) > 0; }
  const Series& series(const std::string& name) const {
    return series_.at(name);
  }
  const std::map<std::string, CounterClass>& classes() const {
    return classes_;
  }

  /// Free-form run-record lines ("key=value"), printed before the metrics.
  std::vector<std::string> notes;

 private:
  std::map<std::string, Series> series_;
  std::map<std::string, CounterClass> classes_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex fail_mu_;
  std::vector<std::string> failures_;
};

/// Spans around the benchmark's own calls into each layer. A Scope always
/// measures its duration; it records a span only when the tracer is enabled,
/// so traced and untraced passes run the same code. Spans stay in memory and
/// are written out once, as Chrome trace-event JSON.
class Tracer {
 public:
  struct Span {
    std::string layer;  ///< module the call enters (core, exec, serve, ...)
    std::string name;   ///< entry point called
    double start_us = 0;
    double end_us = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< enclosing span on the same thread, 0 = none
    uint64_t flow = 0;    ///< shared by the spans of one train or request
    int tid = 0;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// A fresh id for the spans of one train or request.
  uint64_t NewFlow() { return next_flow_.fetch_add(1); }
  /// Label the calling thread in the trace viewer.
  void NameThread(const std::string& name);

  class Scope {
   public:
    Scope(Tracer* tracer, const char* layer, const char* name, uint64_t flow);
    ~Scope() { Stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// End the span (idempotent); returns its duration in seconds.
    double Stop();

   private:
    Tracer* tracer_;
    const char* layer_;
    const char* name_;
    uint64_t flow_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    std::chrono::steady_clock::time_point start_;
    double seconds_ = -1;
  };

  std::vector<Span> spans() const;
  /// Write every span as Chrome trace-event JSON (opens in Perfetto and
  /// chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  double SinceOriginUs(std::chrono::steady_clock::time_point t) const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> next_flow_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<int, std::string> thread_names_;
};

/// Process CPU seconds, all threads.
double CpuSeconds();
/// Peak resident set of this process image (VmHWM), in MB; NaN when
/// /proc/self/status cannot be read.
double PeakRssMb();
/// Restart the VmHWM high-water mark at the current resident set; false
/// when /proc/self/clear_refs cannot be written (the mark then keeps
/// counting from process start).
bool ResetPeakRss();
/// q-quantile (0..1) of `v` by linear interpolation; NaN when empty.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Run one pass of `opts.workload` (one of WorkloadNames()) into `report`.
void RunWorkload(const Options& opts, Tracer* tracer, Report* report);

/// Names of the workloads RunWorkload accepts.
std::vector<std::string> WorkloadNames();

}  // namespace ledger
