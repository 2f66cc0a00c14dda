// Shared pieces of the repository benchmark: the clock, order statistics,
// process resource readings, and the in-memory span recorder behind the
// traced run.
#ifndef QPIBENCH_COMMON_H_
#define QPIBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qpibench {

/// Milliseconds on the steady clock the server stamps snapshots with
/// (qpi::MonotonicMs), so client receipt minus `server_ms` is a latency.
double NowMs();

/// Nearest-rank percentile (p in [0, 1]); NaN for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Whether `n` samples put at least ten beyond percentile `p`, the rule a
/// tail must meet before it is reported.
bool TailReportable(size_t n, double p);

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

using Metrics = std::map<std::string, Metric>;

/// Record a metric; non-finite values (no samples) are left out.
void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit, size_t samples);

/// Process CPU time (user + sys) in milliseconds.
double ProcessCpuMs();
/// Peak resident set size (VmHWM) and current RSS (VmRSS), in KiB.
double PeakRssKb();
double CurrentRssKb();

/// \brief One traced interval: a layer call made by the benchmark, or a
/// phase of a served query reconstructed from wire timestamps.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int64_t parent = -1;  ///< index into Tracer::spans(), -1 for a root
  uint64_t query = 0;   ///< served query id, 0 for in-process layer calls
  uint64_t units = 1;   ///< work items covered (rows, keys, calls)
  double duration_ms() const { return end_ms - start_ms; }
};

/// \brief In-memory span recorder. Spans nest through an explicit stack
/// (single-threaded: only the benchmark's driving thread records) and are
/// written out once, when the run ends.
class Tracer {
 public:
  /// Open a span under the innermost open one.
  void Begin(const std::string& name);
  /// Close the innermost open span, crediting it `units` work items.
  void End(uint64_t units = 1);
  /// Record a finished span with known endpoints.
  int64_t Add(const std::string& name, double start_ms, double end_ms,
              int64_t parent, uint64_t query = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations, and durations per unit, of every span called `name`, in
  /// recording order.
  std::vector<double> DurationsMs(const std::string& name) const;
  std::vector<double> PerUnitMs(const std::string& name) const;

  /// Self time of every span: its duration minus the union of its
  /// children's intervals.
  std::vector<double> SelfTimesMs() const;

  /// One JSON object per line: name, start, end, self, parent, query,
  /// units. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t units = 1)
      : tracer_(tracer), units_(units) {
    tracer_->Begin(name);
  }
  ~ScopedSpan() { tracer_->End(units_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint64_t units_;
};

}  // namespace qpibench

#endif  // QPIBENCH_COMMON_H_
