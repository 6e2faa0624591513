// Harness arithmetic shared by every workload: clocks, order statistics,
// the tail-percentile rule, in-memory spans with self-time folding, and
// the report printed at the end of a run.
//
// Nothing here touches the sramlp library, so the arithmetic is unit-tested
// on its own (selftest.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since @p start.
double seconds_since(Clock::time_point start);

/// Nearest-rank percentile (p in (0, 100]) of @p samples; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Median with the midpoint rule for even counts; 0 when empty.
double median(std::vector<double> samples);

/// CPU time consumed so far by all threads of this process [s], in user
/// space (the program's own code) and in the kernel on its behalf.
struct CpuTimes {
  double user_s = 0.0;
  double sys_s = 0.0;
};
CpuTimes process_cpu_times();

/// One pass of a closed loop, or a window of consecutive passes: the
/// items completed, the wall time, and the process CPU time taken.
struct PassSample {
  double items = 0.0;
  double seconds = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
};
using Window = PassSample;

/// Consecutive passes grouped into windows of at least @p window_s wall
/// time (a short tail joins the last window).
std::vector<Window> group_windows(const std::vector<PassSample>& passes,
                                  double window_s);

/// Median over @p windows of a per-window figure (windows without items
/// are skipped).  A median keeps a transient stall of the host from
/// moving the result.
double window_median(const std::vector<Window>& windows,
                     double (*figure)(const Window&));

/// Per-window figures: items per wall second, and user / kernel CPU
/// milliseconds per item.
double rate_of(const Window& w);
double user_ms_per_item(const Window& w);
double sys_ms_per_item(const Window& w);

/// The tail percentile a timing is reported at: the highest rung of
/// {99.9, 99, 95, 90, 75, 50} whose nearest-rank value has at least
/// @p min_beyond samples strictly above its rank.  `percentile` is 0 when
/// no rung qualifies (too few samples to resolve any tail).
struct TailChoice {
  double percentile = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
TailChoice choose_tail(std::size_t samples, std::size_t min_beyond = 10);

/// One recorded span: a call into a layer made from the benchmark's own
/// code.  Times are nanoseconds since the recorder's epoch.
struct Span {
  std::string name;
  std::string layer;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  std::uint64_t item = 0;    ///< work-item id (job, pass, point, restart)
  bool wait = false;         ///< time spent waiting on the layer, not in it
  bool failed = false;
};

/// In-memory span recorder.  Spans are opened and closed from one thread
/// (the workload's driving thread); nesting follows open/close order.
/// When disabled every call is a no-op and begin() returns -1.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  std::int64_t begin(const std::string& name, const std::string& layer,
                     std::uint64_t item = 0, bool wait = false);
  void end(std::int64_t id, bool failed = false);

  /// Record a finished interval directly (measured by other means, e.g. a
  /// callback timestamp).  Its parent is the innermost open span.
  void add(const std::string& name, const std::string& layer,
           Clock::time_point start, Clock::time_point end,
           std::uint64_t item = 0, bool wait = false);

  /// Count a useful outcome out of @p attempts for @p layer (the folded
  /// table's useful ratio).
  void count_useful(const std::string& layer, std::uint64_t useful,
                    std::uint64_t attempts);

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

  struct Useful {
    std::uint64_t useful = 0;
    std::uint64_t attempts = 0;
  };
  const std::map<std::string, Useful>& useful() const { return useful_; }

 private:
  std::uint64_t to_ns(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
  std::map<std::string, Useful> useful_;
};

/// RAII span: begin() on construction, end() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name,
             const std::string& layer, std::uint64_t item = 0)
      : recorder_(recorder), id_(recorder.begin(name, layer, item)) {}
  ~ScopedSpan() { recorder_.end(id_, failed_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void fail() { failed_ = true; }

 private:
  SpanRecorder& recorder_;
  std::int64_t id_;
  bool failed_ = false;
};

/// Self time of span @p index: its duration minus the union of its direct
/// children's intervals clipped to it (overlapping children count once).
std::uint64_t self_ns(const std::vector<Span>& spans, std::size_t index);

/// One row of the per-layer table.
struct LayerRow {
  std::string layer;
  std::size_t count = 0;       ///< busy spans
  double busy_ms = 0.0;        ///< sum of self times of busy spans
  double wait_ms = 0.0;        ///< sum of wait-span durations
  std::size_t failed = 0;
  std::uint64_t useful = 0;
  std::uint64_t attempts = 0;
};
std::vector<LayerRow> fold_layers(const SpanRecorder& recorder);

/// The numbers one run prints.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric printed in the human-readable lines only (not in the final
  /// JSON object), e.g. figures that apply to one workload alone.
  void note(const std::string& name, double value, const std::string& unit);
  void line(const std::string& text) { lines_.push_back(text); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  /// Print the human-readable lines, then the single-line JSON result with
  /// exactly the metrics named in @p required (throws if one is missing).
  void print(const std::vector<std::string>& required) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<std::pair<std::string, Entry>> notes_;
  std::vector<std::string> lines_;
};

/// Peak resident set size of this process so far [MiB].
double peak_rss_mib();

/// FNV-1a 64 over @p text (document and input digests).
std::uint64_t fnv1a(const std::string& text);

}  // namespace perfbench
