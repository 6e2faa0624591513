#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

namespace {

/// 1-based nearest rank of percentile @p p among @p n samples, computed in
/// thousandths so that e.g. p99.9 of 1000 samples is exactly rank 999
/// (a floating-point ceil would round 999.0000000000001 up to 1000).
std::size_t nearest_rank(double p, std::size_t n) {
  const auto permille = static_cast<std::size_t>(std::lround(p * 10.0));
  return std::max<std::size_t>(1, (permille * n + 999) / 1000);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[std::min(samples.size(), nearest_rank(p, samples.size())) - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

CpuTimes process_cpu_times() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return CpuTimes{seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

std::vector<Window> group_windows(const std::vector<PassSample>& passes,
                                  double window_s) {
  const auto add = [](Window& to, const PassSample& p) {
    to.items += p.items;
    to.seconds += p.seconds;
    to.user_s += p.user_s;
    to.sys_s += p.sys_s;
  };
  std::vector<Window> windows;
  Window open;
  for (const PassSample& p : passes) {
    add(open, p);
    if (open.seconds >= window_s) {
      windows.push_back(open);
      open = Window{};
    }
  }
  if (open.seconds > 0.0) {
    if (windows.empty()) {
      windows.push_back(open);
    } else {
      add(windows.back(), open);
    }
  }
  return windows;
}

double window_median(const std::vector<Window>& windows,
                     double (*figure)(const Window&)) {
  std::vector<double> values;
  for (const Window& w : windows)
    if (w.items > 0.0 && w.seconds > 0.0) values.push_back(figure(w));
  return median(values);
}

double rate_of(const Window& w) { return w.items / w.seconds; }
double user_ms_per_item(const Window& w) { return 1e3 * w.user_s / w.items; }
double sys_ms_per_item(const Window& w) { return 1e3 * w.sys_s / w.items; }

TailChoice choose_tail(std::size_t samples, std::size_t min_beyond) {
  static const double kRungs[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  TailChoice choice;
  choice.samples = samples;
  for (const double p : kRungs) {
    const std::size_t beyond =
        samples - std::min(samples, nearest_rank(p, samples));
    if (samples > 0 && beyond >= min_beyond) {
      choice.percentile = p;
      choice.beyond = beyond;
      return choice;
    }
  }
  return choice;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now()) {}

std::uint64_t SpanRecorder::to_ns(Clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

std::int64_t SpanRecorder::begin(const std::string& name,
                                 const std::string& layer, std::uint64_t item,
                                 bool wait) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = to_ns(Clock::now());
  span.parent = open_.empty() ? -1 : open_.back();
  span.item = item;
  span.wait = wait;
  spans_.push_back(std::move(span));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(std::int64_t id, bool failed) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = to_ns(Clock::now());
  span.failed = failed;
  // Spans close innermost first; tolerate an out-of-order close by
  // removing the id wherever it sits.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void SpanRecorder::add(const std::string& name, const std::string& layer,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t item, bool wait) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = to_ns(start);
  span.end_ns = std::max(span.start_ns, to_ns(end));
  span.parent = open_.empty() ? -1 : open_.back();
  span.item = item;
  span.wait = wait;
  spans_.push_back(std::move(span));
}

void SpanRecorder::count_useful(const std::string& layer, std::uint64_t useful,
                                std::uint64_t attempts) {
  if (!enabled_) return;
  Useful& u = useful_[layer];
  u.useful += useful;
  u.attempts += attempts;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"item\":" << s.item
        << ",\"wait\":" << (s.wait ? "true" : "false")
        << ",\"failed\":" << (s.failed ? "true" : "false") << "}\n";
  }
}

std::uint64_t self_ns(const std::vector<Span>& spans, std::size_t index) {
  const Span& parent = spans[index];
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cover;
  for (const Span& s : spans) {
    if (s.parent != static_cast<std::int64_t>(index)) continue;
    const std::uint64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) cover.emplace_back(lo, hi);
  }
  std::sort(cover.begin(), cover.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = 0;  // end of the union so far
  for (const auto& [lo, hi] : cover) {
    const std::uint64_t from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  const std::uint64_t total = parent.end_ns - parent.start_ns;
  return total - std::min(total, covered);
}

std::vector<LayerRow> fold_layers(const SpanRecorder& recorder) {
  std::map<std::string, LayerRow> rows;
  const std::vector<Span>& spans = recorder.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerRow& row = rows[s.layer];
    row.layer = s.layer;
    if (s.wait) {
      row.wait_ms += 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
    } else {
      ++row.count;
      row.busy_ms += 1e-6 * static_cast<double>(self_ns(spans, i));
    }
    if (s.failed) ++row.failed;
  }
  for (const auto& [layer, u] : recorder.useful()) {
    LayerRow& row = rows[layer];
    row.layer = layer;
    row.useful += u.useful;
    row.attempts += u.attempts;
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) out.push_back(row);
  return out;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Entry{value, unit};
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  notes_.emplace_back(name, Entry{value, unit});
}

void Report::print(const std::vector<std::string>& required) const {
  for (const std::string& l : lines_) std::printf("%s\n", l.c_str());
  for (const auto& [name, e] : notes_)
    std::printf("  %-34s %.17g %s\n", name.c_str(), e.value, e.unit.c_str());
  for (const auto& [name, e] : metrics_)
    std::printf("  %-34s %.17g %s\n", name.c_str(), e.value, e.unit.c_str());
  std::printf("  %-34s %llu of %llu\n", "failed/attempted",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : required) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end())
      throw std::runtime_error("metric '" + name + "' was not measured");
    if (!std::isfinite(it->second.value))
      throw std::runtime_error("metric '" + name + "' is not finite");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", it->second.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            it->second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
