// Tests of the benchmark harness's own arithmetic: the tail-percentile
// rule, nearest-rank percentiles, the windowed medians, span self time,
// the per-layer fold, and generator determinism.  Run by `ctest` in the
// benchmark's build directory and by `python3 perfbench/run.py --selftest`.
#include <cstdio>
#include <string>
#include <vector>

#include "dist/job.h"
#include "harness.h"
#include "inputs.h"

namespace {

using namespace perfbench;

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ++failures;                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
    }                                                                \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  CHECK(percentile(one_to(100), 50) == 50);
  CHECK(percentile(one_to(100), 95) == 95);
  CHECK(percentile(one_to(1000), 99.9) == 999);  // not 1000
  CHECK(percentile(one_to(7), 95) == 7);
  CHECK(percentile({}, 50) == 0);
  CHECK(median(one_to(4)) == 2.5);
  CHECK(median(one_to(5)) == 3);
}

void test_windows() {
  // Windows of >= 2 s group pairs; the odd tail joins the last window.
  const std::vector<PassSample> passes = {{2, 1, 0.5, 0.25},
                                          {2, 1, 0.5, 0.25},
                                          {6, 1, 3.0, 0.5},
                                          {2, 1, 1.0, 0.5},
                                          {4, 1, 2.0, 0.5}};
  const std::vector<Window> w = group_windows(passes, 2.0);
  CHECK(w.size() == 2);
  CHECK(w[0].items == 4 && w[0].seconds == 2);
  CHECK(w[0].user_s == 1 && w[0].sys_s == 0.5);
  CHECK(w[1].items == 12 && w[1].seconds == 3);
  CHECK(w[1].user_s == 6 && w[1].sys_s == 1.5);
  CHECK(window_median(w, rate_of) == 3.0);              // {2, 4}
  CHECK(window_median(w, user_ms_per_item) == 375.0);  // {250, 500} ms
  CHECK(window_median(w, sys_ms_per_item) == 125.0);   // {125, 125} ms
  const std::vector<Window> one = group_windows({{3, 0.5, 0.3, 0.0}}, 10.0);
  CHECK(one.size() == 1 && window_median(one, rate_of) == 6.0);
  CHECK(window_median(one, user_ms_per_item) == 100.0);
  CHECK(group_windows({}, 1.0).empty());
  CHECK(window_median({}, rate_of) == 0.0);

  // Nine 1-s windows of 1 item, one stalled ten times as long: the medians
  // ignore it.
  std::vector<PassSample> stalled(9, PassSample{1.0, 1.0, 0.5, 0.1});
  stalled[4] = PassSample{1.0, 10.0, 5.0, 1.0};
  const std::vector<Window> s9 = group_windows(stalled, 1.0);
  CHECK(window_median(s9, rate_of) == 1.0);
  CHECK(window_median(s9, user_ms_per_item) == 500.0);
}

void test_tail_choice() {
  // The highest rung with at least ten samples strictly beyond its rank.
  TailChoice t = choose_tail(1000);
  CHECK(t.percentile == 99.0 && t.beyond == 10 && t.samples == 1000);
  t = choose_tail(999);
  CHECK(t.percentile == 95.0 && t.beyond == 49);
  t = choose_tail(200);
  CHECK(t.percentile == 95.0 && t.beyond == 10);
  t = choose_tail(10000);
  CHECK(t.percentile == 99.9 && t.beyond == 10);
  t = choose_tail(20);
  CHECK(t.percentile == 50.0 && t.beyond == 10);
  t = choose_tail(19);  // too few for any rung
  CHECK(t.percentile == 0.0 && t.beyond == 0);
  t = choose_tail(0);
  CHECK(t.percentile == 0.0);
}

Span span(std::uint64_t start, std::uint64_t end, std::int64_t parent,
          const std::string& layer = "x", bool wait = false) {
  Span s;
  s.name = layer;
  s.layer = layer;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.wait = wait;
  return s;
}

void test_self_time() {
  std::vector<Span> spans = {
      span(0, 100, -1),   // 0: parent
      span(10, 30, 0),    // 1: child
      span(20, 40, 0),    // 2: child overlapping 1 -> [10, 40) counted once
      span(90, 120, 0),   // 3: child running past the parent -> [90, 100)
      span(12, 14, 1),    // 4: grandchild: not a direct child of 0
      span(50, 60, -1),   // 5: another root, inside 0's interval
  };
  CHECK(self_ns(spans, 0) == 60);
  CHECK(self_ns(spans, 1) == 18);
  CHECK(self_ns(spans, 3) == 30);
  // Children covering the whole parent leave no self time.
  std::vector<Span> covered = {span(0, 10, -1), span(0, 6, 0),
                               span(5, 10, 0)};
  CHECK(self_ns(covered, 0) == 0);
}

void test_recorder_and_fold() {
  SpanRecorder off(false);
  CHECK(off.begin("a", "core") == -1);
  off.end(-1);
  CHECK(off.spans().empty());

  SpanRecorder rec(true);
  const std::int64_t outer = rec.begin("outer", "core", 7);
  const std::int64_t inner = rec.begin("inner", "engine", 7);
  rec.end(inner);
  const Clock::time_point now = Clock::now();
  rec.add("waiting", "dist", now, now, 7, /*wait=*/true);
  rec.end(outer, /*failed=*/true);
  rec.count_useful("dist", 3, 4);
  CHECK(rec.spans().size() == 3);
  CHECK(rec.spans()[1].parent == outer);
  CHECK(rec.spans()[2].parent == outer);
  CHECK(rec.spans()[0].item == 7);
  const std::vector<LayerRow> rows = fold_layers(rec);
  CHECK(rows.size() == 3);
  for (const LayerRow& row : rows) {
    if (row.layer == "core") CHECK(row.count == 1 && row.failed == 1);
    if (row.layer == "engine") CHECK(row.count == 1 && row.failed == 0);
    if (row.layer == "dist")
      CHECK(row.count == 0 && row.useful == 3 && row.attempts == 4);
  }
}

void test_generator_determinism() {
  for (const char* w :
       {"prr_sweep", "fault_campaign", "service_stream", "schedule_search"}) {
    CHECK(inputs_digest(w, 7) == inputs_digest(w, 7));
  }
  CHECK(inputs_digest("service_stream", 7) !=
        inputs_digest("service_stream", 8));
  CHECK(inputs_digest("fault_campaign", 7) !=
        inputs_digest("fault_campaign", 8));
  CHECK(inputs_digest("schedule_search", 7) !=
        inputs_digest("schedule_search", 8));
  CHECK(derive_seed(7, "a") != derive_seed(7, "b"));

  // Every block of 20 jobs has the same mix, and a resubmission repeats
  // its original byte for byte.
  JobStream stream(7);
  std::vector<std::string> text;
  std::size_t sweeps = 0, campaigns = 0, searches = 0, resubmits = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const JobStream::Job job = stream.next();
    CHECK(job.id == i);
    text.push_back(sramlp::dist::to_json(job.spec).dump());
    if (job.resubmission()) {
      ++resubmits;
      CHECK(job.original < job.id);
      CHECK(text[job.original] == text.back());
      continue;
    }
    if (i % JobStream::kBlock == 0)
      CHECK(job.spec.kind == sramlp::dist::JobSpec::Kind::kSweep);
    switch (job.spec.kind) {
      case sramlp::dist::JobSpec::Kind::kSweep: ++sweeps; break;
      case sramlp::dist::JobSpec::Kind::kCampaign: ++campaigns; break;
      case sramlp::dist::JobSpec::Kind::kSearch: ++searches; break;
    }
  }
  CHECK(sweeps == 130 && campaigns == 10 && searches == 10 &&
        resubmits == 50);
}

}  // namespace

int main() {
  test_percentiles();
  test_tail_choice();
  test_windows();
  test_self_time();
  test_recorder_and_fold();
  test_generator_determinism();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
