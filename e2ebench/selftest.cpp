// Tests of the benchmark's own arithmetic (benchlib.hpp).  run.py runs
// this before every benchmark run and refuses to measure if it fails.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchlib.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_refusal() {
  using e2ebench::tail_percentile;
  // p90 of 1..100 is rank 90, with exactly ten samples beyond it.
  const auto p90 = tail_percentile(iota_samples(100), 0.9);
  check(p90.has_value() && near(*p90, 90.0), "p90 of 100 samples is the 90th value");
  check(!tail_percentile(iota_samples(99), 0.9).has_value(),
        "p90 of 99 samples is refused (only nine beyond rank 90)");
  check(!tail_percentile(iota_samples(20), 0.9).has_value(), "p90 of 20 samples is refused");
  check(!tail_percentile({}, 0.9).has_value(), "p90 of no samples is refused");
  const auto p99 = tail_percentile(iota_samples(1000), 0.99);
  check(p99.has_value() && near(*p99, 990.0), "p99 of 1000 samples is the 990th value");
  check(!tail_percentile(iota_samples(999), 0.99).has_value(), "p99 of 999 samples is refused");
  // Order of the input does not matter.
  std::vector<double> shuffled = iota_samples(100);
  std::swap(shuffled[0], shuffled[95]);
  check(near(*tail_percentile(shuffled, 0.9), 90.0), "percentile sorts its input");
  bool threw = false;
  try {
    (void)tail_percentile(iota_samples(100), 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "q = 0.5 is not a tail percentile");
}

void test_median_and_quartiles() {
  using e2ebench::median;
  using e2ebench::quartiles;
  check(near(median({3, 1, 2}), 2.0), "odd median");
  check(near(median({4, 1, 3, 2}), 2.5), "even median");
  // Reference values from Python: statistics.quantiles(range(1, 11), n=4)
  // == [2.75, 5.5, 8.25].
  const auto q10 = quartiles(iota_samples(10));
  check(near(q10.q1, 2.75) && near(q10.q2, 5.5) && near(q10.q3, 8.25), "quartiles of 1..10");
  check(near(q10.iqr(), 5.5), "iqr of 1..10");
  // statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
  const auto q5 = quartiles({16.0, 1.0, 8.0, 2.0, 4.0});
  check(near(q5.q1, 1.5) && near(q5.q2, 4.0) && near(q5.q3, 12.0), "quartiles of 5 samples");
  // statistics.quantiles([1.0, 5.0], n=4) == [0.0, 3.0, 6.0] (extrapolates)
  const auto q2 = quartiles({5.0, 1.0});
  check(near(q2.q1, 0.0) && near(q2.q2, 3.0) && near(q2.q3, 6.0), "quartiles of 2 samples");
  bool threw = false;
  try {
    (void)quartiles({1.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "quartiles of one sample are refused");
}

void test_self_time() {
  using e2ebench::Span;
  // root [0,100): child a [10,30), child b [20,50) overlapping a, child c
  // [90,120) sticking out; a has its own child [12,18).
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0}, {"a", 10, 30, 0, 0},    {"b", 20, 50, 0, 0},
      {"c", 90, 120, 0, 0},    {"a.x", 12, 18, 1, 0},  {"other", 0, 7, -1, 1},
  };
  const auto self = e2ebench::self_times_ns(spans);
  check(self[0] == 100 - 40 - 10, "root self time subtracts the union [10,50) + [90,100)");
  check(self[1] == 20 - 6, "nested child subtracts its own child");
  check(self[2] == 30, "leaf self time is its duration");
  check(self[3] == 30, "leaf sticking out of its parent keeps its full duration");
  check(self[4] == 6, "grandchild");
  check(self[5] == 7, "a root of another request is independent");
  // Children fully covered by an earlier child subtract nothing twice.
  const std::vector<Span> nested = {
      {"p", 0, 10, -1, 0}, {"w0", 0, 8, 0, 0}, {"w1", 1, 3, 0, 0}, {"w2", 2, 9, 0, 0}};
  check(e2ebench::self_times_ns(nested)[0] == 1, "parallel children are counted once");
}

void test_tracer() {
  e2ebench::Tracer off(false);
  {
    e2ebench::Scope s(off, "x", -1, 0);
    check(s.id() == -1, "disabled tracer hands out no ids");
  }
  check(off.spans().empty(), "disabled tracer records nothing");
  e2ebench::Tracer on(true);
  {
    e2ebench::Scope root(on, "root", -1, 7);
    e2ebench::Scope child(on, "child", root.id(), 7);
  }
  const auto spans = on.spans();
  check(spans.size() == 2 && spans[1].parent == 0 && spans[1].request == 7,
        "enabled tracer links child to parent and request");
  check(spans[0].end_ns >= spans[1].end_ns && spans[1].start_ns >= spans[0].start_ns,
        "child lies inside its parent");
}

void test_ledger() {
  e2ebench::Ledger ledger;
  check(ledger.failed_fraction() == 0.0, "empty ledger");
  const std::size_t a = ledger.add();
  const std::size_t b = ledger.add();
  ledger.add();
  ledger.add();
  ledger.fail(a, "valid != trials");
  ledger.fail(a, "digest differs");  // same request, second check
  check(ledger.failed() == 1 && ledger.attempted() == 4, "a request fails once");
  check(near(ledger.failed_fraction(), 0.25), "1 of 4 failed");
  ledger.fail(b, "error event");
  check(near(ledger.failed_fraction(), 0.5), "2 of 4 failed");
  check(ledger.reasons().size() == 3, "every reason is kept");
  bool threw = false;
  try {
    ledger.fail(99, "x");
  } catch (const std::out_of_range&) {
    threw = true;
  }
  check(threw, "failing an unknown request is an error");
}

}  // namespace

int main() {
  test_percentile_refusal();
  test_median_and_quartiles();
  test_self_time();
  test_tracer();
  test_ledger();
  if (failures != 0) {
    std::fprintf(stderr, "e2ebench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "e2ebench selftest: ok\n");
  return 0;
}
