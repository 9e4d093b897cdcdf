// Self-tests of the benchmark harness (src/harness.hpp): the rules the
// reported numbers rest on. Run with `python3 perfbench/run.py
// --self-test`; exits non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::fabs(b);
}

using namespace perfbench;

void p99_needs_ten_samples_beyond_it() {
  Histogram h;
  for (int i = 1; i <= 999; ++i) h.add(static_cast<std::uint64_t>(i));
  check(h.beyond(0.99) == 9, "999 samples leave 9 beyond p99");
  check(!h.quantile(0.99, 10).has_value(), "p99 refused with 9 beyond it");
  check(h.quantile(0.50, 10).has_value(), "p50 still reported");
  h.add(1000);
  check(h.beyond(0.99) == 10, "1000 samples leave 10 beyond p99");
  const auto p99 = h.quantile(0.99, 10);
  check(p99.has_value() && near(*p99, 990, 0.008), "p99 of 1..1000 is 990");
}

void quantiles_are_within_bucket_precision() {
  Histogram h;
  for (std::uint64_t v = 1000; v < 1'001'000; v += 10) h.add(v);
  check(near(*h.quantile(0.5), 501'000, 0.008), "p50 within 0.8%");
  check(near(*h.quantile(0.99, 10), 990'010, 0.008), "p99 within 0.8%");
  Histogram a, b;
  a.add(5);
  a.add(7);
  a.add(7);
  b.add_sparse(a.sparse());
  check(a.sparse().size() == 2 && b.count() == 3 && *b.quantile(1.0) == 7.0,
        "the sparse copy keeps every sample");
}

Window window(double ops, double seconds, std::uint64_t latency_ns,
              double setup_seconds = 0.01) {
  Histogram h;
  for (int i = 0; i < static_cast<int>(ops); ++i) h.add(latency_ns);
  return {ops, seconds, seconds / 2, setup_seconds, h.sparse()};
}

void steady_state_pools_the_fastest_windows() {
  // Eight windows while a neighbour loads the host, two without. The
  // set-ups are slow in the fast windows and fast in two slow ones.
  std::vector<Window> w;
  for (const double setup : {0.004, 0.006, 0.02, 0.03})
    w.push_back(window(100, 1.0, 2000, setup));
  w.push_back(window(160, 1.0, 1000, 0.05));
  for (int i = 0; i < 4; ++i) w.push_back(window(100, 1.0, 2000));
  w.push_back(window(160, 1.0, 1000, 0.05));
  const Steady s = steady_state(w, 0.2);
  check(s.windows == 2 && s.ops_per_s == 160.0,
        "the fastest fifth of the windows is pooled");
  check(near(*s.latency_ns.quantile(0.5), 1000, 0.008) &&
            s.latency_ns.count() == 320,
        "latency comes from the pooled windows only");
  check(near(s.cpu_us_per_op, 0.5e6 / 160, 1e-12), "CPU per op is pooled");
  check(near(s.setup_s, 0.005, 1e-12),
        "set-up is ranked on its own: the median of the fastest fifth");
  const Steady all = steady_state(w, 1.0);
  check(near(all.setup_s, 0.01, 1e-12), "frac 1 gives the median set-up");
  check(all.windows == 10 && all.latency_ns.count() == 1120,
        "frac 1 pools every window");
  check(near(all.ops_per_s, 1120.0 / 10.0, 1e-12),
        "pooled rate is total ops over total time");
  check(steady_state(w, 0.01).windows == 1, "at least one window is pooled");
  check(steady_state({}, 0.1).ops_per_s == 0.0, "no windows, no rate");
}

void spans_aggregate_per_name() {
  SpanLog log(2);
  const auto a = log.name_id("net.send", "csp.net");
  const auto b = log.name_id("lockdb.get", "lockdb");
  check(log.name_id("net.send", "csp.net") == a, "names register once");
  log.record({a, 1, 0, 0, 2000});
  log.record({a, 1, 1, 0, 4000});
  log.record({a, 2, 2, 0, 6000});
  log.record({b, 3, 0, 100, 1100});
  log.record({b, 3, 1, 100, 1100});
  log.record({b, 3, 2, 100, 1100});
  check(log.spans().size() == 4 && log.dropped() == 2,
        "raw spans are capped per name");
  const auto agg = log.aggregate();
  check(agg.at("net.send").calls == 3,
        "calls count every span, kept or not");
  check(near(*agg.at("net.send").p50_us, 4.0, 0.008),
        "p50 of 2/4/6 us is 4 us");
  check(!agg.at("net.send").p99_us.has_value(), "p99 refused on 3 calls");
  check(agg.at("lockdb.get").calls == 3 &&
            near(*agg.at("lockdb.get").p50_us, 1.0, 0.008),
        "second name aggregated separately");
  check(log.layers()[b] == "lockdb", "layer kept with the name");
}

void ok_ratio_accounting() {
  OkTally t;
  t.add(Outcome::Ok, 6);
  t.add(Outcome::Denied, 2);
  check(t.failed() == 0 && t.ok_ratio() == 1.0, "a lock denial counts as ok");
  check(t.denied() == 2, "denials are counted");
  t.add(Outcome::Deadlock, 2);
  check(t.failed() == 2 && t.ok_ratio() == 0.8, "a deadlock counts as failed");
  for (const Outcome o : {Outcome::WrongValue, Outcome::Refused,
                          Outcome::Degraded, Outcome::FingerprintMismatch}) {
    OkTally one;
    one.add(o);
    check(one.failed() == 1, "wrong/refused/degraded/mismatch ops fail");
  }
  OkTally ep;
  ep.add(Outcome::Ok, 10);
  ep.demote(4);
  check(ep.failed() == 4, "a failed post-run check demotes correct ops");
  ep.demote(50);
  check(ep.failed() == ep.attempted() && ep.ok_ratio() == 0.0,
        "demotion never exceeds attempts");
  OkTally pass;
  pass.add(Outcome::Ok, 10);
  pass.add(Outcome::FingerprintMismatch, 10);
  check(pass.ok_ratio() == 0.5,
        "an episode whose fingerprint differs counts as failed");
}

}  // namespace

int main() {
  p99_needs_ten_samples_beyond_it();
  quantiles_are_within_bucket_precision();
  steady_state_pools_the_fastest_windows();
  spans_aggregate_per_name();
  ok_ratio_accounting();
  std::printf("%s\n", failures == 0 ? "all harness self-tests passed"
                                    : "harness self-tests FAILED");
  return failures == 0 ? 0 : 1;
}
