// Measurement primitives of the benchmark: a constant-memory latency
// histogram whose tail percentiles refuse to answer on too few samples,
// steady-state figures pooled over a run's windows, an in-memory span
// log with per-name aggregation, and the ok/failed accounting behind
// `ok_ratio`.
//
// Header-only and free of libscript, so the harness self-tests
// (tests/selftest.cpp) compile it alone.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of `v` (mean of the middle pair for even sizes); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Log-linear histogram of non-negative integers (nanoseconds): 128
/// sub-buckets per power of two, so a reported quantile is within 0.8%
/// of the true sample. Memory is constant, so a long run's peak RSS
/// reflects the workload rather than the sample store.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr int kMaxExp = 48;  // values up to ~78 hours in ns

  void add(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }
  std::uint64_t count() const { return n_; }

  /// Non-empty buckets only: a compact copy to keep per window.
  using Sparse = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  Sparse sparse() const {
    Sparse out;
    for (std::size_t i = 0; i < counts_.size(); ++i)
      if (counts_[i] != 0)
        out.emplace_back(static_cast<std::uint32_t>(i), counts_[i]);
    return out;
  }
  void add_sparse(const Sparse& s) {
    for (const auto& [i, c] : s) {
      counts_[i] += c;
      n_ += c;
    }
  }

  /// Samples ranked strictly above the q-quantile's rank ceil(q*n).
  std::uint64_t beyond(double q) const {
    return n_ - rank(q);
  }

  /// The q-quantile (nearest rank), or nullopt when fewer than
  /// `min_beyond` samples lie beyond it: a tail percentile resting on
  /// a handful of samples is noise, so it is refused, not reported.
  std::optional<double> quantile(double q, std::uint64_t min_beyond = 0) const {
    if (n_ == 0 || beyond(q) < min_beyond) return std::nullopt;
    const std::uint64_t r = std::max<std::uint64_t>(rank(q), 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= r) return midpoint(i);
    }
    return midpoint(counts_.size() - 1);
  }

 private:
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kSubBits + 1) * kSub;

  std::uint64_t rank(double q) const {
    return static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n_) - 1e-9));
  }
  // Values below kSub get exact buckets; above, the top kSubBits bits
  // after the leading one pick the sub-bucket of their power of two.
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    if (msb >= kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (v >> shift) & (kSub - 1);
    return static_cast<std::size_t>(shift + 1) * kSub + sub;
  }
  static double midpoint(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = i / kSub - 1;
    const std::uint64_t lo = (kSub | (i % kSub)) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

/// One measured window (a workload episode's run): ops done, wall and
/// CPU time, and the per-op latencies it recorded.
struct Window {
  double ops = 0;
  double seconds = 0;
  double cpu_seconds = 0;
  double setup_seconds = 0;  // the episode's set-up before the window
  Histogram::Sparse latency;
};

/// A run's steady-state figures, pooled over its least-disturbed windows.
struct Steady {
  double ops_per_s = 0;
  double cpu_us_per_op = 0;
  double setup_s = 0;  // median of the fastest set-ups (see steady_state)
  Histogram latency_ns;
  std::size_t windows = 0;  // windows pooled
};

/// Pool the fastest `frac` of a closed-loop run's windows, ranked by
/// rate (at least one; frac = 1 pools them all). On a shared host the
/// rate of one window moves between levels far apart for seconds at a
/// time as other tenants load the machine; the fastest windows are the
/// program's own speed, while a whole-run mean or median follows the
/// share of time the neighbours were busy. Rate and CPU per op are
/// pooled (total ops over total time). Set-up time is ranked on its own,
/// over every window: the median of the fastest `frac` of the set-ups.
inline Steady steady_state(std::vector<Window> windows, double frac) {
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.ops * b.seconds > b.ops * a.seconds;
            });
  const auto want = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(frac * static_cast<double>(windows.size()))));
  Steady out;
  double ops = 0, secs = 0, cpu = 0;
  std::vector<double> setups;
  for (const Window& w : windows) {
    setups.push_back(w.setup_seconds);
    if (out.windows >= want) continue;
    ops += w.ops;
    secs += w.seconds;
    cpu += w.cpu_seconds;
    out.latency_ns.add_sparse(w.latency);
    ++out.windows;
  }
  if (secs > 0) out.ops_per_s = ops / secs;
  if (ops > 0) out.cpu_us_per_op = cpu * 1e6 / ops;
  std::sort(setups.begin(), setups.end());
  setups.resize(std::min(setups.size(), want));
  out.setup_s = median(setups);
  return out;
}

/// One timed call the benchmark made into a layer.
struct Span {
  std::uint16_t name = 0;   // id from SpanLog::name_id()
  std::uint32_t fiber = 0;  // the calling fiber
  std::uint64_t op = 0;     // the op (message/performance/txn) it served
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Per-name aggregate of a span log.
struct SpanStats {
  std::uint64_t calls = 0;
  std::optional<double> p50_us;
  std::optional<double> p99_us;  // refused below 10 samples beyond it
};

/// In-memory span store. Span names are registered once with their
/// layer. Every recorded span feeds its name's duration histogram, so
/// calls and percentiles cover all of them; the raw spans kept for the
/// dump are capped per name (the first `cap_per_name`), the rest counted.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap_per_name = 50'000) : cap_(cap_per_name) {}

  std::uint16_t name_id(const std::string& name, const std::string& layer) {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return static_cast<std::uint16_t>(i);
    names_.push_back(name);
    layers_.push_back(layer);
    durations_.emplace_back();
    return static_cast<std::uint16_t>(names_.size() - 1);
  }
  void record(const Span& s) {
    Histogram& h = durations_[s.name];
    if (h.count() < cap_)
      spans_.push_back(s);
    else
      ++dropped_;
    h.add(s.end_ns - s.start_ns);
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& layers() const { return layers_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Calls and p50/p99 of duration per registered name.
  std::map<std::string, SpanStats> aggregate() const {
    std::map<std::string, SpanStats> out;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const Histogram& h = durations_[i];
      SpanStats st;
      st.calls = h.count();
      if (auto v = h.quantile(0.50)) st.p50_us = *v / 1000.0;
      if (auto v = h.quantile(0.99, 10)) st.p99_us = *v / 1000.0;
      out[names_[i]] = st;
    }
    return out;
  }

  /// CSV dump of the kept spans: name,layer,fiber,op,start_ns,end_ns
  /// (relative to the earliest start).
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
    std::fprintf(f, "name,layer,fiber,op,start_ns,end_ns\n");
    for (const Span& s : spans_)
      std::fprintf(f, "%s,%s,%u,%llu,%llu,%llu\n", names_[s.name].c_str(),
                   layers_[s.name].c_str(), s.fiber,
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.start_ns - t0),
                   static_cast<unsigned long long>(s.end_ns - t0));
    return std::fclose(f) == 0;
  }

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::string> layers_;
  std::vector<Histogram> durations_;  // per name
  std::uint64_t dropped_ = 0;
};

/// How one op ended. Ok and Denied are correct outcomes (a lock denial
/// is the lock DB doing its job); everything else counts as failed. A
/// WireDriver request that times out surfaces as Degraded: the driver
/// declares the silent replica dead.
enum class Outcome {
  Ok,
  Denied,
  WrongValue,
  Deadlock,
  Refused,
  Degraded,
  FingerprintMismatch,
};

class OkTally {
 public:
  void add(Outcome o, std::uint64_t n = 1) {
    attempted_ += n;
    if (o == Outcome::Denied) denied_ += n;
    if (o != Outcome::Ok && o != Outcome::Denied) failed_ += n;
  }
  /// Re-classify `n` ops already counted as correct, when a check made
  /// after the run (replica digests, commit counts) fails.
  void demote(std::uint64_t n) {
    failed_ = std::min(attempted_, failed_ + n);
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t denied() const { return denied_; }
  double ok_ratio() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t denied_ = 0;
};

}  // namespace perfbench
