// perfbench — the steady single-threaded benchmark of libscript.
//
//   perfbench --workload <rendezvous_anon|lockdb_wire>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--commit <id>]
//
// --trace 0 measures the workload untraced and prints its end-to-end
// metrics; --trace 1 is the traced run that prints the per-layer
// metrics (see README.md). Human-readable lines come first; the last
// line of stdout is one JSON object {correct, attempted, failed,
// metrics}. Provenance and per-span dumps go under --out.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.hpp"
#include "ladder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// ---- Output ------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}}";
}

// ---- Provenance ---------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

// ---- Arguments -------------------------------------------------------------

struct Args {
  Workload workload = Workload::RendezvousAnon;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  std::string commit = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || a.seconds <= 0 || argc % 2 == 0) return std::nullopt;
  return a;
}

// ---- Shared pieces of both modes -------------------------------------

/// VmHWM of this process image. getrusage's ru_maxrss is not used: on
/// Linux it carries the peak of the pre-exec image (the launcher) over.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
    std::fclose(f);
    if (kib > 0) return kib / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Op latencies a run measures at least, so that p99 has at least ten
/// samples beyond it.
constexpr std::uint64_t kLatencySamples = 1000;

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const std::string& name, const std::string& unit, double v) {
    metrics.push_back({name, unit, v});
  }
  void absorb(const PassResult& p, const char* label) {
    attempted += p.tally.attempted();
    failed += p.tally.failed();
    for (const auto& e : p.errors) errors.push_back(std::string(label) + ": " + e);
  }
};

double p50_us(const Histogram& h) {
  return h.quantile(0.5).value_or(0) / 1000.0;
}

// ---- --trace 0: end-to-end ---------------------------------------------

void end_to_end(const Args& a, Report& rep) {
  const PassResult p = run_pass({.workload = a.workload,
                                 .seed = a.seed,
                                 .seconds = a.seconds,
                                 .min_samples = kLatencySamples});
  rep.absorb(p, workload_name(a.workload));
  // Rate, CPU and p50 pool the fastest 2% of the windows; set-up is
  // the median of the fastest 2% of all set-ups.
  // p99 is over every measured op: the tail's level, set by the host's
  // worst interference, repeats from run to run, while its value over
  // the fastest windows depends on how many quiet windows a run caught.
  const Steady st = p.steady();
  const Steady all = p.whole();
  const auto p99 = all.latency_ns.quantile(0.99, 10);
  if (!p99)
    rep.errors.push_back("op p99 refused: fewer than 10 samples beyond it");
  std::vector<double> rates;
  for (const Window& w : p.windows) rates.push_back(w.ops / w.seconds);
  std::sort(rates.begin(), rates.end());
  std::printf("%s: %zu episodes, fingerprint %s\n", workload_name(a.workload),
              p.episodes, p.fingerprint.str().c_str());
  std::printf("window ops/s: %zu windows, min %.1f, median %.1f, max %.1f; "
              "pooled the fastest %zu (%llu latency samples); p99 over %llu "
              "samples, %llu beyond it\n",
              rates.size(), rates.front(), median(rates), rates.back(),
              st.windows,
              static_cast<unsigned long long>(st.latency_ns.count()),
              static_cast<unsigned long long>(all.latency_ns.count()),
              static_cast<unsigned long long>(all.latency_ns.beyond(0.99)));
  rep.add("ops_per_s", "1/s", st.ops_per_s);
  rep.add("op_p50_us", "us", p50_us(st.latency_ns));
  rep.add("op_p99_us", "us", p99.value_or(0) / 1000.0);
  rep.add("cpu_us_per_op", "us", st.cpu_us_per_op);
  rep.add("ok_ratio", "ratio", p.tally.ok_ratio());
  rep.add("setup_s", "s", st.setup_s);
  rep.add("peak_rss_mib", "MiB", peak_rss_mib());
}

// ---- --trace 1: per layer --------------------------------------------------

/// Span name -> metric stem, with whether its p99 is reported (a span
/// made once per performance has too few samples in a traced slice).
struct SpanMetric {
  const char* span;
  const char* stem;
  bool p99;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"net.send", "csp.net.send_call", true},
    {"net.recv_any", "csp.net.recv_any_call", true},
    {"star.send", "script.star_send_call", false},
    {"star.receive", "script.star_receive_call", true},
    {"lockdb.acquire", "lockdb.acquire_call", true},
    {"lockdb.get", "lockdb.get_call", true},
    {"lockdb.update", "lockdb.update_call", true},
    {"lockdb.release", "lockdb.release_call", true},
    {"lockdb.read_txn", "lockdb.read_txn", true},
    {"lockdb.write_txn", "lockdb.write_txn", true},
};

/// Σ(count per op × rung cost) / CPU per op: how much of a workload's
/// cost the ladder accounts for (the ROADMAP's "adds up" check). Only
/// rungs below the workload are summed: the p128 rung is rendezvous_anon
/// itself timed bare, so it would explain that workload by construction.
double explained_ratio(Workload w, const Counters& c,
                       const std::vector<Rung>& ladder, double cpu_us) {
  double ns = 0;
  if (w == Workload::RendezvousAnon)
    ns = c.per_op(c.steps) * rung_ns(ladder, "runtime.sched.park_unpark_ns") +
         c.per_op(c.rendezvous) * (rung_ns(ladder, "csp.net.anon_rdv_ns.p128") -
                                   rung_ns(ladder, "csp.net.named_rdv_ns"));
  else if (w == Workload::LockdbWire)
    ns = c.per_op(c.frames) / 2 *
             rung_ns(ladder, "runtime.wire.sim_roundtrip_ns") +
         c.per_op(c.events) * (rung_ns(ladder, "obs.publish_ns.full") -
                               rung_ns(ladder, "obs.publish_ns.unarmed"));
  return cpu_us <= 0 ? 0 : ns / (cpu_us * 1000.0);
}

/// Ops a traced pass runs at least, so every span p99 it feeds has ten
/// samples beyond it: only a fifth of lockdb_wire's transactions write.
std::uint64_t traced_samples(Workload w) {
  return w == Workload::LockdbWire ? 8000 : 0;
}

void traced(const Args& a, Report& rep) {
  const std::uint64_t t_start = now_ns();
  const std::vector<Rung> ladder = run_ladder();
  const double ladder_s = static_cast<double>(now_ns() - t_start) / 1e9;
  const double slice = std::max(0.5, (a.seconds - ladder_s) / 8.0);

  // The untraced baseline and the traced pass of this workload, same
  // seed and parameters: their rate ratio is the tracing overhead.
  const PassResult base = run_pass(
      {.workload = a.workload, .seed = a.seed, .seconds = 2 * slice});
  SpanLog spans;
  const PassResult tr = run_pass({.workload = a.workload,
                                  .seed = a.seed,
                                  .seconds = 2 * slice,
                                  .min_samples = traced_samples(a.workload),
                                  .spans = &spans});
  rep.absorb(base, "untraced");
  rep.absorb(tr, "traced");
  if (!(base.fingerprint == tr.fingerprint))
    rep.errors.push_back("tracing changed the determinism fingerprint");
  // Every span name is measured on the workload that makes the call.
  // The matcher counters come from cast_star's pass, the workload that
  // exercises enrollment and matching.
  Counters star = tr.counted;
  for (const Workload w : kAllWorkloads) {
    if (w == a.workload) continue;
    const PassResult o = run_pass({.workload = w,
                                   .seed = a.seed,
                                   .seconds = slice,
                                   .min_samples = traced_samples(w),
                                   .spans = &spans});
    rep.absorb(o, workload_name(w));
    if (w == Workload::CastStar) star = o.counted;
  }
  // obs.armed_share: the same lockdb_wire inputs with the recorders
  // armed and unarmed; obs must not perturb the replay.
  const PassResult armed = run_pass(
      {.workload = Workload::LockdbWire, .seed = a.seed, .seconds = slice});
  const PassResult unarmed = run_pass({.workload = Workload::LockdbWire,
                                       .seed = a.seed,
                                       .seconds = slice,
                                       .armed = false});
  rep.absorb(armed, "lockdb_wire armed");
  rep.absorb(unarmed, "lockdb_wire unarmed");
  if (!(armed.fingerprint == unarmed.fingerprint))
    rep.errors.push_back("arming obs changed lockdb_wire's fingerprint");

  const Counters& c = tr.counted;
  const double cpu_us = base.steady().cpu_us_per_op;
  rep.add("runtime.sched.dispatches_per_op", "count", c.per_op(c.steps));
  rep.add("runtime.sched.virtual_ticks_per_op", "ticks",
          c.per_op(c.virtual_ticks));
  rep.add("csp.net.rendezvous_per_op", "count", c.per_op(c.rendezvous));
  rep.add("script.matcher_runs_per_op", "count",
          star.per_op(star.matcher_runs));
  // Share of enrollment decisions the waiter index answered without a
  // matcher run: hits / (hits + runs).
  const std::uint64_t decisions = star.matcher_hits + star.matcher_runs;
  rep.add("script.matcher_index_hit_ratio", "ratio",
          decisions == 0 ? 0.0
                         : static_cast<double>(star.matcher_hits) /
                               static_cast<double>(decisions));
  rep.add("runtime.wire.frames_per_op", "count", c.per_op(c.frames));
  rep.add("runtime.wire.bytes_per_op", "bytes", c.per_op(c.bytes));
  rep.add("runtime.wire.frames_shed", "count",
          static_cast<double>(c.frames_shed));
  rep.add("lockdb.requests_per_op", "count", c.per_op(c.requests));
  rep.add("lockdb.denied_ratio", "ratio", c.per_op(c.denied));
  rep.add("lockdb.commit_ratio", "ratio", c.per_op(c.committed));
  rep.add("obs.events_per_op", "count", c.per_op(c.events));
  rep.add("obs.flight_dropped", "count", static_cast<double>(c.flight_dropped));
  rep.add("obs.timeline_evicted_epochs", "count",
          static_cast<double>(c.timeline_evicted));
  const double armed_cpu = armed.steady().cpu_us_per_op;
  const double unarmed_cpu = unarmed.steady().cpu_us_per_op;
  rep.add("obs.armed_share", "ratio",
          armed_cpu <= 0 ? 0 : (armed_cpu - unarmed_cpu) / armed_cpu);
  const double traced_rate = tr.steady().ops_per_s;
  rep.add("tracing_overhead", "ratio",
          traced_rate <= 0 ? 0 : base.steady().ops_per_s / traced_rate);
  rep.add("explained_ratio", "ratio",
          explained_ratio(a.workload, base.counted, ladder, cpu_us));

  for (const Rung& r : ladder) {
    rep.add(r.name, "ns", r.ns);
    rep.add(r.name + ".inc", "ns", rung_increment(ladder, r));
  }

  const auto agg = spans.aggregate();
  for (const SpanMetric& m : kSpanMetrics) {
    const auto it = agg.find(m.span);
    const SpanStats st = it == agg.end() ? SpanStats{} : it->second;
    rep.add(std::string(m.stem) + "_calls", "count",
            static_cast<double>(st.calls));
    if (!st.p50_us) rep.errors.push_back(std::string("no spans of ") + m.span);
    rep.add(std::string(m.stem) + "_p50_us", "us", st.p50_us.value_or(0));
    if (!m.p99) continue;
    if (!st.p99_us)
      rep.errors.push_back(std::string("p99 of ") + m.span +
                           " refused: fewer than 10 samples beyond it");
    rep.add(std::string(m.stem) + "_p99_us", "us", st.p99_us.value_or(0));
  }
  if (!a.out.empty()) {
    const std::string path =
        a.out + "/spans-" + workload_name(a.workload) + ".csv";
    if (!spans.write_csv(path))
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  std::printf("traced run: ladder %.2f s, slice %.2f s, %zu spans kept "
              "(%llu more counted)\n",
              ladder_s, slice, spans.spans().size(),
              static_cast<unsigned long long>(spans.dropped()));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Every Scheduler constructor arms recorders from these; the
  // benchmark arms what it measures in code, so scrub them first.
  for (const char* v :
       {"SCRIPT_TRACE", "SCRIPT_FLIGHT", "SCRIPT_TIMELINE", "SCRIPT_DEBUG_SOCK"})
    unsetenv(v);

  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <rendezvous_anon|lockdb_wire> "
                 "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
                 "[--commit <id>]\n");
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (kSanitized ||
      (build_type != "Release" && build_type != "RelWithDebInfo")) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s%s build; build "
                 "RelWithDebInfo or Release without sanitizers\n",
                 kSanitized ? "sanitized " : "", build_type.c_str());
    return 2;
  }

  // A sanitized build was refused above, so SCRIPT_SANITIZE is OFF.
  const std::string provenance =
      "{\"workload\": \"" + std::string(workload_name(args->workload)) +
      "\", \"seed\": " + std::to_string(args->seed) +
      ", \"seconds\": " + json_number(args->seconds) +
      ", \"trace\": " + (args->trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"cpu\": \"" + json_escape(cpu_model()) +
      "\", \"compiler\": \"" + json_escape(__VERSION__) +
      "\", \"build_type\": \"" + build_type +
      "\", \"script_sanitize\": \"OFF\"" +
      ", \"git_commit\": \"" + json_escape(args->commit) + "\"}";
  std::printf("provenance %s\n", provenance.c_str());

  Report rep;
  if (args->trace)
    traced(*args, rep);
  else
    end_to_end(*args, rep);

  for (const Metric& m : rep.metrics)
    std::printf("  %-42s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const auto& e : rep.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  const bool correct = rep.errors.empty() && rep.failed == 0;
  const std::string result =
      result_json(correct, rep.attempted, rep.failed, rep.metrics);
  if (!args->out.empty()) {
    const std::string path = args->out + "/" +
                             workload_name(args->workload) + "-trace" +
                             (args->trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "{\"provenance\": %s, \"result\": %s}\n",
                   provenance.c_str(), result.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
