#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "support/io.hpp"
#include "support/log.hpp"
#include "support/panic.hpp"

namespace script::obs {

void Histogram::observe(double v) {
  if (v < 0) v = 0;
  std::size_t b = 0;
  if (v >= 1) {
    b = static_cast<std::size_t>(std::ilogb(v));
    if (b >= kBuckets) b = kBuckets - 1;
  }
  ++buckets_[b];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
}

double Histogram::min() const {
  SCRIPT_ASSERT(count_ > 0, "Histogram::min on empty histogram");
  return min_;
}

double Histogram::max() const {
  SCRIPT_ASSERT(count_ > 0, "Histogram::max on empty histogram");
  return max_;
}

double Histogram::mean() const {
  SCRIPT_ASSERT(count_ > 0, "Histogram::mean on empty histogram");
  return sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  SCRIPT_ASSERT(q >= 0 && q <= 1, "quantile q out of [0,1]");
  if (count_ == 0) return 0;
  // The extreme quantiles are known exactly; interpolation would hand
  // back a bucket bound instead.
  if (q <= 0) return min_;
  if (q >= 1) return max_;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const std::uint64_t in_bucket = buckets_[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(before + in_bucket) > rank) {
      // Interpolate by the rank's position among this bucket's samples,
      // assuming they spread uniformly across the bucket's bounds.
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
      const double hi = std::ldexp(1.0, static_cast<int>(b) + 1);
      const double frac =
          (rank - static_cast<double>(before)) / static_cast<double>(in_bucket);
      return std::clamp(lo + frac * (hi - lo), min_, max_);
    }
    before += in_bucket;
  }
  return max_;
}

void Histogram::absorb(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

void MetricsRegistry::import_tracelog_truncation(
    const support::TraceLog& log) {
  Counter& c = counter("tracelog.truncated_events");
  if (log.evicted() > c.value()) c.inc(log.evicted() - c.value());
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

void MetricsRegistry::gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

EventBus::SubId MetricsRegistry::attach_event_counters(
    EventBus& bus, EventBus::Mask mask) {
  return bus.subscribe(mask, [this](const Event& e) {
    if (e.kind == EventKind::SpanEnd) return;  // count spans once
    counter(std::string(subsystem_name(e.subsystem)) + "." + e.name).inc();
  });
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string num(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 1e15)
    return std::to_string(static_cast<long long>(v));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::snapshot_json(int indent) const {
  const std::string nl = indent > 0 ? "\n" : "";
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent) : 0,
                        ' ');
  const std::string pad2 = pad + pad;
  std::string out = "{" + nl;
  out += pad + "\"schema_version\": " + std::to_string(kSchemaVersion) + "," +
         nl;

  auto section = [&](const char* key, auto&& body, bool last) {
    out += pad;
    append_json_string(out, key);
    out += ": {" + nl;
    body();
    out += pad + "}";
    if (!last) out += ",";
    out += nl;
  };

  section("counters", [&] {
    std::size_t i = 0;
    for (const auto& [name, c] : counters_) {
      out += pad2;
      append_json_string(out, name);
      out += ": " + std::to_string(c.value());
      if (++i != counters_.size()) out += ",";
      out += nl;
    }
  }, false);

  section("gauges", [&] {
    std::size_t i = 0;
    for (const auto& [name, v] : gauges_) {
      out += pad2;
      append_json_string(out, name);
      out += ": " + num(v);
      if (++i != gauges_.size()) out += ",";
      out += nl;
    }
  }, false);

  section("histograms", [&] {
    std::size_t i = 0;
    for (const auto& [name, h] : histograms_) {
      out += pad2;
      append_json_string(out, name);
      out += ": {\"count\": " + std::to_string(h.count());
      if (h.count() > 0) {
        out += ", \"sum\": " + num(h.sum()) + ", \"min\": " + num(h.min()) +
               ", \"max\": " + num(h.max()) + ", \"mean\": " + num(h.mean()) +
               ", \"p50\": " + num(h.quantile(0.5)) +
               ", \"p90\": " + num(h.quantile(0.9)) +
               ", \"p99\": " + num(h.quantile(0.99)) + ", \"buckets\": [";
        bool first = true;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          if (h.buckets()[b] == 0) continue;
          if (!first) out += ", ";
          first = false;
          out += "[" + num(b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b))) +
                 ", " + std::to_string(h.buckets()[b]) + "]";
        }
        out += "]";
      }
      out += "}";
      if (++i != histograms_.size()) out += ",";
      out += nl;
    }
  }, true);

  out += "}";
  if (indent > 0) out += "\n";
  return out;
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (our
// namespace separator) and anything else exotic become underscores.
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

std::string prom_num(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return num(v);
}

}  // namespace

std::string MetricsRegistry::expose_prometheus() const {
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value()) + "\n";
  }
  for (const auto& [name, v] : gauges_) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + prom_num(v) + "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (h.buckets()[b] == 0) continue;
      cumulative += h.buckets()[b];
      out += n + "_bucket{le=\"" +
             prom_num(std::ldexp(1.0, static_cast<int>(b) + 1)) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count()) + "\n";
    out += n + "_sum " + prom_num(h.sum()) + "\n";
    out += n + "_count " + std::to_string(h.count()) + "\n";
  }
  return out;
}

bool MetricsRegistry::write_json(const std::string& path) const {
  return support::write_file(path, snapshot_json(2));
}

}  // namespace script::obs
