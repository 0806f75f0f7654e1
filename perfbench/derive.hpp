// Metric derivation for perfbench: exact percentiles with their
// sample counts, ratios that keep their bases, and deltas between frames of
// the process-wide metrics registry (obs::MetricsRegistry::snapshot_json).
//
// Everything here is a pure function of its arguments so derive_test.cpp can
// pin the arithmetic the published numbers rest on.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/percentile.hpp"

namespace perfbench {

/// A percentile together with the number of samples it was taken over.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
};

/// Nearest-rank percentile (q in [0, 1]) of `xs`: the smallest sample such
/// that at least q*n samples are <= it. Reorders `xs`. 0 with n = 0 when
/// `xs` is empty.
inline Percentile percentile(std::vector<double>& xs, double q) {
  if (xs.empty()) return {};
  q = std::clamp(q, 0.0, 1.0);
  const std::size_t n = xs.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;  // ceil
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx),
                   xs.end());
  return {xs[idx], n};
}

/// Median in the statistics.median sense (mean of the two middle values for
/// an even count). 0 for an empty input.
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// A ratio that remembers its base, so reports can print "value (num/den)".
/// An empty base yields 0: the layer did no work of that kind.
struct Ratio {
  double num = 0.0;
  double den = 0.0;
  double value() const { return den > 0.0 ? num / den : 0.0; }
};

/// One registry metric at a sampling instant. Counters and gauges carry
/// `value`; histograms carry their sample count in `value` plus the sum
/// and the power-of-two bucket counts (obs::Histogram's mapping).
struct MetricValue {
  std::int64_t value = 0;
  std::int64_t sum = 0;
  std::vector<std::int64_t> buckets;  // empty for counters and gauges
};

using Frame = std::map<std::string, MetricValue>;

namespace detail {
inline void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}
inline std::int64_t parse_int(const std::string& s, std::size_t& i) {
  skip_ws(s, i);
  bool neg = false;
  if (i < s.size() && s[i] == '-') {
    neg = true;
    ++i;
  }
  std::int64_t v = 0;
  while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
    v = v * 10 + (s[i++] - '0');
  return neg ? -v : v;
}
inline void expect(const std::string& s, std::size_t& i, char c) {
  skip_ws(s, i);
  if (i >= s.size() || s[i] != c)
    throw std::runtime_error(std::string("snapshot parse: expected '") + c +
                             "' at offset " + std::to_string(i));
  ++i;
}
inline std::string parse_name(const std::string& s, std::size_t& i) {
  expect(s, i, '"');
  const std::size_t end = s.find('"', i);
  if (end == std::string::npos)
    throw std::runtime_error("snapshot parse: unterminated name");
  std::string name = s.substr(i, end - i);
  i = end + 1;
  return name;
}
}  // namespace detail

/// Parse the registry's snapshot_json() into a Frame. The format is the one
/// MetricsRegistry emits: a flat object of integers (counters, gauges) and
/// {"count", "sum", "buckets": [...]} objects (histograms).
inline Frame parse_frame(const std::string& json) {
  using namespace detail;
  Frame f;
  std::size_t i = 0;
  expect(json, i, '{');
  skip_ws(json, i);
  if (i < json.size() && json[i] == '}') return f;
  for (;;) {
    const std::string name = parse_name(json, i);
    expect(json, i, ':');
    skip_ws(json, i);
    MetricValue m;
    if (i < json.size() && json[i] == '{') {
      ++i;
      for (;;) {
        const std::string key = parse_name(json, i);
        expect(json, i, ':');
        if (key == "buckets") {
          expect(json, i, '[');
          skip_ws(json, i);
          while (i < json.size() && json[i] != ']') {
            m.buckets.push_back(parse_int(json, i));
            skip_ws(json, i);
            if (i < json.size() && json[i] == ',') ++i;
            skip_ws(json, i);
          }
          expect(json, i, ']');
        } else {
          const std::int64_t v = parse_int(json, i);
          if (key == "count") m.value = v;
          if (key == "sum") m.sum = v;
        }
        skip_ws(json, i);
        if (i < json.size() && json[i] == ',') {
          ++i;
          continue;
        }
        expect(json, i, '}');
        break;
      }
    } else {
      m.value = parse_int(json, i);
    }
    f[name] = std::move(m);
    skip_ws(json, i);
    if (i < json.size() && json[i] == ',') {
      ++i;
      continue;
    }
    expect(json, i, '}');
    return f;
  }
}

/// `later - earlier`, metric by metric (a metric missing from one side
/// counts as zero there). Meaningful for counters and histograms; a gauge's
/// level is read from a single frame instead.
inline Frame delta(const Frame& later, const Frame& earlier) {
  Frame d = later;
  for (const auto& [name, e] : earlier) {
    MetricValue& m = d[name];
    m.value -= e.value;
    m.sum -= e.sum;
    if (m.buckets.size() < e.buckets.size()) m.buckets.resize(e.buckets.size());
    for (std::size_t b = 0; b < e.buckets.size(); ++b)
      m.buckets[b] -= e.buckets[b];
  }
  return d;
}

/// total += d, metric by metric (summing the deltas of several windows).
inline void accumulate(Frame& total, const Frame& d) {
  for (const auto& [name, m] : d) {
    MetricValue& t = total[name];
    t.value += m.value;
    t.sum += m.sum;
    if (t.buckets.size() < m.buckets.size()) t.buckets.resize(m.buckets.size());
    for (std::size_t b = 0; b < m.buckets.size(); ++b)
      t.buckets[b] += m.buckets[b];
  }
}

/// Counter/histogram-count value of `name` in `f` (0 when absent).
inline double count_of(const Frame& f, const std::string& name) {
  const auto it = f.find(name);
  return it == f.end() ? 0.0 : static_cast<double>(it->second.value);
}

/// Histogram mean (sum / count) of `name` in `f`.
inline Ratio hist_mean(const Frame& f, const std::string& name) {
  const auto it = f.find(name);
  if (it == f.end()) return {};
  return {static_cast<double>(it->second.sum),
          static_cast<double>(it->second.value)};
}

/// Quantile of a registry histogram (in `f`, typically a delta) under
/// obs::Histogram's power-of-two bucket mapping: the inclusive upper bound
/// of the bucket holding the target rank, as obs::Histogram::quantile.
inline Percentile hist_quantile(const Frame& f, const std::string& name,
                                double q) {
  const auto it = f.find(name);
  if (it == f.end() || it->second.buckets.empty()) return {};
  const auto& b = it->second.buckets;
  std::uint64_t total = 0;
  for (const std::int64_t c : b)
    total += c > 0 ? static_cast<std::uint64_t>(c) : 0;
  const std::uint64_t v = txf::obs::quantile_from_buckets(
      b.size(), total, q,
      [&](std::size_t i) {
        return b[i] > 0 ? static_cast<std::uint64_t>(b[i]) : 0;
      },
      [](std::size_t i) { return txf::obs::Histogram::bucket_upper_bound(i); });
  return {static_cast<double>(v), static_cast<std::size_t>(total)};
}

}  // namespace perfbench
