#include "util/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace wsnex::util::metrics {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i])) {
      throw std::logic_error(
          "metrics: histogram bounds must be strictly increasing");
    }
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

std::vector<double> default_latency_bounds() {
  return {1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
          5e-2, 0.1,    0.25, 0.5,  1.0,    2.5,  5.0,  10.0};
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::uint64_t>& buckets, double q) {
  if (buckets.size() != bounds.size() + 1) {
    throw std::logic_error(
        "metrics: bucket_quantile needs bounds.size() + 1 buckets");
  }
  std::uint64_t total = 0;
  for (std::uint64_t c : buckets) total += c;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();

  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (cumulative + in_bucket < rank && i + 1 < buckets.size()) {
      cumulative += in_bucket;
      continue;
    }
    if (i == bounds.size()) {
      // Rank falls in the +Inf bucket: the best available estimate is the
      // highest finite edge (bounds are never empty in practice, but guard).
      return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : bounds.back();
    }
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = bounds[i];
    if (in_bucket <= 0.0) return upper;
    return lower + (upper - lower) * ((rank - cumulative) / in_bucket);
  }
  return bounds.back();
}

double histogram_quantile(const Histogram& histogram, double q) {
  std::vector<std::uint64_t> buckets(histogram.bounds().size() + 1);
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = histogram.bucket_count(i);
  }
  return bucket_quantile(histogram.bounds(), buckets, q);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry::Family {
  std::string name;
  std::string help;
  const char* type;  // "counter" | "gauge" | "histogram"
  std::vector<double> bounds;  // histograms only; fixed per family

  struct Series {
    std::string labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  std::vector<Series> series;

  Series& series_of(const std::string& labels) {
    for (auto& s : series) {
      if (s.labels == labels) return s;
    }
    series.push_back(Series{labels, nullptr, nullptr, nullptr});
    return series.back();
  }
};

Registry::Registry() = default;
Registry::~Registry() = default;

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Registry::Family& Registry::family_of(const std::string& name,
                                      const std::string& help,
                                      const char* type) {
  for (auto& family : families_) {
    if (family->name == name) {
      if (std::string(family->type) != type) {
        throw std::logic_error("metrics: '" + name + "' registered as " +
                               family->type + ", requested as " + type);
      }
      return *family;
    }
  }
  auto family = std::make_unique<Family>();
  family->name = name;
  family->help = help;
  family->type = type;
  families_.push_back(std::move(family));
  return *families_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family::Series& series = family_of(name, help, "counter").series_of(labels);
  if (!series.counter) series.counter = std::unique_ptr<Counter>(new Counter());
  return *series.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help,
                       const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family::Series& series = family_of(name, help, "gauge").series_of(labels);
  if (!series.gauge) series.gauge = std::unique_ptr<Gauge>(new Gauge());
  return *series.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> bounds,
                               const std::string& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Family& family = family_of(name, help, "histogram");
  if (family.series.empty()) {
    family.bounds = bounds;
  } else if (family.bounds != bounds) {
    throw std::logic_error("metrics: histogram '" + name +
                           "' re-registered with different bounds");
  }
  Family::Series& series = family.series_of(labels);
  if (!series.histogram) {
    series.histogram =
        std::unique_ptr<Histogram>(new Histogram(std::move(bounds)));
  }
  return *series.histogram;
}

namespace {

// A sample line: `name{labels} value` (braces omitted when label-free).
// `extra` is an additional label (histogram `le`) appended after `labels`.
void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, const std::string& extra,
                   double value) {
  out += name;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  out += ' ';
  out += format_double_shortest(value);
  out += '\n';
}

std::string le_label(double bound) {
  return "le=\"" + format_double_shortest(bound) + "\"";
}

}  // namespace

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& family : families_) {
    out += "# HELP " + family->name + ' ' + family->help + '\n';
    out += "# TYPE " + family->name + ' ' + family->type + '\n';
    for (const auto& series : family->series) {
      if (series.counter) {
        append_sample(out, family->name, series.labels, std::string(),
                      series.counter->value());
      } else if (series.gauge) {
        append_sample(out, family->name, series.labels, std::string(),
                      series.gauge->value());
      } else if (series.histogram) {
        const Histogram& h = *series.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket_count(i);
          append_sample(out, family->name + "_bucket", series.labels,
                        le_label(h.bounds()[i]),
                        static_cast<double>(cumulative));
        }
        cumulative += h.bucket_count(h.bounds().size());
        append_sample(out, family->name + "_bucket", series.labels,
                      "le=\"+Inf\"", static_cast<double>(cumulative));
        append_sample(out, family->name + "_sum", series.labels, std::string(),
                      h.sum());
        append_sample(out, family->name + "_count", series.labels,
                      std::string(), static_cast<double>(h.count()));
      }
    }
  }
  return out;
}

}  // namespace wsnex::util::metrics
