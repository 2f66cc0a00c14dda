#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/json.h"
#include "service/net.h"

namespace qpibench {

double NowMs() { return qpi::MonotonicMs(); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit, size_t samples) {
  if (!std::isfinite(value)) return;
  (*m)[name] = Metric{value, unit, samples};
}

bool TailReportable(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

namespace {

double StatusFieldKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::char_traits<char>::length(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

double PeakRssKb() { return StatusFieldKb("VmHWM:"); }
double CurrentRssKb() { return StatusFieldKb("VmRSS:"); }

void Tracer::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
}

void Tracer::End(uint64_t units) {
  if (open_.empty()) return;
  Span& span = spans_[static_cast<size_t>(open_.back())];
  span.end_ms = NowMs();
  span.units = units;
  open_.pop_back();
}

int64_t Tracer::Add(const std::string& name, double start_ms, double end_ms,
                    int64_t parent, uint64_t query) {
  Span span;
  span.name = name;
  span.start_ms = start_ms;
  span.end_ms = end_ms;
  span.parent = parent;
  span.query = query;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> Tracer::PerUnitMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.units > 0) {
      out.push_back(span.duration_ms() / static_cast<double>(span.units));
    }
  }
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.duration_ms());
  }
  return out;
}

std::vector<double> Tracer::SelfTimesMs() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    // Union of the children's intervals clipped to the parent's.
    std::vector<std::pair<double, double>> parts;
    for (size_t c : children[i]) {
      double lo = std::max(spans_[c].start_ms, spans_[i].start_ms);
      double hi = std::min(spans_[c].end_ms, spans_[i].end_ms);
      if (hi > lo) parts.emplace_back(lo, hi);
    }
    std::sort(parts.begin(), parts.end());
    double covered = 0;
    double cursor = -std::numeric_limits<double>::infinity();
    for (const auto& [lo, hi] : parts) {
      double start = std::max(lo, cursor);
      if (hi > start) covered += hi - start;
      cursor = std::max(cursor, hi);
    }
    self[i] = spans_[i].duration_ms() - covered;
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::vector<double> self = SelfTimesMs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::string line = "{";
    qpi::JsonAppendKey("name", &line);
    qpi::JsonAppendQuoted(span.name, &line);
    qpi::JsonAppendKey("start_ms", &line);
    line += qpi::JsonNumberString(span.start_ms);
    qpi::JsonAppendKey("end_ms", &line);
    line += qpi::JsonNumberString(span.end_ms);
    qpi::JsonAppendKey("self_ms", &line);
    line += qpi::JsonNumberString(self[i]);
    qpi::JsonAppendKey("parent", &line);
    line += std::to_string(span.parent);
    qpi::JsonAppendKey("query", &line);
    line += std::to_string(span.query);
    qpi::JsonAppendKey("units", &line);
    line += std::to_string(span.units);
    line += "}\n";
    std::fputs(line.c_str(), out);
  }
  return std::fclose(out) == 0;
}

}  // namespace qpibench
