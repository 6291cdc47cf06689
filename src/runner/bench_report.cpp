#include "runner/bench_report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "htm/abort_cause.hpp"

namespace suvtm::runner {

void BenchReport::put(const std::string& key, std::string json_value) {
  for (auto& e : entries_) {
    if (e.key == key) {
      e.json_value = std::move(json_value);
      return;
    }
  }
  entries_.push_back({key, std::move(json_value)});
}

void BenchReport::set(const std::string& key, double v) {
  char buf[64];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  } else {
    std::snprintf(buf, sizeof buf, "null");  // JSON has no inf/nan
  }
  put(key, buf);
}

void BenchReport::set(const std::string& key, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  put(key, buf);
}

void BenchReport::set(const std::string& key, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  put(key, buf);
}

void BenchReport::set(const std::string& key, const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  put(key, std::move(out));
}

void BenchReport::set_metrics(const obs::MetricsSnapshot& m,
                              const std::string& prefix) {
  for (const auto& [name, v] : m.scalars) set(prefix + name, v);
  for (const auto& h : m.histograms) {
    const std::string base = prefix + "hist." + h.name;
    set(base + ".count", h.data.count);
    set(base + ".mean", h.data.count == 0
                            ? 0.0
                            : static_cast<double>(h.data.sum) /
                                  static_cast<double>(h.data.count));
    set(base + ".max", h.data.max);
    // Linear: bucket i counts htm::AbortCause i, so each cause that fired is
    // readable by name.
    if (h.name == obs::histogram_name(obs::Histogram::kAbortCause)) {
      constexpr auto kCauses =
          static_cast<std::size_t>(htm::AbortCause::kCauseCount);
      for (std::size_t i = 1; i < kCauses; ++i) {
        if (h.data.buckets[i] == 0) continue;
        set(base + "." + htm::abort_cause_name(static_cast<htm::AbortCause>(i)),
            h.data.buckets[i]);
      }
    }
  }
  for (const auto& s : m.series) {
    const std::string base = prefix + "series." + s.name;
    set(base + ".samples", static_cast<std::uint64_t>(s.points.size()));
    std::uint64_t mx = 0;
    for (const auto& p : s.points) mx = std::max(mx, p.v);
    set(base + ".max", mx);
    set(base + ".last", s.points.empty() ? 0 : s.points.back().v);
  }
}

std::string BenchReport::to_json() const {
  std::string out = "{\n";
  out += "  \"bench\": \"" + name_ + "\"";
  for (const auto& e : entries_) {
    out += ",\n  \"" + e.key + "\": " + e.json_value;
  }
  out += "\n}\n";
  return out;
}

bool BenchReport::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string body = to_json();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  if (ok) std::printf("wrote %s\n", path.c_str());
  return ok;
}

}  // namespace suvtm::runner
