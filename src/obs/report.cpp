#include "obs/report.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/json.h"
#include "obs/metrics.h"

namespace ecl::obs {

namespace {

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string host_name() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

const char* compiler_version() {
#if defined(__VERSION__)
  return __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_type() {
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

double sorted_stat(std::vector<double> xs, double which) {
  // which: 0 = min, 0.5 = median, 1 = max — enough for the report fields.
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (which <= 0.0) return xs.front();
  if (which >= 1.0) return xs.back();
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void write_metrics(JsonWriter& w) {
  w.begin_array();
  for (const auto& m : registry().snapshot()) {
    w.begin_object();
    w.key("name");
    w.value(m.name);
    switch (m.kind) {
      case MetricSnapshot::Kind::kCounter:
        w.key("kind");
        w.value("counter");
        w.key("count");
        w.value(m.count);
        break;
      case MetricSnapshot::Kind::kGauge:
        w.key("kind");
        w.value("gauge");
        w.key("value");
        w.value(m.value);
        break;
      case MetricSnapshot::Kind::kHistogram:
        w.key("kind");
        w.value("histogram");
        w.key("count");
        w.value(m.count);
        w.key("sum");
        w.value(m.sum);
        w.key("max");
        w.value(m.max);
        w.key("average");
        w.value(m.value);
        w.key("p50");
        w.value(m.p50);
        w.key("p95");
        w.value(m.p95);
        w.key("p99");
        w.value(m.p99);
        w.key("buckets");
        w.begin_array();
        for (const auto& [le, count] : m.buckets) {
          w.begin_object();
          w.key("le");
          w.value(le);
          w.key("count");
          w.value(count);
          w.end_object();
        }
        w.end_array();
        break;
    }
    w.end_object();
  }
  w.end_array();
}

}  // namespace

void RunReport::set_bench_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bench_name_.empty()) bench_name_ = name;
}

void RunReport::set_config(double scale, int reps) {
  std::lock_guard<std::mutex> lock(mu_);
  scale_ = scale;
  reps_ = reps;
}

void RunReport::add_cell(std::string graph, std::string code, std::vector<double> rep_ms,
                         std::vector<std::pair<std::string, double>> extra) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.push_back({std::move(graph), std::move(code), std::move(rep_ms), std::move(extra)});
}

void RunReport::write(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(os);
  w.begin_object();
  w.key("schema_version");
  w.value(std::uint64_t{1});
  w.key("bench");
  w.value(bench_name_);
  w.key("config");
  w.begin_object();
  w.key("scale");
  w.value(scale_);
  w.key("reps");
  w.value(reps_);
  w.end_object();
  w.key("metadata");
  w.begin_object();
  w.key("compiler");
  w.value(compiler_version());
  w.key("build_type");
  w.value(build_type());
  w.key("hostname");
  w.value(host_name());
  w.key("hardware_threads");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("timestamp_utc");
  w.value(utc_timestamp());
  w.key("obs_record_sites");
#if defined(ECL_OBS_DISABLED)
  w.value("disabled");
#else
  w.value("enabled");
#endif
  w.end_object();
  w.key("cells");
  w.begin_array();
  for (const auto& cell : cells_) {
    w.begin_object();
    w.key("graph");
    w.value(cell.graph);
    w.key("code");
    w.value(cell.code);
    w.key("rep_ms");
    w.begin_array();
    for (const double ms : cell.rep_ms) w.value(ms);
    w.end_array();
    w.key("min_ms");
    w.value(sorted_stat(cell.rep_ms, 0.0));
    w.key("median_ms");
    w.value(sorted_stat(cell.rep_ms, 0.5));
    w.key("max_ms");
    w.value(sorted_stat(cell.rep_ms, 1.0));
    for (const auto& [name, value] : cell.extra) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
  }
  w.end_array();
  w.key("metrics");
  write_metrics(w);
  w.end_object();
  os << '\n';
}

bool RunReport::write_file(const std::string& path) const {
  if (path.empty()) return false;
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return os.good();
}

RunReport& run_report() {
  static RunReport report;
  return report;
}

}  // namespace ecl::obs
