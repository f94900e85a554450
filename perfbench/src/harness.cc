#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>

#include "util/simd.h"

namespace perfbench {

double Now() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

void SpinFor(double seconds) {
  const double until = Now() + seconds;
  while (Now() < until) {
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

namespace {

double ClockSeconds(clockid_t clock) {
  struct timespec ts {};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct SpanBuffers {
  std::mutex mutex;  // Guards `buffers`.
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};

SpanBuffers& Buffers() {
  static SpanBuffers* buffers = new SpanBuffers();  // Outlives every thread.
  return *buffers;
}

std::atomic<bool> g_spans_enabled{false};
std::atomic<int64_t> g_next_span_id{1};

std::vector<SpanRecord>& ThreadBuffer() {
  thread_local std::vector<SpanRecord>* buffer = [] {
    auto owned = std::make_unique<std::vector<SpanRecord>>();
    owned->reserve(1 << 14);
    std::vector<SpanRecord>* raw = owned.get();
    std::lock_guard<std::mutex> lock(Buffers().mutex);
    Buffers().buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double HostStealSeconds() {
  // /proc/stat: "cpu user nice system idle iowait irq softirq steal ...".
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void SpanLog::Enable() { g_spans_enabled.store(true); }
bool SpanLog::enabled() {
  return g_spans_enabled.load(std::memory_order_relaxed);
}
int64_t SpanLog::NextId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

int64_t SpanLog::Record(const char* name, double start, double end,
                        int64_t parent, int64_t key, int64_t id) {
  if (!enabled()) return 0;
  if (id == 0) id = NextId();
  ThreadBuffer().push_back(SpanRecord{name, start, end, id, parent, key});
  return id;
}

size_t SpanLog::size() {
  std::lock_guard<std::mutex> lock(Buffers().mutex);
  size_t n = 0;
  for (const auto& buffer : Buffers().buffers) n += buffer->size();
  return n;
}

bool SpanLog::WriteChromeTrace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  std::lock_guard<std::mutex> lock(Buffers().mutex);
  int tid = 0;
  for (const auto& buffer : Buffers().buffers) {
    ++tid;
    for (const SpanRecord& span : *buffer) {
      if (!first) out << ",\n";
      first = false;
      out << "{\"name\":" << JsonString(span.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << JsonNumber(span.start * 1e6)
          << ",\"dur\":" << JsonNumber((span.end - span.start) * 1e6)
          << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent
          << ",\"key\":" << span.key << "}}";
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_[name] = Value{value, unit};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = Value{value, unit};
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failures_.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::Attempted(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = value;
}

std::string Report::MetricsJson(const std::map<std::string, Value>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(v.value) +
           ", \"unit\": " + JsonString(v.unit) + "}";
  }
  return out + "}";
}

void Report::Print(bool trace) const {
  std::string info = "{\"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    if (!first) info += ", ";
    first = false;
    info += JsonString(key) + ": " + JsonString(value);
  }
  info += "}, \"check_failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) info += ", ";
    info += JsonString(failures_[i]);
  }
  info += "]}";
  std::printf("%s\n", info.c_str());
  if (trace) {
    std::printf("{\"traced_end_to_end\": %s}\n",
                MetricsJson(end_to_end_).c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct_ ? "true" : "false", static_cast<long long>(attempted_),
      static_cast<long long>(failed_),
      MetricsJson(trace ? layers_ : end_to_end_).c_str());
  std::fflush(stdout);
}

void AddProvenance(Report* report) {
  report->Info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report->Info("simd", cold::simd::DispatchName());
  report->Info("compiler", std::string("gcc ") + __VERSION__);
  report->Info("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
