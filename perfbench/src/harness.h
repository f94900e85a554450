// Shared plumbing of the benchmark program: run options, timing and
// percentile helpers, process resource readings, the in-memory span log
// of the traced run, and the result record printed as the last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock since the first call in this process.
double Now();

/// Spins (no sleep: its granularity is far coarser than the delays
/// injected by the self-test) for `seconds`.
void SpinFor(double seconds);

/// Where the self-test injects its slowdown: the handler wrapper, or a
/// hook after each timed sweep. Nothing is injected in a normal run.
enum class Inject { kNone, kHandler, kStep };

/// The injected slowdown, as a share of the wrapped handler call's own
/// duration, or of the timed sweep's CPU time.
/// Half, not the ~20% a real regression might cost: on the shared 4-vCPU
/// VM the benchmark was tuned on, run-to-run drift forces end-to-end
/// bounds of 0.2-0.25, and the self-test must cross them.
inline constexpr double kInjectedSlowdown = 0.5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Inject inject = Inject::kNone;
  /// Directory (inside the checkout) for checkpoints, arenas and spans.
  std::string work_dir;
  /// The source identity run.py found: git commit or a hash of the sources.
  std::string source_id = "unknown";
};

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();
/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();
/// CPU seconds the hypervisor gave to other guests while this guest's
/// vCPUs wanted to run ("steal"), summed over all CPUs since boot.
double HostStealSeconds();
/// CPU seconds consumed by the calling thread so far.
double ThreadCpuSeconds();

/// One recorded span: [start, end] in seconds on the Now() clock.
/// `parent` is the id of the enclosing span (0 for a root) and `key` the
/// request id or superstep number the span belongs to.
struct SpanRecord {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;
  int64_t key = 0;
};

/// In-memory span log of the traced run. Each thread appends to its own
/// buffer, so recording takes no lock; disabled, Record() is a no-op.
class SpanLog {
 public:
  static void Enable();
  static bool enabled();
  /// Allocates a span id to use as a parent before the span ends.
  static int64_t NextId();
  /// Records a finished span and returns its id (0 when disabled). Pass
  /// `id` from NextId() when children were recorded against it.
  static int64_t Record(const char* name, double start, double end,
                        int64_t parent, int64_t key, int64_t id = 0);
  /// Writes every recorded span as a Chrome trace-event JSON file.
  static bool WriteChromeTrace(const std::string& path);
  static size_t size();
};

/// What a run reports: the correctness verdict, the operation counts and
/// the metrics of both modes. The traced run prints per-layer metrics as
/// its result and its own end-to-end readings on an earlier line, so the
/// tracing overhead can be read off against an untraced run.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; any failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Attempted(int64_t attempted, int64_t failed);
  void Info(const std::string& key, const std::string& value);

  bool correct() const { return correct_; }
  /// Prints the provenance line, then (traced) the end-to-end line, then
  /// the result object as the last line of stdout.
  void Print(bool trace) const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  static std::string MetricsJson(const std::map<std::string, Value>& metrics);

  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> layers_;
  std::map<std::string, std::string> info_;
};

/// Host and build provenance stamped into every result: core count,
/// resolved SIMD dispatch, compiler, build type.
void AddProvenance(Report* report);

}  // namespace perfbench
