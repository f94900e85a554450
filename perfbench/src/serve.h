// The serving half of a workload: the trained model exported as a
// COLDARN1 arena, loaded by ModelService behind the epoll HttpServer, and
// driven by an open-loop Poisson client over keep-alive pipelined
// connections. Every served 200 in a fixed sample is recomputed with
// ColdPredictor and must match bit for bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cold_estimates.h"
#include "data/split.h"
#include "harness.h"

namespace cold::core {
class ColdPredictor;
}
namespace cold::serve {
class HttpServer;
class ModelService;
}  // namespace cold::serve

namespace perfbench {

enum class Mix {
  /// Single-candidate /v1/diffusion on a Zipf-skewed set of hot posts that
  /// fits in the posterior cache.
  kHot,
  /// Held-out posts drawn uniformly: 50% 16-candidate diffusion fan-outs,
  /// 20% topic_posterior, 15% timestamp, 15% link, plus a hot reload of
  /// the arena every 200 ms.
  kMixed,
};

/// The serving set-up every workload shares: reactor threads, predictor
/// replicas (each with its share of ModelService's default 4096-entry
/// posterior cache) and client connections.
inline constexpr int kReactors = 2;
inline constexpr int kReplicas = 2;
inline constexpr int kConnections = 4;

struct ServeSpec {
  Mix mix = Mix::kHot;
  /// Fixed offered rates of the light and heavy phases (see
  /// perfbench/README.md for how they were chosen).
  double light_rps = 0.0;
  double heavy_rps = 0.0;
  /// Latency limit on p99 for slo_rps.
  double slo_p99_ms = 0.0;
};

/// One open-loop phase at a fixed offered rate.
struct PhaseResult {
  double offered_rps = 0.0;
  double seconds = 0.0;
  int64_t sent = 0;
  int64_t completed = 0;          // 2xx responses received.
  int64_t completed_on_time = 0;  // ... by the end of the schedule + grace.
  int64_t failed = 0;             // Non-2xx, refused, reset or timed out.
  bool over_capacity = false;     // completed_on_time < 99% of sent.
  /// Quantiles of every 2xx response's latency, timed from its due time.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double generator_lag_p99_ms = 0.0;
  std::vector<double> latency_ms;    // From the due time, per 2xx response.
  std::vector<double> handler_us;    // Server-side wrapper time, joined by id.
  std::vector<double> transport_us;  // latency - handler, per response.
  double server_cpu_s = 0.0;         // Process CPU minus the client thread.
  int64_t verified = 0;
};

struct ServeStats {
  double arena_save_s = 0.0;
  double arena_load_s = 0.0;
  double peak_rss_mb = 0.0;
  double slo_rps = 0.0;
  PhaseResult light, heavy;
  std::vector<PhaseResult> ladder;
  // Registry readings over the light and heavy phases.
  double cache_hits = 0.0, cache_misses = 0.0;
  double batches = 0.0, batched_requests = 0.0;
  double reloads = 0.0, reload_swap_p99_us = 0.0;
  double shed_total = 0.0, errors = 0.0;
  int64_t reload_attempts = 0, reload_failures = 0;
  // Direct ColdPredictor replay of the workload's queries, mean per call.
  double posterior_us = 0.0, diffusion_us = 0.0, timestamp_us = 0.0,
         link_us = 0.0;
  int64_t attempted = 0, failed = 0;
};

class ServeStage {
 public:
  /// Saves `estimates` as an arena under `work_dir`, loads it into a
  /// ModelService, and starts the server. `posts` supplies the query
  /// posts: hot posts from its training half, held-out posts from its
  /// test half. Returns nullptr (with the check recorded) on failure.
  static std::unique_ptr<ServeStage> Start(
      const ServeSpec& spec, const cold::core::ColdEstimates& estimates,
      int top_communities, const cold::data::PostSplit& posts,
      const std::string& work_dir, uint64_t seed, bool inject_handler,
      Report* report);
  ~ServeStage();
  ServeStage(const ServeStage&) = delete;
  ServeStage& operator=(const ServeStage&) = delete;

  /// Runs warm-up, the light and heavy phases and the slo_rps ladder
  /// within about `seconds`, then (when `replay`) times the same queries
  /// directly against ColdPredictor.
  ServeStats Run(double seconds, bool replay, Report* report);

 private:
  struct Query;
  struct Planned;
  struct PoolPost;
  class Client;

  ServeStage() = default;
  /// `measured`: a light or heavy phase, which records client spans and
  /// judges capacity with more patience than a ladder step.
  PhaseResult RunPhase(double rps, double seconds, bool measured,
                       Report* report);
  void Verify(const std::vector<std::pair<Query, std::string>>& samples,
              PhaseResult* result, Report* report);
  void ReplayPredictor(ServeStats* stats);
  Query Materialize(const Planned& plan) const;
  void AppendRequest(const Planned& plan, int64_t id, std::string* out) const;

  ServeSpec spec_;
  /// Self-test: the handler wrapper spins half of each Handle() call again.
  bool inject_handler_ = false;
  uint64_t seed_ = 0;
  int phase_index_ = 0;
  std::string arena_path_;
  const cold::text::PostStore* posts_ = nullptr;  // Source of query posts.
  std::vector<PoolPost> pool_;         // Posts the phases draw from.
  std::vector<double> query_weights_;  // Cumulative draw weights (hot mix).
  std::unique_ptr<cold::core::ColdPredictor> reference_;
  std::unique_ptr<cold::serve::ModelService> service_;
  std::unique_ptr<cold::serve::HttpServer> server_;
  std::unique_ptr<Client> client_;
  // Handler wrapper's per-request timings for the running phase, indexed
  // by the X-Request-Id the client sends (phase in the high bits).
  static constexpr int kMaxPhases = 64;
  std::unique_ptr<std::atomic<float>[]> handler_us_[kMaxPhases];
  std::atomic<int64_t> handler_slots_[kMaxPhases] = {};
  double arena_save_s_ = 0.0;
  double arena_load_s_ = 0.0;
};

}  // namespace perfbench
