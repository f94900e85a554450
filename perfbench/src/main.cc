// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject none|handler|step] [--work-dir DIR] [--source-id ID]
//
// Every workload is one analyst-and-client session on its own synthetic
// corpus: set up (generate + split + trainer Init), train a COLD model,
// export it as a COLDARN1 arena and serve it over HTTP to an open-loop
// client. The two workloads pair a trainer with a serving mix:
//
//   parallel_mixed  threaded GAS trainer, K=48 sparse kernel, ~350k tokens;
//                   then fan-outs, posteriors, timestamps and links on
//                   held-out posts, with an arena hot reload every 200 ms
//   serial_hot      serial Gibbs sampler, K=12 dense kernel, 3x links,
//                   checkpoint every 5 sweeps; then single-candidate
//                   diffusion on 512 Zipf-hot posts
//
// The last stdout line is the result object (end-to-end metrics, or with
// --trace 1 the per-layer metrics); see perfbench/README.md.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "serve.h"
#include "train.h"
#include "util/logging.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  TrainSpec train;
  ServeSpec serve;
  /// Timed sweeps per second of --seconds.
  double sweeps_per_second = 0.0;
  /// Share of --seconds the serving stage runs.
  double serve_share = 0.0;
};

cold::core::ColdConfig ModelConfig(int communities, int topics) {
  cold::core::ColdConfig config;
  config.num_communities = communities;
  config.num_topics = topics;
  config.rho = 0.5;
  config.alpha = 0.5;
  config.kappa = 10.0;
  return config;
}

cold::data::SyntheticConfig CorpusConfig(int users, int topics,
                                         double posts_per_user,
                                         int follows_per_user) {
  cold::data::SyntheticConfig config;
  config.num_users = users;
  config.num_communities = 8;
  config.num_topics = topics;
  config.num_time_slices = 24;
  config.core_words_per_topic = 25;
  config.background_words = 400;
  config.core_mass = 0.6;
  config.posts_per_user = posts_per_user;
  config.words_per_post = 9.0;
  config.follows_per_user = follows_per_user;
  config.pi_concentration = 0.06;
  config.theta_concentration = 0.3;
  config.eta_within = 0.5;
  config.eta_base = 0.004;
  return config;
}

ServeSpec HotServe() {
  ServeSpec spec;
  spec.mix = Mix::kHot;
  spec.slo_p99_ms = 2.0;
  spec.light_rps = 10000.0;
  spec.heavy_rps = 20000.0;
  return spec;
}

ServeSpec MixedServe() {
  ServeSpec spec;
  spec.mix = Mix::kMixed;
  spec.slo_p99_ms = 10.0;
  spec.light_rps = 600.0;
  spec.heavy_rps = 1500.0;
  return spec;
}

bool FindWorkload(const std::string& name, Workload* out) {
  if (name == "parallel_mixed") {
    Workload w{"parallel_mixed", {}, MixedServe()};
    w.train.corpus = CorpusConfig(2000, 48, 24.0, 18);
    w.train.model = ModelConfig(8, 48);
    w.train.trainer = TrainerKind::kParallel;
    w.train.warmup_sweeps = 3;
    w.sweeps_per_second = 32.0;
    w.serve_share = 0.45;
    *out = w;
    return true;
  }
  if (name == "serial_hot") {
    Workload w{"serial_hot", {}, HotServe()};
    w.train.corpus = CorpusConfig(4000, 12, 12.0, 54);
    w.train.model = ModelConfig(8, 12);
    w.train.trainer = TrainerKind::kSerial;
    w.train.warmup_sweeps = 2;
    w.train.checkpoint_every = 5;
    w.sweeps_per_second = 7.0;
    w.serve_share = 0.3;
    *out = w;
    return true;
  }
  return false;
}

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 9;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "parallel_mixed|serial_hot --seed N "
               "--seconds S --trace 0|1 [--inject none|handler|step] "
               "[--work-dir DIR] [--source-id ID]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options->seconds > 0.0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (arg == "--inject") {
      if (value == "none") {
        options->inject = Inject::kNone;
      } else if (value == "handler") {
        options->inject = Inject::kHandler;
      } else if (value == "step") {
        options->inject = Inject::kStep;
      } else {
        return false;
      }
    } else if (arg == "--work-dir") {
      options->work_dir = value;
    } else if (arg == "--source-id") {
      options->source_id = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed;
}

double Mean(double sum, int count) {
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

void ReportTraining(const TrainStats& t, double generate_s, double init_s,
                    Report* report) {
  // Bounded training figures are CPU time: on a shared VM the hypervisor
  // takes vCPUs away for milliseconds at a time, which wall time counts
  // (and a superstep's barrier multiplies) but CPU time does not.
  report->EndToEnd("tokens_per_cpu_s", t.tokens_per_cpu_s, "tok/s");
  report->EndToEnd("train_cpu_s", t.train_cpu_s, "s");
  report->EndToEnd("heldout_perplexity", t.perplexity, "ppl");
  report->EndToEnd("diffusion_auc", t.diffusion_auc, "auc");
  report->Layer("tokens_per_s", t.tokens_per_s, "tok/s");
  report->Layer("train_s", t.train_s, "s");

  report->Layer("data.generate_s", generate_s, "s");
  report->Layer("core.init_s", init_s, "s");
  const bool parallel = t.gather_s + t.scatter_s > 0.0;
  const double superstep = parallel ? Mean(t.superstep_s, t.sweeps) : 0.0;
  const double gather = Mean(t.gather_s, t.sweeps);
  const double apply = Mean(t.apply_s, t.sweeps);
  const double scatter = Mean(t.scatter_s, t.sweeps);
  report->Layer("core.parallel.superstep_s", superstep, "s");
  report->Layer("engine.gather_s", gather, "s");
  report->Layer("engine.apply_s", apply, "s");
  report->Layer("engine.scatter_s", scatter, "s");
  report->Layer("engine.merge_s", Mean(t.merge_s, t.sweeps), "s");
  report->Layer("core.parallel.residual_s",
                parallel ? superstep - gather - apply - scatter : 0.0, "s");
  report->Layer("engine.worker_util", t.worker_util, "ratio");
  report->Layer("core.serial.sweep_s",
                parallel ? 0.0 : Mean(t.superstep_s, t.sweeps), "s");
  report->Layer("core.serial.post_phase_s", Mean(t.post_phase_s, t.sweeps),
                "s");
  report->Layer("core.serial.link_phase_s", Mean(t.link_phase_s, t.sweeps),
                "s");
  report->Layer("core.checkpoint.serialize_s",
                Mean(t.serialize_s, t.checkpoints), "s");
  report->Layer("core.checkpoint.write_s", Mean(t.write_s, t.checkpoints),
                "s");
  report->Layer("core.checkpoint.bytes", Mean(t.checkpoint_bytes,
                                              t.checkpoints),
                "bytes");
}

void ReportServing(const ServeStats& s, Report* report) {
  // Server CPU per answered request over both fixed-rate phases. The
  // latency figures are reported, unbounded, with the layers: on the shared
  // 4-vCPU host the benchmark was tuned on, their run-to-run spread was
  // wider than any usable bound (see perfbench/README.md).
  const PhaseResult& l = s.light;
  const PhaseResult& h = s.heavy;
  report->EndToEnd("cpu_us_per_request",
                   (l.server_cpu_s + h.server_cpu_s) * 1e6 /
                       static_cast<double>(
                           std::max<int64_t>(l.completed + h.completed, 1)),
                   "us");
  report->Layer("p50_ms.light", l.p50_ms, "ms");
  report->Layer("p50_ms.heavy", h.p50_ms, "ms");
  report->Layer("p99_ms.light", l.p99_ms, "ms");
  report->Layer("p99_ms.heavy", h.p99_ms, "ms");
  report->Layer("slo_rps", s.slo_rps, "req/s");

  report->Layer("core.model_io.arena_save_s", s.arena_save_s, "s");
  report->Layer("serve.arena_load_s", s.arena_load_s, "s");
  report->Layer("serve.handler_us.p50", Quantile(h.handler_us, 0.5), "us");
  report->Layer("serve.handler_us.p99", Quantile(h.handler_us, 0.99), "us");
  report->Layer("serve.transport_us.p50", Quantile(h.transport_us, 0.5), "us");
  report->Layer("serve.transport_us.p99", Quantile(h.transport_us, 0.99),
                "us");
  const double lookups = s.cache_hits + s.cache_misses;
  report->Layer("serve.cache_hit_ratio",
                lookups > 0.0 ? s.cache_hits / lookups : 0.0, "ratio");
  report->Layer("serve.batch_size.mean",
                s.batches > 0.0 ? s.batched_requests / s.batches : 0.0,
                "requests");
  report->Layer("serve.batches", s.batches, "count");
  report->Layer("serve.reload_swap_us.p99", s.reload_swap_p99_us, "us");
  report->Layer("serve.reloads", s.reloads, "count");
  report->Layer("serve.shed_total", s.shed_total, "count");
  report->Layer("serve.errors", s.errors, "count");
  report->Layer("core.predictor.posterior_us", s.posterior_us, "us");
  report->Layer("core.predictor.diffusion_us", s.diffusion_us, "us");
  report->Layer("core.predictor.timestamp_us", s.timestamp_us, "us");
  report->Layer("core.predictor.link_us", s.link_us, "us");
  report->Layer("client.generator_lag_ms.p99", h.generator_lag_p99_ms, "ms");
  int64_t sent = 0, completed = 0, failed = 0;
  for (const PhaseResult* p : {&s.light, &s.heavy}) {
    sent += p->sent;
    completed += p->completed;
    failed += p->failed;
  }
  report->Layer("client.sent", static_cast<double>(sent), "count");
  report->Layer("client.completed", static_cast<double>(completed), "count");
  report->Layer("client.failed", static_cast<double>(failed), "count");
}

/// Prints the two ledgers of the traced run on stderr: superstep (or
/// sweep) time and client latency, each with its residual.
void PrintLedgers(const TrainStats& t, const ServeStats& s) {
  const double n = static_cast<double>(std::max(t.sweeps, 1));
  const double step = t.superstep_s / n;
  if (t.gather_s + t.scatter_s > 0.0) {
    const double g = t.gather_s / n, a = t.apply_s / n, sc = t.scatter_s / n;
    std::fprintf(stderr,
                 "ledger superstep_s %.6f = gather %.6f + apply %.6f + "
                 "scatter %.6f (merge %.6f inside) + residual %.6f\n",
                 step, g, a, sc, t.merge_s / n, step - g - a - sc);
  } else {
    const double p = t.post_phase_s / n, l = t.link_phase_s / n;
    std::fprintf(stderr,
                 "ledger sweep_s %.6f = post %.6f + link %.6f + residual "
                 "%.6f; train_s %.4f = sweeps %.4f + checkpoints %.4f + "
                 "other %.4f\n",
                 step, p, l, step - p - l, t.train_s, t.superstep_s,
                 t.serialize_s + t.write_s,
                 t.train_s - t.superstep_s - t.serialize_s - t.write_s);
  }
  for (const PhaseResult* p : {&s.light, &s.heavy}) {
    double client = 0.0, handler = 0.0;
    for (double v : p->handler_us) handler += v;
    for (double v : p->transport_us) client += v;
    const double k = static_cast<double>(std::max<size_t>(
        p->handler_us.size(), 1));
    client = (client + handler) / k;
    handler /= k;
    std::fprintf(stderr,
                 "ledger client_us(mean, %.0f req/s) %.2f = handler %.2f + "
                 "transport %.2f (residual)\n",
                 p->offered_rps, client, handler, client - handler);
  }
}

int Run(const Options& options) {
  Workload w;
  if (!FindWorkload(options.workload, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  cold::Logger::SetLevel(cold::LogLevel::kWarning);
  if (options.trace) SpanLog::Enable();
  const std::string work_dir =
      options.work_dir + "/" + w.name + "-" + std::to_string(options.seed);
  std::error_code mkdir_error;
  std::filesystem::create_directories(work_dir, mkdir_error);

  const double wall0 = Now();
  const double steal0 = HostStealSeconds();
  Report report;
  AddProvenance(&report);
  report.Info("workload", w.name);
  report.Info("source", options.source_id);
  report.Info("seed", std::to_string(options.seed));
  report.Info("seconds", std::to_string(options.seconds));
  report.Info("train_threads",
              std::to_string(w.train.trainer == TrainerKind::kParallel
                                 ? kTrainThreads
                                 : 1));
  report.Info("reactors", std::to_string(kReactors));
  report.Info("replicas", std::to_string(kReplicas));
  report.Info("connections", std::to_string(kConnections));

  const double serve_seconds = w.serve_share * options.seconds;
  w.train.timed_sweeps = std::max(
      5, static_cast<int>(w.sweeps_per_second * options.seconds + 0.5));
  const bool inject_step = options.inject == Inject::kStep;
  const bool inject_handler = options.inject == Inject::kHandler;

  // Set-up, repeated; the last repetition is the one measured further.
  std::vector<double> setup_s;
  std::unique_ptr<TrainingRun> run;
  for (int r = 0; r < kSetupRepeats; ++r) {
    run.reset();
    malloc_trim(0);  // Hand the last repetition's memory back first.
    const double t0 = Now();
    run = TrainingRun::Setup(w.train, options.seed);
    if (run == nullptr) return 1;
    setup_s.push_back(Now() - t0);
  }
  report.EndToEnd("setup_s", Median(setup_s), "s");

  const TrainStats training =
      run->Train(work_dir + "/checkpoints", inject_step, &report);
  std::unique_ptr<ServeStage> stage =
      ServeStage::Start(w.serve, run->estimates(),
                        w.train.model.top_communities, run->post_split(),
                        work_dir, options.seed, inject_handler, &report);
  if (stage == nullptr) return 1;
  report.Attempted(static_cast<int64_t>(training.sweeps), 0);
  ReportTraining(training, run->generate_s(), run->init_s(), &report);

  const ServeStats serving = stage->Run(serve_seconds, options.trace, &report);
  report.Attempted(serving.attempted, serving.failed);
  for (const auto& [name, p] : {std::pair{"light", &serving.light},
                                std::pair{"heavy", &serving.heavy}}) {
    report.Info(std::string(name) + "_phase",
                std::to_string(static_cast<int64_t>(p->offered_rps)) +
                    " req/s offered, " + std::to_string(p->sent) + " sent, " +
                    std::to_string(p->failed) + " failed");
  }
  ReportServing(serving, &report);
  stage.reset();

  report.EndToEnd("peak_rss_mb", serving.peak_rss_mb, "MiB");
  // How much of the machine other guests took during the run: the first
  // thing to look at when a run's timings stand out.
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  char steal[32];
  std::snprintf(steal, sizeof(steal), "%.3f",
                (HostStealSeconds() - steal0) /
                    ((Now() - wall0) * static_cast<double>(std::max(cpus, 1L))));
  report.Info("host_steal_share", steal);
  if (options.trace) {
    PrintLedgers(training, serving);
    const std::string trace_path = work_dir + "/spans.json";
    report.Check(SpanLog::WriteChromeTrace(trace_path), "write " + trace_path);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 SpanLog::size(), trace_path.c_str());
  }
  std::fprintf(stderr,
               "perfbench: %s slo_rps %.0f ladder:", w.name, serving.slo_rps);
  for (const PhaseResult& p : serving.ladder) {
    std::fprintf(stderr, " %.0f%s(p99 %.2f ms)", p.offered_rps,
                 p.over_capacity ? "[over]" : "", p.p99_ms);
  }
  std::fprintf(stderr, "\n");
  report.Print(options.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) return perfbench::Usage();
  if (options.work_dir.empty()) options.work_dir = ".bench_build/perfbench-run";
  return perfbench::Run(options);
}
