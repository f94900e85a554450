#include "train.h"

#include <cmath>
#include <cstdio>
#include <span>
#include <utility>

#include "core/checkpoint.h"
#include "core/gibbs_sampler.h"
#include "core/parallel_sampler.h"
#include "core/predictor.h"
#include "eval/metrics.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

/// Held-out shares and split seeds; fixed so every run of a workload
/// evaluates on the same protocol (the split itself follows the corpus).
constexpr double kHeldOutPosts = 0.2;
constexpr double kHeldOutRetweets = 0.2;
constexpr size_t kMaxAucTuples = 400;

double SumTokens(const cold::text::PostStore& posts) {
  int64_t tokens = 0;
  for (cold::text::PostId d = 0; d < posts.num_posts(); ++d) {
    tokens += posts.length(d);
  }
  return static_cast<double>(tokens);
}

}  // namespace

TrainingRun::~TrainingRun() = default;

std::unique_ptr<TrainingRun> TrainingRun::Setup(const TrainSpec& spec,
                                                uint64_t seed) {
  std::unique_ptr<TrainingRun> run(new TrainingRun());
  run->spec_ = spec;
  run->spec_.corpus.seed = seed;
  run->spec_.model.seed = seed * 7919 + 13;

  double t0 = Now();
  auto generated =
      cold::data::SyntheticSocialGenerator(run->spec_.corpus).Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "perfbench: corpus generation failed: %s\n",
                 generated.status().ToString().c_str());
    return nullptr;
  }
  run->dataset_ = std::move(generated).ValueOrDie();
  run->post_split_ =
      cold::data::SplitPosts(run->dataset_.posts, kHeldOutPosts, seed, 0);
  run->retweet_split_ =
      cold::data::SplitRetweets(run->dataset_, kHeldOutRetweets, seed, 0);
  double t1 = Now();
  run->generate_s_ = t1 - t0;
  SpanLog::Record("data.generate", t0, t1, 0, 0);

  // Size n_kv by the whole vocabulary so held-out words stay in range.
  run->spec_.model.vocab_size = run->dataset_.vocabulary.size();
  run->spec_.model.iterations =
      spec.warmup_sweeps + spec.timed_sweeps + 1;
  run->spec_.model.burn_in = run->spec_.model.iterations - 1;
  const cold::graph::Digraph* links =
      &run->retweet_split_.train_interactions;
  cold::Status st;
  if (spec.trainer == TrainerKind::kParallel) {
    cold::engine::EngineOptions engine;
    engine.threads_per_node = kTrainThreads;
    engine.seed = run->spec_.model.seed;
    run->parallel_ = std::make_unique<cold::core::ParallelColdTrainer>(
        run->spec_.model, run->post_split_.train, links, engine);
    st = run->parallel_->Init();
  } else {
    run->serial_ = std::make_unique<cold::core::ColdGibbsSampler>(
        run->spec_.model, run->post_split_.train, links);
    st = run->serial_->Init();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: trainer init failed: %s\n",
                 st.ToString().c_str());
    return nullptr;
  }
  double t2 = Now();
  run->init_s_ = t2 - t1;
  SpanLog::Record("core.init", t1, t2, 0, 0);
  return run;
}

TrainStats TrainingRun::Train(const std::string& checkpoint_dir,
                              bool inject_step, Report* report) {
  TrainStats stats;
  const cold::text::PostStore& posts = post_split_.train;
  const cold::graph::Digraph* links = &retweet_split_.train_interactions;
  stats.tokens_per_sweep = static_cast<int64_t>(SumTokens(posts));

  auto& registry = cold::obs::Registry::Global();
  cold::obs::Gauge* post_phase =
      registry.GetGauge("cold/gibbs/phase_seconds", {{"phase", "post"}});
  cold::obs::Gauge* link_phase =
      registry.GetGauge("cold/gibbs/phase_seconds", {{"phase", "link"}});

  auto sweep_once = [&] {
    if (parallel_ != nullptr) {
      parallel_->RunSuperstep();
    } else {
      serial_->RunIteration();
    }
  };
  for (int i = 0; i < spec_.warmup_sweeps; ++i) sweep_once();

  cold::core::CheckpointManager checkpoints(
      cold::core::CheckpointOptions{checkpoint_dir, spec_.checkpoint_every, 2});
  if (spec_.checkpoint_every > 0) {
    report->Check(checkpoints.Init().ok(), "checkpoint directory");
  }
  const uint64_t fingerprint =
      spec_.checkpoint_every > 0 ? cold::core::DataFingerprint(posts, links)
                                 : 0;

  const double cpu0 = ProcessCpuSeconds();
  const double train0 = Now();
  for (int i = 1; i <= spec_.timed_sweeps; ++i) {
    const int64_t root = SpanLog::enabled() ? SpanLog::NextId() : 0;
    cold::engine::EngineStats before;
    if (parallel_ != nullptr) before = parallel_->engine_stats();
    const double c0 = ProcessCpuSeconds();
    const double s0 = Now();
    sweep_once();
    const double s1 = Now();
    stats.sweep_s.push_back(s1 - s0);
    stats.sweep_cpu_s.push_back(ProcessCpuSeconds() - c0);
    if (parallel_ != nullptr) {
      const cold::engine::EngineStats& after = parallel_->engine_stats();
      const double gather = after.gather_seconds - before.gather_seconds;
      const double apply = after.apply_seconds - before.apply_seconds;
      const double scatter = after.scatter_seconds - before.scatter_seconds;
      const double merge = after.merge_seconds - before.merge_seconds;
      stats.gather_s += gather;
      stats.apply_s += apply;
      stats.scatter_s += scatter;
      stats.merge_s += merge;
      // The engine reports phase durations, not their instants; lay them
      // out back to back from the superstep start (gather and apply are
      // one fused pass that the engine splits evenly).
      SpanLog::Record("engine.gather", s0, s0 + gather, root, i);
      SpanLog::Record("engine.apply", s0 + gather, s0 + gather + apply, root,
                      i);
      const double sc0 = s0 + gather + apply;
      const int64_t scatter_id = SpanLog::enabled() ? SpanLog::NextId() : 0;
      SpanLog::Record("engine.merge", sc0 + scatter - merge, sc0 + scatter,
                      scatter_id, i);
      SpanLog::Record("engine.scatter", sc0, sc0 + scatter, root, i,
                      scatter_id);
      SpanLog::Record("core.parallel.superstep", s0, s1, 0, i, root);
    } else {
      const double post = post_phase->Value();
      const double link = link_phase->Value();
      stats.post_phase_s += post;
      stats.link_phase_s += link;
      SpanLog::Record("core.serial.post_phase", s0, s0 + post, root, i);
      SpanLog::Record("core.serial.link_phase", s0 + post, s0 + post + link,
                      root, i);
      SpanLog::Record("core.serial.sweep", s0, s1, 0, i, root);
    }
    if (checkpoints.ShouldCheckpoint(i)) {
      const double c0 = Now();
      std::string payload;
      report->Check(serial_ != nullptr
                        ? serial_->SerializeState(&payload).ok()
                        : parallel_->SerializeState(&payload).ok(),
                    "checkpoint serialize");
      const double c1 = Now();
      cold::core::CheckpointMeta meta;
      meta.flavor = serial_ != nullptr ? cold::core::CheckpointFlavor::kSerial
                                       : cold::core::CheckpointFlavor::kParallel;
      meta.sweep = spec_.warmup_sweeps + i;
      meta.data_fingerprint = fingerprint;
      report->Check(checkpoints.Write(meta, payload).ok(), "checkpoint write");
      const double c2 = Now();
      stats.serialize_s += c1 - c0;
      stats.write_s += c2 - c1;
      stats.checkpoint_bytes += static_cast<double>(payload.size());
      ++stats.checkpoints;
      SpanLog::Record("core.checkpoint.serialize", c0, c1, 0, i);
      SpanLog::Record("core.checkpoint.write", c1, c2, 0, i);
    }
    if (inject_step) {
      // Self-test slowdown: half this sweep's CPU time again, spun on this
      // thread after its timing.
      const double h0 = Now();
      SpinFor(kInjectedSlowdown * stats.sweep_cpu_s.back());
      SpanLog::Record("perfbench.injected_step_delay", h0, Now(), 0, i);
    }
  }
  const double train1 = Now();
  stats.train_s = train1 - train0;
  stats.sweeps = spec_.timed_sweeps;
  for (double s : stats.sweep_s) stats.superstep_s += s;
  std::vector<double> rates;
  for (double s : stats.sweep_s) {
    rates.push_back(static_cast<double>(stats.tokens_per_sweep) / s);
  }
  stats.tokens_per_s = Median(rates);
  rates.clear();
  for (double s : stats.sweep_cpu_s) {
    rates.push_back(static_cast<double>(stats.tokens_per_sweep) / s);
  }
  stats.tokens_per_cpu_s = Median(rates);
  stats.train_cpu_s = ProcessCpuSeconds() - cpu0;
  if (parallel_ != nullptr) {
    stats.worker_util = stats.train_cpu_s /
                        (stats.train_s * static_cast<double>(kTrainThreads));
  }

  // Correctness: every counter equals a recount of the final assignments.
  const bool use_network = spec_.model.use_network;
  cold::Status invariants =
      parallel_ != nullptr
          ? parallel_->StateSnapshot().CheckInvariants(posts, links,
                                                       use_network)
          : serial_->state().CheckInvariants(posts, links, use_network);
  report->Check(invariants.ok(),
                "final state invariants: " + invariants.ToString());

  estimates_ = parallel_ != nullptr ? parallel_->Estimates()
                                    : serial_->EstimatesFromCurrentSample();
  Evaluate(&stats);
  report->Check(stats.perplexity > 1.0 && std::isfinite(stats.perplexity),
                "held-out perplexity is finite");
  report->Check(stats.diffusion_auc > 0.0 && stats.diffusion_auc < 1.0,
                "diffusion AUC is a probability");
  return stats;
}

void TrainingRun::Evaluate(TrainStats* stats) {
  cold::core::ColdPredictor predictor(estimates_,
                                      spec_.model.top_communities);
  stats->perplexity = predictor.Perplexity(post_split_.test);
  std::vector<cold::eval::ScoredTuple> scored;
  for (const cold::data::RetweetTuple& tuple : retweet_split_.test) {
    if (scored.size() >= kMaxAucTuples) break;
    cold::eval::ScoredTuple st;
    auto words = dataset_.posts.words(tuple.post);
    std::vector<double> posterior =
        predictor.TopicPosterior(words, tuple.author);
    for (cold::text::UserId u : tuple.retweeters) {
      st.positive_scores.push_back(
          predictor.DiffusionFromPosterior(tuple.author, u, posterior));
    }
    for (cold::text::UserId u : tuple.ignorers) {
      st.negative_scores.push_back(
          predictor.DiffusionFromPosterior(tuple.author, u, posterior));
    }
    scored.push_back(std::move(st));
  }
  stats->diffusion_auc = cold::eval::AveragedTupleAuc(scored);
}

}  // namespace perfbench
