// Scenario: training at scale on the GAS engine (§4.3). Shows the Fig-4
// graph abstraction in action: supersteps, engine statistics and the
// simulated cluster projection, plus a quality check that compares the
// parallel estimates with a serial run's: both read the last sample, and
// the example prints the measured perplexity gap.
#include <cstdio>

#include "core/cold.h"
#include "data/synthetic.h"
#include "util/logging.h"
#include "util/stopwatch.h"

int main() {
  using namespace cold;
  Logger::SetLevel(LogLevel::kWarning);

  data::SyntheticConfig data_config;
  data_config.num_users = 800;
  data_config.num_communities = 8;
  data_config.num_topics = 12;
  auto dataset = std::move(
      data::SyntheticSocialGenerator(data_config).Generate()).ValueOrDie();
  std::printf("dataset: %d users, %d posts, %lld links\n",
              dataset.num_users(), dataset.posts.num_posts(),
              static_cast<long long>(dataset.interactions.num_edges()));

  core::ColdConfig config;
  config.num_communities = 8;
  config.num_topics = 12;
  config.rho = 0.5;
  config.alpha = 0.5;
  config.kappa = 10.0;
  config.iterations = 60;
  config.burn_in = 0;

  // Serial reference. Both sides read the last Gibbs sample, so the
  // comparison is like for like.
  double serial_perplexity = 0.0;
  {
    Stopwatch watch;
    core::ColdGibbsSampler sampler(config, dataset.posts,
                                   &dataset.interactions);
    if (!sampler.Init().ok() || !sampler.Train().ok()) return 1;
    core::ColdPredictor predictor(sampler.EstimatesFromCurrentSample());
    serial_perplexity = predictor.Perplexity(dataset.posts);
    std::printf("\nserial sampler: %.2fs, perplexity %.1f\n",
                watch.ElapsedSeconds(), serial_perplexity);
  }

  // Parallel GAS run on a simulated 4-node cluster.
  double parallel_perplexity = 0.0;
  {
    engine::EngineOptions options;
    options.num_nodes = 4;
    core::ParallelColdTrainer trainer(config, dataset.posts,
                                      &dataset.interactions, options);
    if (!trainer.Init().ok() || !trainer.Train().ok()) return 1;
    core::ColdPredictor predictor(trainer.Estimates());
    parallel_perplexity = predictor.Perplexity(dataset.posts);
    std::printf(
        "parallel trainer (4 simulated nodes): %.2fs measured, %.2fs "
        "cluster projection, perplexity %.1f\n",
        trainer.engine_stats().total_seconds(), trainer.SimulatedWallSeconds(),
        parallel_perplexity);
  }
  std::printf("\nparallel vs serial perplexity: %+.1f%%\n",
              100.0 * (parallel_perplexity - serial_perplexity) /
                  serial_perplexity);
  return 0;
}
