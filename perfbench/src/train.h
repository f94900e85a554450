// The training half of a workload: synthetic corpus, its held-out splits,
// one trainer (the threaded GAS trainer or the serial Gibbs sampler), the
// timed sweep loop with optional checkpoints, and the §6 quality checks.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/cold_config.h"
#include "core/cold_estimates.h"
#include "data/social_dataset.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "harness.h"

namespace cold::core {
class ColdGibbsSampler;
class ParallelColdTrainer;
}  // namespace cold::core

namespace perfbench {

enum class TrainerKind { kParallel, kSerial };

/// Worker threads of the parallel trainer: three, leaving the fourth core
/// of the reference host to the main thread.
inline constexpr int kTrainThreads = 3;

struct TrainSpec {
  cold::data::SyntheticConfig corpus;
  cold::core::ColdConfig model;
  TrainerKind trainer = TrainerKind::kParallel;
  /// Untimed sweeps before the timed ones.
  int warmup_sweeps = 0;
  /// Timed sweeps: a fixed count, so train_s compares like for like.
  int timed_sweeps = 0;
  /// Serialize + durably write a checkpoint every N timed sweeps (0: off).
  int checkpoint_every = 0;
};

/// Everything one training run measured.
struct TrainStats {
  double tokens_per_s = 0.0;   // Median of per-sweep tokens/s.
  double train_s = 0.0;        // Wall time of the timed sweeps + checkpoints.
  double tokens_per_cpu_s = 0.0;  // Median of per-sweep tokens/CPU-second.
  double train_cpu_s = 0.0;    // Process CPU time of the timed span.
  double perplexity = 0.0;     // §6.2 on the held-out posts.
  double diffusion_auc = 0.0;  // §6.3 on the held-out retweet tuples.
  int64_t tokens_per_sweep = 0;
  int sweeps = 0;
  std::vector<double> sweep_s;  // Per timed sweep, hook excluded.
  std::vector<double> sweep_cpu_s;  // Process CPU time of each timed sweep.
  // Parallel trainer ledger, summed over the timed supersteps.
  double gather_s = 0.0, apply_s = 0.0, scatter_s = 0.0, merge_s = 0.0;
  double superstep_s = 0.0;  // Sum of sweep_s.
  double worker_util = 0.0;
  // Serial sampler phases, summed over the timed sweeps.
  double post_phase_s = 0.0, link_phase_s = 0.0;
  // Checkpoints.
  double serialize_s = 0.0, write_s = 0.0;
  double checkpoint_bytes = 0.0;
  int checkpoints = 0;
};

/// One corpus plus one initialized trainer. Built by Setup(), which is the
/// workload's set-up; the trainer references the corpus, so both live here.
class TrainingRun {
 public:
  /// Generates the corpus from `seed`, splits it, constructs and Init()s
  /// the trainer. Records data.generate_s and core.init_s.
  static std::unique_ptr<TrainingRun> Setup(const TrainSpec& spec,
                                            uint64_t seed);
  ~TrainingRun();
  TrainingRun(const TrainingRun&) = delete;
  TrainingRun& operator=(const TrainingRun&) = delete;

  /// Runs warm-up and timed sweeps, writing checkpoints under
  /// `checkpoint_dir`; `inject_step` adds the self-test's delay after each
  /// timed sweep (outside its timing, inside train_s and train_cpu_s).
  /// Checks the final state's invariants and evaluates the model.
  TrainStats Train(const std::string& checkpoint_dir, bool inject_step,
                   Report* report);

  /// Estimates of the final state (valid after Train()).
  const cold::core::ColdEstimates& estimates() const { return estimates_; }
  const cold::data::PostSplit& post_split() const { return post_split_; }
  double generate_s() const { return generate_s_; }
  double init_s() const { return init_s_; }

 private:
  TrainingRun() = default;
  void Evaluate(TrainStats* stats);

  TrainSpec spec_;
  cold::data::SocialDataset dataset_;
  cold::data::PostSplit post_split_;
  cold::data::RetweetSplit retweet_split_;
  std::unique_ptr<cold::core::ParallelColdTrainer> parallel_;
  std::unique_ptr<cold::core::ColdGibbsSampler> serial_;
  cold::core::ColdEstimates estimates_;
  double generate_s_ = 0.0;
  double init_s_ = 0.0;
};

}  // namespace perfbench
