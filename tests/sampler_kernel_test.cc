// Guard tests for the lgamma-collapsed topic kernel and the vocab-size
// derivation (sampler-performance PR): the optimized kernel must agree
// with the per-token reference loop to 1e-9, fixed-seed sweeps must stay
// deterministic for both trainers, and the samplers must honor
// ColdConfig::vocab_size over the training-split max word id.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/alias_table.h"
#include "core/cold.h"
#include "core/predictor.h"
#include "core/sparse_topic_kernel.h"
#include "data/synthetic.h"
#include "util/math_util.h"

namespace cold::core {
namespace {

data::SyntheticConfig TestDataConfig() {
  data::SyntheticConfig config;
  config.num_users = 120;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_time_slices = 10;
  config.core_words_per_topic = 12;
  config.background_words = 60;
  config.posts_per_user = 9.0;
  config.words_per_post = 8.0;
  config.follows_per_user = 8;
  config.seed = 23;
  return config;
}

const data::SocialDataset& TestData() {
  static const data::SocialDataset* dataset = [] {
    data::SyntheticSocialGenerator gen(TestDataConfig());
    return new data::SocialDataset(std::move(gen.Generate()).ValueOrDie());
  }();
  return *dataset;
}

ColdConfig TestModelConfig() {
  ColdConfig config;
  config.num_communities = 4;
  config.num_topics = 6;
  config.iterations = 20;
  config.burn_in = 10;
  config.seed = 29;
  config.rho = 0.5;
  return config;
}

// ------------------------------------------------- LogAscendingFactorial --

TEST(LogAscendingFactorialTest, ZeroAndNegativeCountsAreZero) {
  EXPECT_EQ(LogAscendingFactorial(3.7, 0), 0.0);
  EXPECT_EQ(LogAscendingFactorial(3.7, -2), 0.0);
  EXPECT_EQ(LogAscendingFactorial(3.7, 0, LGamma(3.7)), 0.0);
}

TEST(LogAscendingFactorialTest, MatchesExplicitLoop) {
  // Bases spanning the prior-only (0.01) to heavy-count (5000) regimes,
  // counts straddling kLogAscFactorialSmallCount so both branches are hit.
  const double bases[] = {0.01, 0.5, 3.7, 120.0, 5000.0};
  for (double base : bases) {
    for (int cnt = 1; cnt <= 24; ++cnt) {
      double expected = 0.0;
      for (int q = 0; q < cnt; ++q) expected += std::log(base + q);
      EXPECT_NEAR(LogAscendingFactorial(base, cnt), expected, 1e-9)
          << "base=" << base << " cnt=" << cnt;
    }
  }
}

TEST(LogAscendingFactorialTest, CachedBaseOverloadMatches) {
  const double bases[] = {0.3, 41.5, 900.0};
  for (double base : bases) {
    double lgamma_base = LGamma(base);
    for (int cnt = 0; cnt <= 20; ++cnt) {
      EXPECT_DOUBLE_EQ(LogAscendingFactorial(base, cnt, lgamma_base),
                       LogAscendingFactorial(base, cnt))
          << "base=" << base << " cnt=" << cnt;
    }
  }
}

// ------------------------------------------------------- Topic kernel ----

/// Per-token-log reference for Eq. (3): the pre-optimization kernel, with
/// live std::log community/time terms and explicit ascending-factorial
/// loops over the Dirichlet-multinomial word/length terms.
std::vector<double> ReferenceTopicLogWeights(const ColdGibbsSampler& sampler,
                                             const text::PostStore& posts,
                                             text::PostId d, int community) {
  const ColdState& state = sampler.state();
  const ColdConfig& config = sampler.config();
  const int K = config.num_topics;
  const int T = posts.num_time_slices();
  const int V = state.V();
  const double alpha = config.ResolvedAlpha();
  const double beta = config.beta;
  const double epsilon = config.epsilon;
  const int t = posts.time(d);
  const int len = posts.length(d);
  auto word_counts = posts.WordCounts(d);

  std::vector<double> log_weights(static_cast<size_t>(K));
  for (int k = 0; k < K; ++k) {
    double lw = std::log(state.n_ck(community, k) + alpha) +
                std::log(state.n_ckt(community, k, t) + epsilon) -
                std::log(state.n_ck(community, k) + T * epsilon);
    for (const auto& [w, cnt] : word_counts) {
      double base = state.n_kv(k, w) + beta;
      for (int q = 0; q < cnt; ++q) lw += std::log(base + q);
    }
    double denom = state.n_k(k) + V * beta;
    for (int q = 0; q < len; ++q) lw -= std::log(denom + q);
    log_weights[static_cast<size_t>(k)] = lw;
  }
  return log_weights;
}

void ExpectKernelMatchesReference(ColdGibbsSampler* sampler,
                                  const text::PostStore& posts) {
  const int C = sampler->config().num_communities;
  const int K = sampler->config().num_topics;
  std::vector<double> optimized(static_cast<size_t>(K));
  double worst = 0.0;
  for (text::PostId d = 0; d < posts.num_posts(); ++d) {
    for (int c = 0; c < C; ++c) {
      sampler->TopicLogWeights(d, c, optimized);
      std::vector<double> reference =
          ReferenceTopicLogWeights(*sampler, posts, d, c);
      for (int k = 0; k < K; ++k) {
        double diff = std::abs(optimized[static_cast<size_t>(k)] -
                               reference[static_cast<size_t>(k)]);
        worst = std::max(worst, diff);
        ASSERT_NEAR(optimized[static_cast<size_t>(k)],
                    reference[static_cast<size_t>(k)], 1e-9)
            << "post " << d << " community " << c << " topic " << k;
      }
    }
  }
  // The whole sweep must stay within the guard tolerance, not just each
  // individual entry.
  EXPECT_LT(worst, 1e-9);
}

TEST(TopicKernelTest, MatchesPerTokenReferenceOnSyntheticData) {
  const auto& ds = TestData();
  ColdGibbsSampler sampler(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  // Check against the random-init counters and again after sweeps have
  // moved them (exercising the incremental cache refresh).
  ExpectKernelMatchesReference(&sampler, ds.posts);
  for (int it = 0; it < 3; ++it) sampler.RunIteration();
  ExpectKernelMatchesReference(&sampler, ds.posts);
}

TEST(TopicKernelTest, HandlesEmptyAndRepeatedWordPosts) {
  // Hand-built corpus hitting the edge cases the synthetic data avoids:
  // an empty post (len = 0, no word term at all), a post of one word
  // repeated past kLogAscFactorialSmallCount (lgamma path for the word
  // term), and a long mixed post (lgamma path for the length denominator).
  text::PostStore posts;
  std::vector<text::WordId> empty;
  std::vector<text::WordId> repeated(12, 3);
  std::vector<text::WordId> mixed;
  for (int q = 0; q < 20; ++q) mixed.push_back(q % 5);
  posts.Add(0, 0, empty);
  posts.Add(0, 1, repeated);
  posts.Add(1, 0, mixed);
  posts.Add(1, 1, {});
  posts.Finalize(/*min_users=*/2, /*min_time_slices=*/2);

  ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 3;
  config.iterations = 4;
  config.burn_in = 1;
  config.seed = 7;
  config.use_network = false;
  ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  ExpectKernelMatchesReference(&sampler, posts);
  for (int it = 0; it < 2; ++it) sampler.RunIteration();
  ExpectKernelMatchesReference(&sampler, posts);
}

// ---------------------------------------------------- Sweep equivalence --

TEST(SweepEquivalenceTest, SerialFixedSeedTrajectoriesIdentical) {
  const auto& ds = TestData();
  ColdGibbsSampler a(TestModelConfig(), ds.posts, &ds.interactions);
  ColdGibbsSampler b(TestModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());
  for (int it = 0; it < 4; ++it) {
    a.RunIteration();
    b.RunIteration();
    ASSERT_EQ(a.state().post_topic, b.state().post_topic) << "sweep " << it;
    ASSERT_EQ(a.state().post_community, b.state().post_community)
        << "sweep " << it;
    ASSERT_EQ(a.state().link_src_community, b.state().link_src_community)
        << "sweep " << it;
  }
}

TEST(SweepEquivalenceTest, ParallelFixedSeedTrajectoriesIdentical) {
  const auto& ds = TestData();
  // Single node, single worker: the engine's deterministic configuration.
  engine::EngineOptions options;
  options.num_nodes = 1;
  options.threads_per_node = 1;
  ParallelColdTrainer a(TestModelConfig(), ds.posts, &ds.interactions,
                        options);
  ParallelColdTrainer b(TestModelConfig(), ds.posts, &ds.interactions,
                        options);
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());
  for (int s = 0; s < 3; ++s) {
    a.RunSuperstep();
    b.RunSuperstep();
    ColdState sa = a.StateSnapshot();
    ColdState sb = b.StateSnapshot();
    ASSERT_EQ(sa.post_topic, sb.post_topic) << "superstep " << s;
    ASSERT_EQ(sa.post_community, sb.post_community) << "superstep " << s;
    ASSERT_EQ(sa.link_src_community, sb.link_src_community)
        << "superstep " << s;
  }
}

// ----------------------------------------------------------- Vocab size --

/// A "training split" whose max word id (4) undershoots the dataset-wide
/// vocabulary (10 words): exactly the shape that used to under-size
/// n_kv/phi and make the predictor reject held-out posts.
text::PostStore LowVocabTrainPosts() {
  text::PostStore posts;
  std::vector<text::WordId> w0 = {0, 1, 2};
  std::vector<text::WordId> w1 = {2, 3, 4, 4};
  std::vector<text::WordId> w2 = {1, 0, 3};
  posts.Add(0, 0, w0);
  posts.Add(1, 1, w1);
  posts.Add(2, 0, w2);
  posts.Finalize(/*min_users=*/3, /*min_time_slices=*/2);
  return posts;
}

TEST(VocabSizeTest, SerialSamplerUsesConfiguredVocab) {
  text::PostStore posts = LowVocabTrainPosts();
  ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.iterations = 6;
  config.burn_in = 2;
  config.use_network = false;
  config.vocab_size = 10;
  ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  EXPECT_EQ(sampler.state().V(), 10);
  ASSERT_TRUE(sampler.Train().ok());

  // The predictor built from these estimates must accept a held-out post
  // using word ids the training split never saw.
  ColdEstimates estimates = sampler.AveragedEstimates();
  EXPECT_EQ(estimates.V, 10);
  ColdPredictor predictor(estimates);
  std::vector<text::WordId> held_out = {7, 9};
  EXPECT_TRUE(predictor.ValidateQuery(0, held_out).ok());
  EXPECT_FALSE(predictor.TopicPosterior(held_out, 0).empty());
}

TEST(VocabSizeTest, SerialSamplerRejectsUndersizedVocab) {
  text::PostStore posts = LowVocabTrainPosts();
  ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.use_network = false;
  config.vocab_size = 3;  // max word id is 4 -> needs at least 5
  ColdGibbsSampler sampler(config, posts, nullptr);
  cold::Status status = sampler.Init();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), cold::StatusCode::kInvalidArgument);
}

TEST(VocabSizeTest, ParallelTrainerUsesConfiguredVocab) {
  text::PostStore posts = LowVocabTrainPosts();
  ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.iterations = 4;
  config.burn_in = 1;
  config.use_network = false;
  config.vocab_size = 10;
  ParallelColdTrainer trainer(config, posts, nullptr);
  ASSERT_TRUE(trainer.Init().ok());
  EXPECT_EQ(trainer.StateSnapshot().V(), 10);

  config.vocab_size = 3;
  ParallelColdTrainer undersized(config, posts, nullptr);
  cold::Status status = undersized.Init();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), cold::StatusCode::kInvalidArgument);
}

TEST(VocabSizeTest, DefaultStillDerivesFromPosts) {
  text::PostStore posts = LowVocabTrainPosts();
  ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 2;
  config.use_network = false;
  ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  EXPECT_EQ(sampler.state().V(), 5);  // max word id 4 + 1
}

// ------------------------------------------------ Sparse topic kernel ----

ColdConfig SparseModelConfig() {
  ColdConfig config = TestModelConfig();
  config.topic_sampling = TopicSampling::kSparse;
  return config;
}

/// The O(length) single-topic evaluator must agree with the dense row (the
/// kernel already pinned to the per-token reference above) to the same
/// 1e-9 guard, over every (post, community, topic).
void ExpectSingleTopicEvaluatorMatchesRow(ColdGibbsSampler* sampler,
                                          const text::PostStore& posts) {
  const int C = sampler->config().num_communities;
  const int K = sampler->config().num_topics;
  std::vector<double> row(static_cast<size_t>(K));
  for (text::PostId d = 0; d < posts.num_posts(); ++d) {
    for (int c = 0; c < C; ++c) {
      sampler->TopicLogWeights(d, c, row);
      for (int k = 0; k < K; ++k) {
        ASSERT_NEAR(sampler->TopicLogWeightOne(d, c, k),
                    row[static_cast<size_t>(k)], 1e-9)
            << "post " << d << " community " << c << " topic " << k;
      }
    }
  }
}

TEST(SparseKernelTest, SingleTopicEvaluatorMatchesDenseRow) {
  const auto& ds = TestData();
  ColdGibbsSampler sampler(SparseModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  EXPECT_TRUE(sampler.sparse_topic_sampling());
  ExpectSingleTopicEvaluatorMatchesRow(&sampler, ds.posts);
  for (int it = 0; it < 3; ++it) sampler.RunIteration();
  ExpectSingleTopicEvaluatorMatchesRow(&sampler, ds.posts);
  EXPECT_TRUE(sampler.state()
                  .CheckInvariants(ds.posts, &ds.interactions, true)
                  .ok());
}

TEST(SparseKernelTest, SingleTopicEvaluatorMatchesOnDensePath) {
  // TopicLogWeightOne must also be exact when the sparse tables are not
  // built (dense-configured sampler: live-lgamma fallback for the length
  // term).
  const auto& ds = TestData();
  ColdConfig config = TestModelConfig();
  config.topic_sampling = TopicSampling::kDense;
  ColdGibbsSampler sampler(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  EXPECT_FALSE(sampler.sparse_topic_sampling());
  for (int it = 0; it < 2; ++it) sampler.RunIteration();
  ExpectSingleTopicEvaluatorMatchesRow(&sampler, ds.posts);
}

TEST(SparseKernelTest, HandlesEmptyAndRepeatedWordPosts) {
  // Same edge-case corpus as the dense kernel test: empty posts (length
  // 0 — the MH accept ratio reduces to the prior mass), a word repeated
  // past kLogAscFactorialSmallCount, and a long mixed post.
  text::PostStore posts;
  std::vector<text::WordId> empty;
  std::vector<text::WordId> repeated(12, 3);
  std::vector<text::WordId> mixed;
  for (int q = 0; q < 20; ++q) mixed.push_back(q % 5);
  posts.Add(0, 0, empty);
  posts.Add(0, 1, repeated);
  posts.Add(1, 0, mixed);
  posts.Add(1, 1, {});
  posts.Finalize(/*min_users=*/2, /*min_time_slices=*/2);

  ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 3;
  config.iterations = 4;
  config.burn_in = 1;
  config.seed = 7;
  config.use_network = false;
  config.topic_sampling = TopicSampling::kSparse;
  ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  ASSERT_TRUE(sampler.sparse_topic_sampling());
  ExpectSingleTopicEvaluatorMatchesRow(&sampler, posts);
  for (int it = 0; it < 3; ++it) sampler.RunIteration();
  ExpectSingleTopicEvaluatorMatchesRow(&sampler, posts);
  EXPECT_TRUE(sampler.state().CheckInvariants(posts, nullptr, false).ok());
}

TEST(SparseKernelTest, SingleActiveTopicDocument) {
  // One post, so exactly one topic carries counts anywhere: the alias rows
  // are near-degenerate (all other topics at prior-only mass) and the MH
  // chain must still mix over them without leaving the support.
  text::PostStore posts;
  std::vector<text::WordId> words = {0, 1, 2, 1};
  posts.Add(0, 0, words);
  posts.Finalize(/*min_users=*/1, /*min_time_slices=*/1);

  ColdConfig config;
  config.num_communities = 2;
  config.num_topics = 4;
  config.iterations = 4;
  config.burn_in = 1;
  config.seed = 11;
  config.use_network = false;
  config.topic_sampling = TopicSampling::kSparse;
  ColdGibbsSampler sampler(config, posts, nullptr);
  ASSERT_TRUE(sampler.Init().ok());
  ExpectSingleTopicEvaluatorMatchesRow(&sampler, posts);
  for (int it = 0; it < 3; ++it) sampler.RunIteration();
  ExpectSingleTopicEvaluatorMatchesRow(&sampler, posts);
  EXPECT_TRUE(sampler.state().CheckInvariants(posts, nullptr, false).ok());
}

TEST(SparseKernelTest, SerialSparseFixedSeedTrajectoriesIdentical) {
  const auto& ds = TestData();
  ColdGibbsSampler a(SparseModelConfig(), ds.posts, &ds.interactions);
  ColdGibbsSampler b(SparseModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(a.Init().ok());
  ASSERT_TRUE(b.Init().ok());
  for (int it = 0; it < 4; ++it) {
    a.RunIteration();
    b.RunIteration();
    ASSERT_EQ(a.state().post_topic, b.state().post_topic) << "sweep " << it;
    ASSERT_EQ(a.state().post_community, b.state().post_community)
        << "sweep " << it;
    ASSERT_EQ(a.state().link_src_community, b.state().link_src_community)
        << "sweep " << it;
  }
}

TEST(SparseKernelTest, CheckpointResumeBitIdenticalOnSparsePath) {
  // Resume lands at a sweep boundary, where the alias bank is invalidated
  // wholesale — so the restored sampler's trajectory must not depend on the
  // alias staleness the original carried, bit for bit.
  const auto& ds = TestData();
  ColdConfig config = SparseModelConfig();
  ColdGibbsSampler first(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(first.Init().ok());
  for (int it = 0; it < 4; ++it) first.RunIteration();
  std::string snapshot;
  ASSERT_TRUE(first.SerializeState(&snapshot).ok());
  for (int it = 0; it < 3; ++it) first.RunIteration();

  ColdGibbsSampler resumed(config, ds.posts, &ds.interactions);
  ASSERT_TRUE(resumed.Init().ok());
  ASSERT_TRUE(resumed.RestoreState(snapshot).ok());
  for (int it = 0; it < 3; ++it) resumed.RunIteration();

  EXPECT_EQ(first.state().post_topic, resumed.state().post_topic);
  EXPECT_EQ(first.state().post_community, resumed.state().post_community);
  EXPECT_EQ(first.state().link_src_community,
            resumed.state().link_src_community);
  EXPECT_EQ(first.state().link_dst_community,
            resumed.state().link_dst_community);
}

TEST(SparseKernelTest, ParallelSparseWorkerCountBitIdentical) {
  // The parallel sparse path rebuilds every alias row from the frozen
  // counters at each superstep, so state must be byte-identical across
  // repeated runs AND across worker counts.
  const auto& ds = TestData();
  auto run = [&](int threads) {
    ColdConfig config = SparseModelConfig();
    config.iterations = 4;
    config.burn_in = 0;
    engine::EngineOptions options;
    options.threads_per_node = threads;
    options.oversubscribe = true;
    ParallelColdTrainer trainer(config, ds.posts, &ds.interactions, options);
    EXPECT_TRUE(trainer.Init().ok());
    EXPECT_TRUE(trainer.Train().ok());
    return trainer.StateSnapshot();
  };
  ColdState a = run(4);
  ColdState b = run(4);
  EXPECT_EQ(a.post_topic, b.post_topic);
  EXPECT_EQ(a.post_community, b.post_community);
  ColdState c = run(1);
  EXPECT_EQ(a.post_topic, c.post_topic);
  EXPECT_EQ(a.post_community, c.post_community);
  EXPECT_EQ(a.link_src_community, c.link_src_community);
  EXPECT_EQ(a.link_dst_community, c.link_dst_community);
  EXPECT_TRUE(a.CheckInvariants(ds.posts, &ds.interactions, true).ok());
}

TEST(SparseKernelTest, MhStationaryMatchesExactPosteriorEvenWhenStale) {
  // The MH accept step must make the draw exact for ANY full-support
  // proposal: a long chain's empirical distribution has to match the
  // softmax of the exact log-weights both for a fresh prior-mass proposal
  // and for a maximally stale (uniform) one.
  const auto& ds = TestData();
  ColdGibbsSampler sampler(SparseModelConfig(), ds.posts, &ds.interactions);
  ASSERT_TRUE(sampler.Init().ok());
  for (int it = 0; it < 3; ++it) sampler.RunIteration();

  const ColdState& state = sampler.state();
  const ColdConfig& config = sampler.config();
  const int K = config.num_topics;
  const int T = ds.posts.num_time_slices();
  const text::PostId d = 5;
  const int c = state.post_community[static_cast<size_t>(d)];
  const int t = ds.posts.time(d);

  // Exact target: softmax of the dense row.
  std::vector<double> lw(static_cast<size_t>(K));
  sampler.TopicLogWeights(d, c, lw);
  double max_lw = lw[0];
  for (double v : lw) max_lw = std::max(max_lw, v);
  std::vector<double> exact(static_cast<size_t>(K));
  double total = 0.0;
  for (int k = 0; k < K; ++k) {
    exact[static_cast<size_t>(k)] =
        std::exp(lw[static_cast<size_t>(k)] - max_lw);
    total += exact[static_cast<size_t>(k)];
  }
  for (double& v : exact) v /= total;

  std::vector<double> fresh(static_cast<size_t>(K));
  const double alpha = config.ResolvedAlpha();
  for (int k = 0; k < K; ++k) {
    double nck = state.n_ck(c, k);
    fresh[static_cast<size_t>(k)] =
        (nck + alpha) * (state.n_ckt(c, k, t) + config.epsilon) /
        (nck + T * config.epsilon);
  }
  std::vector<double> stale(static_cast<size_t>(K), 1.0);

  for (const auto& weights : {fresh, stale}) {
    AliasTable proposal;
    proposal.Build(weights);
    RandomSampler rng(99, 3);
    std::vector<int> counts(static_cast<size_t>(K), 0);
    const int kDraws = 60000;
    int k = state.post_topic[static_cast<size_t>(d)];
    for (int i = 0; i < kDraws; ++i) {
      k = MhTopicDraw(proposal, k, /*mh_steps=*/2, rng,
                      [&](int kk) { return sampler.TopicLogWeightOne(d, c, kk); });
      counts[static_cast<size_t>(k)]++;
    }
    for (int kk = 0; kk < K; ++kk) {
      EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(kk)]) /
                      kDraws,
                  exact[static_cast<size_t>(kk)], 0.02)
          << "topic " << kk << (weights == stale ? " (stale)" : " (fresh)");
    }
  }
}

// ----------------------------------------------------------- AliasTable --

TEST(AliasTableTest, ProbabilitiesAndSamplingMatchWeights) {
  const std::vector<double> weights = {0.5, 3.0, 1.5, 0.0, 2.0};
  const double total = 7.0;
  AliasTable table;
  table.Build(weights);
  ASSERT_EQ(table.size(), weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(table.Probability(static_cast<int>(i)), weights[i] / total,
                1e-12);
    if (weights[i] > 0.0) {
      EXPECT_NEAR(table.LogProbability(static_cast<int>(i)),
                  std::log(weights[i] / total), 1e-12);
    } else {
      EXPECT_TRUE(std::isinf(table.LogProbability(static_cast<int>(i))));
    }
  }
  RandomSampler rng(7, 7);
  std::vector<int> counts(weights.size(), 0);
  const int kDraws = 70000;
  for (int i = 0; i < kDraws; ++i) counts[static_cast<size_t>(table.Sample(rng))]++;
  for (size_t i = 0; i < weights.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, weights[i] / total,
                0.01)
        << "index " << i;
  }
  // The zero-weight bucket must be exactly unreachable, not just rare.
  EXPECT_EQ(counts[3], 0);
}

TEST(AliasTableTest, DegenerateAndSingletonWeights) {
  AliasTable table;
  table.Build(std::vector<double>{0.0, 0.0, 0.0, 0.0});
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(table.Probability(i), 0.25);
  RandomSampler rng(3, 1);
  for (int i = 0; i < 100; ++i) {
    int s = table.Sample(rng);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
  table.Build(std::vector<double>{2.5});
  EXPECT_DOUBLE_EQ(table.Probability(0), 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(table.Sample(rng), 0);
}

TEST(AliasTableTest, RebuildsAreDeterministic) {
  const std::vector<double> weights = {1.0, 4.0, 0.5, 2.5};
  AliasTable a, b;
  a.Build(weights);
  b.Build(std::vector<double>{9.0, 1.0});  // dirty b's internal storage
  b.Build(weights);
  RandomSampler ra(17, 5), rb(17, 5);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.Sample(ra), b.Sample(rb));
}

// ------------------------------------------------------- TopicAliasBank --

TEST(TopicAliasBankTest, BudgetBoundariesAndInvalidate) {
  TopicAliasBank bank;
  bank.Reset(/*num_communities=*/2, /*num_time_slices=*/3, /*num_topics=*/4,
             /*rebuild_budget=*/3);
  // Everything starts dirty; a rebuild clears exactly that row.
  EXPECT_TRUE(bank.RowDirty(0, 0));
  EXPECT_TRUE(bank.RowDirty(1, 2));
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  for (int t = 0; t < 3; ++t) {
    bank.RebuildRow(0, t, weights);
    bank.RebuildRow(1, t, weights);
  }
  EXPECT_FALSE(bank.RowDirty(0, 0));
  // Updates below the budget leave rows clean; the budget-th update trips
  // every row of that community and only that community.
  bank.NoteCommunityUpdate(0);
  bank.NoteCommunityUpdate(0);
  EXPECT_FALSE(bank.RowDirty(0, 0));
  EXPECT_FALSE(bank.RowDirty(0, 2));
  bank.NoteCommunityUpdate(0);
  EXPECT_TRUE(bank.RowDirty(0, 0));
  EXPECT_TRUE(bank.RowDirty(0, 2));
  EXPECT_FALSE(bank.RowDirty(1, 0));
  // The trip resets the counter: the next budget-1 updates don't re-trip.
  for (int t = 0; t < 3; ++t) bank.RebuildRow(0, t, weights);
  bank.NoteCommunityUpdate(0);
  bank.NoteCommunityUpdate(0);
  EXPECT_FALSE(bank.RowDirty(0, 1));
  bank.NoteCommunityUpdate(0);
  EXPECT_TRUE(bank.RowDirty(0, 1));
  // InvalidateAll marks every row of every community.
  for (int t = 0; t < 3; ++t) bank.RebuildRow(0, t, weights);
  bank.InvalidateAll();
  for (int c = 0; c < 2; ++c) {
    for (int t = 0; t < 3; ++t) EXPECT_TRUE(bank.RowDirty(c, t));
  }
}

// -------------------------------------------------------- LGammaTable ----

TEST(LGammaTableTest, MatchesLogAscendingFactorial) {
  LGammaTable table;
  table.Build(/*offset=*/7.3, /*max_n=*/4096);
  ASSERT_TRUE(table.built());
  const int64_t bases[] = {0, 1, 5, 100, 4000};
  for (int64_t n : bases) {
    for (int cnt = 0; cnt <= 24; ++cnt) {
      double expected =
          LogAscendingFactorial(static_cast<double>(n) + 7.3, cnt);
      if (cnt < kLogAscFactorialSmallCount) {
        // Small counts use the identical log-loop — bit-identical, not
        // merely close.
        EXPECT_DOUBLE_EQ(table.LogAscFactorial(n, cnt), expected)
            << "n=" << n << " cnt=" << cnt;
      } else {
        EXPECT_NEAR(table.LogAscFactorial(n, cnt), expected, 1e-9)
            << "n=" << n << " cnt=" << cnt;
      }
    }
  }
  // Past the table end At() degrades to the live call.
  EXPECT_DOUBLE_EQ(table.At(5000), LGamma(5000.0 + 7.3));
}

// ------------------------------------------------------ LogCountTable ----

TEST(LogCountTableTest, MatchesLiveLogBitForBit) {
  for (double offset : {0.01, 0.5, 7.3}) {
    LogCountTable table;
    table.Build(offset, 300);
    ASSERT_EQ(table.size(), 301u);
    // Inside the table and past its end (the live fallback).
    for (int64_t n = 0; n < 1000; ++n) {
      const double live = std::log(static_cast<double>(n) + offset);
      EXPECT_EQ(std::bit_cast<uint64_t>(table.At(n)),
                std::bit_cast<uint64_t>(live))
          << "offset=" << offset << " n=" << n;
    }
  }
}

// ------------------------------------------------- Derived-cache drift ---

TEST(DerivedCacheDriftTest, ZeroAfterSweepsAndDetectsTampering) {
  const auto& ds = TestData();
  for (bool sparse : {false, true}) {
    ColdConfig config = sparse ? SparseModelConfig() : TestModelConfig();
    ColdGibbsSampler sampler(config, ds.posts, &ds.interactions);
    ASSERT_TRUE(sampler.Init().ok());
    for (int it = 0; it < 5; ++it) sampler.RunIteration();
    // Incremental refresh recomputes the exact expressions, so drift is
    // exactly zero — not merely small.
    EXPECT_EQ(sampler.MaxDerivedTableDrift(), 0.0) << "sparse=" << sparse;
    // The detector must actually see a counter that moved under the caches.
    sampler.mutable_state().n_ck(0, 0) += 1;
    EXPECT_GT(sampler.MaxDerivedTableDrift(), 0.0) << "sparse=" << sparse;
    sampler.mutable_state().n_ck(0, 0) -= 1;
    EXPECT_EQ(sampler.MaxDerivedTableDrift(), 0.0) << "sparse=" << sparse;
  }
}

TEST(DerivedCacheDriftTest, ParallelZeroAfterSuperstepsAndDetectsTampering) {
  const auto& ds = TestData();
  for (bool sparse : {false, true}) {
    for (int threads : {1, 3}) {
      ColdConfig config = sparse ? SparseModelConfig() : TestModelConfig();
      config.iterations = 8;
      config.burn_in = 0;
      engine::EngineOptions options;
      options.threads_per_node = threads;
      options.oversubscribe = true;
      ParallelColdTrainer trainer(config, ds.posts, &ds.interactions, options);
      ASSERT_TRUE(trainer.Init().ok());
      for (int s = 0; s < 3; ++s) trainer.RunSuperstep();
      // A sharded superstep rebuilds the tables from the frozen counters
      // and leaves those counters standing (its deltas wait for
      // ApplyGlobalUpdate), so every table entry, the own-excluded and
      // log-count tables included, must equal its live expression exactly.
      std::vector<uint8_t> all_chunks(
          static_cast<size_t>(trainer.NumScatterChunks()), 1);
      SuperstepUpdate update;
      ASSERT_TRUE(trainer.RunSuperstepSharded(all_chunks, &update).ok());
      EXPECT_EQ(trainer.MaxDerivedTableDrift(), 0.0)
          << "sparse=" << sparse << " threads=" << threads;

      // The probe must see one counter moved under the tables.
      const ColdState dims = trainer.StateSnapshot();
      const ParallelColdState layout(dims.U(), dims.C(), dims.K(), dims.T(),
                                     dims.V(), /*num_posts=*/0,
                                     /*num_links=*/0);
      const uint32_t n_ck00 = static_cast<uint32_t>(layout.dx_n_ck(0, 0));
      SuperstepUpdate tamper;
      tamper.count_deltas = {{n_ck00, 1}};
      ASSERT_TRUE(trainer.ApplyGlobalUpdate(tamper).ok());
      EXPECT_GT(trainer.MaxDerivedTableDrift(), 0.0)
          << "sparse=" << sparse << " threads=" << threads;
      tamper.count_deltas = {{n_ck00, -1}};
      ASSERT_TRUE(trainer.ApplyGlobalUpdate(tamper).ok());
      EXPECT_EQ(trainer.MaxDerivedTableDrift(), 0.0)
          << "sparse=" << sparse << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace cold::core
