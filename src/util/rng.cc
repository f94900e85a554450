#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/simd.h"

namespace cold {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) { Seed(seed, stream); }

void Pcg32::Seed(uint64_t seed, uint64_t stream) {
  state_ = 0;
  inc_ = (stream << 1u) | 1u;
  NextU32();
  state_ += seed;
  NextU32();
}

uint32_t Pcg32::NextU32() {
  uint64_t oldstate = state_;
  state_ = oldstate * 6364136223846793005ULL + inc_;
  uint32_t xorshifted =
      static_cast<uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
  uint32_t rot = static_cast<uint32_t>(oldstate >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

uint64_t Pcg32::NextU64() {
  return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
}

double Pcg32::NextDouble() {
  // 53 random bits into [0,1).
  return (NextU64() >> 11) * (1.0 / 9007199254740992.0);
}

uint32_t Pcg32::NextBounded(uint32_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  uint64_t m = static_cast<uint64_t>(NextU32()) * bound;
  uint32_t l = static_cast<uint32_t>(m);
  if (l < bound) {
    uint32_t t = -bound % bound;
    while (l < t) {
      m = static_cast<uint64_t>(NextU32()) * bound;
      l = static_cast<uint32_t>(m);
    }
  }
  return static_cast<uint32_t>(m >> 32);
}

double RandomSampler::Normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * Uniform() - 1.0;
    v = 2.0 * Uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

double RandomSampler::Gamma(double shape) {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia-Tsang trick).
    double u = Uniform();
    while (u == 0.0) u = Uniform();
    return Gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x, v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    double u = Uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double RandomSampler::Beta(double a, double b) {
  double x = Gamma(a);
  double y = Gamma(b);
  return x / (x + y);
}

int RandomSampler::Categorical(std::span<const double> weights, double total) {
  assert(!weights.empty());
  if (total < 0.0) {
    total = 0.0;
    for (double w : weights) total += w;
  }
  // Degenerate mass — all-zero weights (e.g. a post whose author has no
  // surviving community evidence) or a non-finite total: fall back to a
  // uniform draw rather than letting whatever index falls out of the CDF
  // scan win. NaN totals fail the > 0 comparison, so one branch covers
  // both cases.
  if (!(total > 0.0) || !std::isfinite(total)) {
    return static_cast<int>(
        UniformInt(static_cast<uint32_t>(weights.size())));
  }
  const double u01 = Uniform();
  double u = u01 * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return static_cast<int>(i);
  }
  // Falling off the end means the caller-supplied total overshoots the
  // actual mass (stale cached total), not just FP slack: silently returning
  // the last bucket would give it all the excess probability. `acc` now
  // holds the internally computed sum, so rescan against it. Conditioned on
  // the scan having fallen off, u01 * total is uniform on [acc, total), so
  // the remap below is uniform on [0, acc): the redraw is unbiased without
  // consuming another RNG draw (which would shift the fixed-seed
  // trajectories of callers passing exact totals). Reusing u01 * acc
  // directly would NOT work — u01 is conditioned on landing past the
  // actual mass, so it would dump everything back onto the tail buckets.
  if (acc > 0.0 && std::isfinite(acc) && total > acc) {
    u = (u01 * total - acc) / (total - acc) * acc;
    double acc2 = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc2 += weights[i];
      if (u < acc2) return static_cast<int>(i);
    }
  }
  // Floating-point slack: return the last positive-weight entry.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return static_cast<int>(i - 1);
  }
  return static_cast<int>(weights.size()) - 1;
}

int RandomSampler::LogCategorical(std::span<const double> log_weights) {
  assert(!log_weights.empty());
  // Vectorized max-shift scan (bit-identical to the scalar loop; see
  // util/simd.h).
  double max_lw = simd::MaxValue(log_weights.data(), log_weights.size());
  // Non-finite maximum — all -inf (every outcome impossible, e.g.
  // degenerate counters for an unseen author), a +inf entry, or NaN:
  // uniform fallback, mirroring Categorical's guard.
  if (!std::isfinite(max_lw)) {
    return static_cast<int>(
        UniformInt(static_cast<uint32_t>(log_weights.size())));
  }
  double total = 0.0;
  // Per-thread scratch: the dense topic kernels call this once per post, so
  // a per-call vector would be one heap allocation per post. Categorical
  // never re-enters here, so the buffer cannot alias.
  thread_local std::vector<double> w;
  w.resize(log_weights.size());
  for (size_t i = 0; i < log_weights.size(); ++i) {
    w[i] = std::exp(log_weights[i] - max_lw);
    total += w[i];
  }
  return Categorical(w, total);
}

std::vector<double> RandomSampler::Dirichlet(std::span<const double> alpha) {
  std::vector<double> x(alpha.size());
  double total = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    x[i] = Gamma(alpha[i]);
    total += x[i];
  }
  if (total <= 0.0) {
    // Degenerate underflow (all-tiny alphas): fall back to uniform.
    std::fill(x.begin(), x.end(), 1.0 / static_cast<double>(x.size()));
    return x;
  }
  for (double& v : x) v /= total;
  return x;
}

std::vector<double> RandomSampler::SymmetricDirichlet(double alpha, int n) {
  std::vector<double> a(static_cast<size_t>(n), alpha);
  return Dirichlet(a);
}

std::vector<int> RandomSampler::Multinomial(int n, std::span<const double> p) {
  std::vector<int> counts(p.size(), 0);
  for (int i = 0; i < n; ++i) {
    counts[static_cast<size_t>(Categorical(p, 1.0))]++;
  }
  return counts;
}

std::vector<int> RandomSampler::SampleWithoutReplacement(int n, int k) {
  assert(k <= n);
  std::vector<int> pool(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pool[static_cast<size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    int j = i + static_cast<int>(UniformInt(static_cast<uint32_t>(n - i)));
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
  }
  pool.resize(static_cast<size_t>(k));
  return pool;
}

std::vector<double> RandomSampler::MakeZipfTable(int n, double s) {
  std::vector<double> cdf(static_cast<size_t>(n));
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[static_cast<size_t>(i)] = total;
  }
  for (double& v : cdf) v /= total;
  return cdf;
}

}  // namespace cold
