// Counter state for the parallel sampler: ColdState's plain int32 tables
// plus one int32 delta buffer per worker.
//
// Scatter reads the canonical tables, which are FROZEN for the whole phase,
// and accumulates +/-1 updates into its worker's private delta buffer; the
// engine merges all buffers into the canonical tables at the superstep
// boundary (MergeDeltaRange, striped across the pool). Counter sums are
// integer and per-cell, so the merged result is independent of worker count
// and chunk scheduling — the basis of the trainer's multi-worker
// determinism guarantee (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/cold_state.h"

namespace cold::core {

#if defined(__cpp_lib_hardware_interference_size) && defined(__GNUC__) && \
    !defined(__clang__)
// GCC warns (-Winterference-size) that the value may differ between
// translation units compiled with different -mtune flags; this project
// builds every TU with one toolchain invocation, so the warning does not
// apply here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winterference-size"
inline constexpr std::size_t kCacheLineBytes =
    std::hardware_destructive_interference_size;
#pragma GCC diagnostic pop
#elif defined(__cpp_lib_hardware_interference_size)
inline constexpr std::size_t kCacheLineBytes =
    std::hardware_destructive_interference_size;
#else
// Portable fallback: 64 bytes covers x86-64 and mainstream ARM cores.
inline constexpr std::size_t kCacheLineBytes = 64;
#endif

/// \brief Counters + assignments for the GAS sampler: a ColdState (plain
/// int32 tables, same layout) plus one delta buffer per worker.
///
/// Nothing writes the canonical tables while scatter reads them: scatter
/// writes only its own edges' assignments and its worker's delta buffer,
/// each cache-line-aligned so no two workers' buffers share a line.
/// MergeDeltaRange writes disjoint ranges after the scatter barrier; Init,
/// ApplyDeltaEntries and RestoreFrom run between supersteps. The engine's
/// pool barriers order all of them against scatter.
class ParallelColdState : public ColdState {
 public:
  ParallelColdState(int num_users, int num_communities, int num_topics,
                    int num_time_slices, int vocab_size, int num_posts,
                    int64_t num_links);

  // Readers for the scatter kernels (the canonical counters are frozen
  // during scatter, so these are exact).
  int32_t r_n_ic(int i, int c) const { return n_ic(i, c); }
  int32_t r_n_ck(int c, int k) const { return n_ck(c, k); }
  int32_t r_n_c(int c) const { return n_c(c); }
  int32_t r_n_ckt(int c, int k, int t) const { return n_ckt(c, k, t); }
  int32_t r_n_kv(int k, int v) const { return n_kv(k, v); }
  int32_t r_n_k(int k) const { return n_k(k); }
  int32_t r_n_cc(int c, int c2) const { return n_cc(c, c2); }

  // --- per-worker delta tables --------------------------------------------
  //
  // Flat layout covering every counter table that scatter mutates (n_i never
  // changes mid-superstep: community moves preserve each user's indicator
  // total). Index helpers map (table, coordinates) to a flat offset shared
  // by all workers' buffers.

  /// Number of int32 cells in one worker's delta buffer.
  size_t delta_size() const { return delta_size_; }

  /// \brief Allocates (and zeroes) delta buffers so at least `num_workers`
  /// exist. Already-allocated buffers are preserved — they are zero between
  /// supersteps by the merge contract. Not thread-safe; call between phases.
  void EnsureDeltaBuffers(size_t num_workers);

  /// Worker `w`'s delta buffer (EnsureDeltaBuffers must cover w).
  int32_t* delta(size_t w) { return deltas_[w].get(); }

  size_t dx_n_ic(int i, int c) const {
    return off_ic_ + static_cast<size_t>(i) * C() + c;
  }
  size_t dx_n_ck(int c, int k) const {
    return off_ck_ + static_cast<size_t>(c) * K() + k;
  }
  size_t dx_n_c(int c) const { return off_c_ + static_cast<size_t>(c); }
  size_t dx_n_ckt(int c, int k, int t) const {
    return off_ckt_ + (static_cast<size_t>(c) * K() + k) * T() + t;
  }
  size_t dx_n_kv(int k, int v) const {
    return off_kv_ + static_cast<size_t>(k) * V() + v;
  }
  size_t dx_n_k(int k) const { return off_k_ + static_cast<size_t>(k); }
  size_t dx_n_cc(int c, int c2) const {
    return off_cc_ + static_cast<size_t>(c) * C() + c2;
  }

  /// \brief Folds every worker's deltas for flat cells [begin, end) into the
  /// canonical tables and zeroes those delta cells. Each cell is summed over
  /// workers in fixed order, so the result does not depend on how the range
  /// is striped across merge tasks or on chunk scheduling during scatter.
  /// Distinct ranges may merge concurrently; ranges must not overlap.
  void MergeDeltaRange(size_t begin, size_t end);

  /// \brief Drains every worker's delta buffer into a sparse ascending
  /// (flat index, delta) list — the distributed exchange payload — WITHOUT
  /// touching the canonical tables (the caller installs the cluster-wide
  /// merge via ApplyDeltaEntries). Cells are summed over workers in fixed
  /// order and zeroed, preserving the between-superstep all-zero contract.
  /// Not thread-safe; call between phases.
  void DrainDeltas(std::vector<std::pair<uint32_t, int32_t>>* out);

  /// \brief Adds sparse count deltas (e.g. the merged cluster-wide update)
  /// into the canonical tables. Indices past delta_size() are rejected.
  cold::Status ApplyDeltaEntries(
      const std::vector<std::pair<uint32_t, int32_t>>& entries);

  /// \brief Copies assignments and counters into a plain ColdState (for
  /// estimate extraction and invariant checks).
  ColdState ToColdState() const;

  /// \brief Installs assignments and counters from a plain ColdState (the
  /// checkpoint restore path). Dimensions must match; returns
  /// InvalidArgument otherwise. Not thread-safe — call only while no
  /// superstep is executing.
  cold::Status RestoreFrom(const ColdState& s);

 private:
  struct AlignedDelete {
    void operator()(int32_t* p) const {
      ::operator delete[](p, std::align_val_t{kCacheLineBytes});
    }
  };
  using DeltaBuffer = std::unique_ptr<int32_t[], AlignedDelete>;

  /// The canonical counter holding flat delta cell `idx`.
  int32_t& CanonicalAt(size_t idx);

  // Segment offsets into the flat delta index space, in storage order.
  size_t off_ic_ = 0;
  size_t off_ck_ = 0;
  size_t off_c_ = 0;
  size_t off_ckt_ = 0;
  size_t off_kv_ = 0;
  size_t off_k_ = 0;
  size_t off_cc_ = 0;
  size_t delta_size_ = 0;

  std::vector<DeltaBuffer> deltas_;
};

}  // namespace cold::core
