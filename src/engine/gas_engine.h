// Gather-Apply-Scatter execution engine: a from-scratch shared-memory
// re-implementation of distributed GraphLab's synchronous engine (Low et
// al., PVLDB 2012), the substrate the COLD paper runs its parallel Gibbs
// sampler on (§4.3, Alg 2).
//
// A superstep runs three phases:
//   gather  — per vertex, a commutative-associative reduction over incident
//             edges (parallel over vertices);
//   apply   — per vertex, folds the gathered value into vertex state;
//   scatter — per edge, may mutate edge state (this is where COLD samples
//             new latent assignments); parallel over fixed-size edge chunks
//             pulled from an atomic cursor (dynamic scheduling kills the
//             work-skew tail), each chunk drawing from its own RNG stream
//             keyed by (superstep, chunk) so results are bit-identical
//             across repeats AND worker counts.
//
// Programs may additionally provide optional phase hooks, detected by
// duck typing:
//   void PreScatter(cold::ThreadPool*);   // after apply, before scatter —
//                                         // e.g. rebuild derived caches
//   void PostScatter(cold::ThreadPool*);  // after scatter, before comm
//                                         // accounting — e.g. merge
//                                         // per-worker delta tables
//
// Cluster simulation: vertices are placed on `options.num_nodes` simulated
// machines by a Partitioner. Phases execute on `num_nodes * threads_per_node`
// real threads (capped at the host's hardware concurrency), and the engine
// accounts the bytes that *would* cross the network: gather/scatter traffic
// for cut edges plus the periodic broadcast of global aggregator state.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/partitioner.h"
#include "engine/property_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace cold::engine {

namespace internal {

/// Registry handles for the engine's exported metrics (cached once; the
/// per-superstep updates are a handful of relaxed atomics). The same
/// quantities stay available through EngineStats for callers that hold the
/// engine; the registry view is for telemetry snapshots.
struct EngineMetrics {
  obs::Gauge* gather_seconds;
  obs::Gauge* apply_seconds;
  obs::Gauge* scatter_seconds;
  obs::Gauge* merge_seconds;
  obs::Counter* comm_bytes;
  obs::Counter* supersteps;
  obs::Gauge* cut_edges;
  obs::Gauge* work_skew;
};

inline EngineMetrics& GetEngineMetrics() {
  auto& registry = obs::Registry::Global();
  static EngineMetrics metrics{
      registry.GetGauge("cold/engine/gather_seconds"),
      registry.GetGauge("cold/engine/apply_seconds"),
      registry.GetGauge("cold/engine/scatter_seconds"),
      registry.GetGauge("cold/engine/merge_seconds"),
      registry.GetCounter("cold/engine/comm_bytes"),
      registry.GetCounter("cold/engine/supersteps"),
      registry.GetGauge("cold/engine/cut_edges"),
      registry.GetGauge("cold/engine/work_skew")};
  return metrics;
}

/// Detects the optional PreScatter/PostScatter program hooks.
template <typename Program>
concept HasPreScatter = requires(Program p, cold::ThreadPool* pool) {
  p.PreScatter(pool);
};
template <typename Program>
concept HasPostScatter = requires(Program p, cold::ThreadPool* pool) {
  p.PostScatter(pool);
};
}  // namespace internal

/// Edges per scatter chunk. Small enough for dynamic scheduling to even
/// out skew, large enough that the per-chunk RNG construction is noise.
/// Public (namespace scope) so the distributed layer can compute chunk
/// ownership that matches the engine's scatter chunking exactly.
inline constexpr int64_t kScatterChunkEdges = 256;
/// Chunk RNG streams start far above the per-worker streams (1..number of
/// pool threads, kept for the v1 checkpoint payload) and the trainer's init
/// stream, so no sequence is reused across purposes.
inline constexpr uint64_t kChunkStreamBase = uint64_t{1} << 32;

/// \brief Which incident edges the gather phase visits.
enum class GatherEdges { kNone, kIn, kOut, kAll };

/// \brief Engine configuration.
struct EngineOptions {
  /// Simulated cluster size (Fig 13b sweeps this).
  int num_nodes = 1;
  /// Worker threads per simulated node; total threads = num_nodes *
  /// threads_per_node, capped at hardware concurrency unless
  /// `oversubscribe` is set.
  int threads_per_node = 1;
  /// Base seed for the per-chunk scatter RNG streams.
  uint64_t seed = 42;
  /// Bytes accounted per cut-edge message (gather result or scattered
  /// assignment); a knob for the communication model, not correctness.
  int64_t bytes_per_edge_message = 16;
  /// Vertex placement strategy. Greedy (degree-aware LDG) is the default —
  /// it cuts fewer edges than modulo on clustered graphs; kModulo remains
  /// for A/B comparisons.
  PartitionerKind partitioner = PartitionerKind::kGreedy;
  /// Run num_nodes * threads_per_node real threads even beyond the host's
  /// hardware concurrency. Results are thread-count-invariant, so this is
  /// for exercising multi-worker code paths (tests, TSan) on small hosts,
  /// not for throughput.
  bool oversubscribe = false;
};

/// \brief Engine execution statistics, reset by each Run call.
struct EngineStats {
  int supersteps = 0;
  double gather_seconds = 0.0;
  double apply_seconds = 0.0;
  double scatter_seconds = 0.0;
  /// Time inside the program's PostScatter hook (delta-table merge); a
  /// subset of scatter_seconds, reported separately for the scaling bench.
  double merge_seconds = 0.0;
  /// Simulated network traffic: cut-edge messages + aggregator broadcasts.
  int64_t comm_bytes = 0;
  /// Cut edges in the current partitioning (constant per partitioning).
  int64_t cut_edges = 0;
  /// Work units (program-defined, e.g. tokens sampled) per simulated node.
  std::vector<int64_t> node_work_units;

  double total_seconds() const {
    return gather_seconds + apply_seconds + scatter_seconds;
  }
};

/// \brief Cost model for the simulated cluster, used to project the
/// measured single-host execution onto an N-node deployment (this repo runs
/// on one core; see DESIGN.md §1).
struct ClusterModel {
  /// Per-node NIC bandwidth.
  double bandwidth_bytes_per_sec = 1.0e9;
  /// Per-superstep barrier/aggregation latency factor (multiplied by
  /// ceil(log2(nodes))).
  double sync_latency_sec = 0.002;
};

/// \brief Worker-local context handed to scatter: a deterministic RNG stream
/// plus the worker index for per-worker scratch state.
struct WorkerContext {
  cold::RandomSampler* sampler;
  size_t worker_index;
};

/// \brief Synchronous GAS engine over a PropertyGraph.
///
/// `Program` is a duck-typed vertex program providing:
///
///   static constexpr GatherEdges kGatherEdges = ...;
///   void Scatter(Graph*, EdgeId, WorkerContext*) ;
///   void PostSuperstep(Graph*, int superstep);   // global sync point
///
/// and, unless kGatherEdges is kNone (which compiles the gather/apply phase
/// out):
///
///   using GatherType = ...;                 // commutative monoid
///   GatherType GatherInit() const;
///   void Gather(const Graph&, VertexId, EdgeId, GatherType*) const;
///   void Apply(Graph*, VertexId, const GatherType&);
///
/// Scatter runs in parallel over edges; programs are responsible for making
/// concurrent edge updates safe. The COLD program reads counters that stay
/// frozen for the whole phase and buffers its updates in per-worker delta
/// tables, which its PostScatter hook merges at the superstep boundary.
template <typename VData, typename EData, typename Program>
class GasEngine {
 public:
  using Graph = PropertyGraph<VData, EData>;

  GasEngine(Graph* graph, Program* program, EngineOptions options = {})
      : graph_(graph),
        program_(program),
        options_(options),
        partitioner_(graph->num_vertices(), options.num_nodes),
        pool_(ComputeThreads(options)) {
    InitSamplers();
    if (options_.partitioner == PartitionerKind::kGreedy &&
        options_.num_nodes > 1 && graph_->num_vertices() > 0) {
      // Edges execute on their source's node, so a vertex's work is the
      // work of its out-edges.
      std::vector<int64_t> vertex_work(
          static_cast<size_t>(graph_->num_vertices()), 0);
      for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
        vertex_work[static_cast<size_t>(graph_->src(e))] +=
            program_->EdgeWorkUnits(e);
      }
      partitioner_.SetAssignment(
          GreedyAssignment(*graph_, options_.num_nodes, vertex_work));
    }
    ComputePartitionStats();
  }

  const EngineStats& stats() const { return stats_; }
  const Partitioner& partitioner() const { return partitioner_; }
  size_t num_threads() const { return pool_.num_threads(); }

  /// \brief Snapshots every worker's RNG stream (checkpoint capture).
  std::vector<cold::RngState> SamplerStates() const {
    std::vector<cold::RngState> out;
    out.reserve(samplers_.size());
    for (const auto& s : samplers_) out.push_back(s.SaveState());
    return out;
  }

  /// \brief Restores worker RNG streams captured by SamplerStates(). The
  /// worker count must match the checkpointed one — resuming with a
  /// different thread layout would silently change the draw sequences.
  cold::Status RestoreSamplerStates(
      const std::vector<cold::RngState>& states) {
    if (states.size() != samplers_.size()) {
      return cold::Status::InvalidArgument(
          "checkpoint has " + std::to_string(states.size()) +
          " worker RNG streams but the engine runs " +
          std::to_string(samplers_.size()) +
          " workers; resume with the same --parallel configuration");
    }
    for (size_t w = 0; w < states.size(); ++w) {
      samplers_[w].RestoreState(states[w]);
    }
    return cold::Status::OK();
  }

  /// Replaces the vertex placement (e.g. for locality experiments).
  void SetPartition(std::vector<int> assignment) {
    partitioner_.SetAssignment(std::move(assignment));
    ComputePartitionStats();
  }

  /// \brief Sets the superstep index that keys the per-chunk scatter RNG
  /// streams. The engine advances it after every scatter; a checkpoint
  /// restore must reinstall the saved value so resumed supersteps draw from
  /// the streams an uninterrupted run would have used.
  void set_superstep_index(int64_t index) { superstep_index_ = index; }
  int64_t superstep_index() const { return superstep_index_; }

  /// Scatter chunk count for the current graph (the unit of distributed
  /// work ownership).
  int64_t num_scatter_chunks() const {
    return (graph_->num_edges() + kScatterChunkEdges - 1) / kScatterChunkEdges;
  }

  /// \brief Restricts scatter to chunks with mask[chunk] != 0 (nullptr
  /// runs them all). The distributed trainer hands each node the chunks it
  /// owns; masked-out chunks are skipped whole, so the surviving chunks
  /// draw from exactly the RNG streams — keyed by (superstep, chunk id) —
  /// that a full single-process run would use. The mask must outlive the
  /// supersteps run under it and cover num_scatter_chunks() entries.
  void set_scatter_chunk_mask(const std::vector<uint8_t>* mask) {
    scatter_chunk_mask_ = mask;
  }

  /// \brief Projects the measured execution time onto the simulated
  /// `options.num_nodes`-machine cluster: the busiest node's share of the
  /// compute plus the communication modeled by `model`. With one node this
  /// returns measured compute time exactly.
  double SimulatedWallSeconds(const ClusterModel& model = {}) const {
    int64_t total = 0, max_node = 0;
    for (int64_t w : stats_.node_work_units) {
      total += w;
      max_node = std::max(max_node, w);
    }
    double work_fraction =
        total > 0 ? static_cast<double>(max_node) / static_cast<double>(total)
                  : 1.0;
    double compute = stats_.total_seconds() * work_fraction;
    if (options_.num_nodes <= 1) return compute;
    double comm = static_cast<double>(stats_.comm_bytes) /
                  static_cast<double>(options_.num_nodes) /
                  model.bandwidth_bytes_per_sec;
    int log_nodes = 0;
    for (int n = options_.num_nodes - 1; n > 0; n >>= 1) ++log_nodes;
    double sync =
        stats_.supersteps * model.sync_latency_sec * log_nodes;
    return compute + comm + sync;
  }

  /// \brief Runs `supersteps` full iterations, accumulating stats.
  void Run(int supersteps) {
    for (int s = 0; s < supersteps; ++s) RunSuperstep();
  }

  /// \brief Runs one gather/apply/scatter superstep.
  void RunSuperstep() {
    COLD_TRACE_SPAN("engine/superstep");
    auto& metrics = internal::GetEngineMetrics();

    // Gather + Apply. Each vertex's reduction is independent, so one
    // parallel sweep covers both phases (GraphLab fuses them the same way
    // for synchronous execution).
    double ga = 0.0;
    if constexpr (Program::kGatherEdges != GatherEdges::kNone) {
      cold::ScopedTimer timer(ga);
      RunGatherApply();
    }
    stats_.gather_seconds += ga * 0.5;
    stats_.apply_seconds += ga * 0.5;
    metrics.gather_seconds->Add(ga * 0.5);
    metrics.apply_seconds->Add(ga * 0.5);

    // Scatter.
    RunScatterPhase(metrics);

    // Simulated network: every cut edge ships its gather contribution and
    // its scattered assignment; global aggregator state is broadcast to all
    // nodes at the sync point.
    int64_t bytes = 2 * stats_.cut_edges * options_.bytes_per_edge_message +
                    static_cast<int64_t>(options_.num_nodes - 1) *
                        program_->GlobalStateBytes();
    stats_.comm_bytes += bytes;
    metrics.comm_bytes->Increment(bytes);

    program_->PostSuperstep(graph_, stats_.supersteps);
    stats_.supersteps++;
    metrics.supersteps->Increment();
  }

 private:
  static size_t ComputeThreads(const EngineOptions& options) {
    size_t want = static_cast<size_t>(options.num_nodes) *
                  static_cast<size_t>(options.threads_per_node);
    if (options.oversubscribe) return std::max<size_t>(1, want);
    size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
    return std::max<size_t>(1, std::min(want, hw));
  }

  /// \brief The fused gather + apply pass: one parallel sweep over
  /// vertices, each reducing its incident edges and applying the result.
  void RunGatherApply() {
    size_t nv = static_cast<size_t>(graph_->num_vertices());
    pool_.ParallelFor(nv, [this](size_t begin, size_t end, size_t) {
      for (size_t v = begin; v < end; ++v) {
        auto vid = static_cast<VertexId>(v);
        auto acc = program_->GatherInit();
        if constexpr (Program::kGatherEdges == GatherEdges::kIn ||
                      Program::kGatherEdges == GatherEdges::kAll) {
          for (EdgeId e : graph_->in_edges(vid)) {
            program_->Gather(*graph_, vid, e, &acc);
          }
        }
        if constexpr (Program::kGatherEdges == GatherEdges::kOut ||
                      Program::kGatherEdges == GatherEdges::kAll) {
          for (EdgeId e : graph_->out_edges(vid)) {
            program_->Gather(*graph_, vid, e, &acc);
          }
        }
        program_->Apply(graph_, vid, acc);
      }
    });
  }

  /// \brief The scatter phase: optional PreScatter hook, chunked dynamic
  /// execution over edges, and the optional PostScatter hook (timed
  /// separately as merge_seconds).
  ///
  /// Determinism: chunk boundaries depend only on the edge count and each
  /// chunk owns RNG stream (superstep * num_chunks + chunk), so the drawn
  /// assignments are identical no matter which worker ends up executing a
  /// chunk — repeat runs and different thread counts produce bit-identical
  /// state (provided the program's own updates commute, as the delta-table
  /// program's do).
  void RunScatterPhase(internal::EngineMetrics& metrics) {
    double scatter_s = 0.0;
    double merge_s = 0.0;
    {
      COLD_TRACE_SPAN("engine/scatter");
      cold::ScopedTimer timer(scatter_s);
      if constexpr (internal::HasPreScatter<Program>) {
        program_->PreScatter(&pool_);
      }
      const int64_t ne = graph_->num_edges();
      const int64_t num_chunks = num_scatter_chunks();
      const uint64_t stream_base =
          kChunkStreamBase + static_cast<uint64_t>(superstep_index_) *
                                 static_cast<uint64_t>(num_chunks);
      std::atomic<int64_t> cursor{0};
      size_t workers = pool_.num_threads();
      // One long-running task per worker, each pulling chunks dynamically.
      pool_.ParallelFor(
          workers, [this, ne, num_chunks, stream_base, &cursor](
                       size_t, size_t, size_t worker) {
            // One span per worker per superstep: the trace timeline shows
            // each pool thread's share of the scatter phase.
            COLD_TRACE_SPAN("engine/scatter_worker");
            while (true) {
              int64_t chunk = cursor.fetch_add(1, std::memory_order_relaxed);
              if (chunk >= num_chunks) break;
              if (scatter_chunk_mask_ != nullptr &&
                  (*scatter_chunk_mask_)[static_cast<size_t>(chunk)] == 0) {
                continue;
              }
              cold::RandomSampler sampler(
                  options_.seed, stream_base + static_cast<uint64_t>(chunk));
              WorkerContext ctx{&sampler, worker};
              int64_t stop = std::min(ne, (chunk + 1) * kScatterChunkEdges);
              for (int64_t e = chunk * kScatterChunkEdges; e < stop; ++e) {
                program_->Scatter(graph_, static_cast<EdgeId>(e), &ctx);
              }
            }
          });
      if constexpr (internal::HasPostScatter<Program>) {
        cold::ScopedTimer merge_timer(merge_s);
        program_->PostScatter(&pool_);
      }
    }
    superstep_index_++;
    stats_.scatter_seconds += scatter_s;
    stats_.merge_seconds += merge_s;
    metrics.scatter_seconds->Add(scatter_s);
    metrics.merge_seconds->Add(merge_s);
  }

  void InitSamplers() {
    samplers_.clear();
    for (size_t w = 0; w < pool_.num_threads(); ++w) {
      samplers_.emplace_back(options_.seed, /*stream=*/w + 1);
    }
  }

  void ComputePartitionStats() {
    stats_.cut_edges = 0;
    stats_.node_work_units.assign(
        static_cast<size_t>(options_.num_nodes), 0);
    for (EdgeId e = 0; e < graph_->num_edges(); ++e) {
      if (partitioner_.IsCut(*graph_, e)) stats_.cut_edges++;
      // Edges execute on their source's node (GraphLab assigns each edge to
      // one owning replica).
      int node = partitioner_.NodeOf(graph_->src(e));
      stats_.node_work_units[static_cast<size_t>(node)] +=
          program_->EdgeWorkUnits(e);
    }
    auto& metrics = internal::GetEngineMetrics();
    metrics.cut_edges->Set(static_cast<double>(stats_.cut_edges));
    int64_t total = 0, max_node = 0;
    for (int64_t w : stats_.node_work_units) {
      total += w;
      max_node = std::max(max_node, w);
    }
    // Load-balance skew: busiest node's work over the per-node mean
    // (1.0 = perfectly balanced).
    double mean = total > 0 ? static_cast<double>(total) / options_.num_nodes
                            : 1.0;
    metrics.work_skew->Set(
        total > 0 ? static_cast<double>(max_node) / mean : 1.0);
  }

  Graph* graph_;
  Program* program_;
  EngineOptions options_;
  Partitioner partitioner_;
  cold::ThreadPool pool_;
  // Legacy per-worker streams. Scatter now draws from per-chunk streams;
  // these remain only because the v1 checkpoint payload serializes them
  // (SamplerStates/RestoreSamplerStates keep old checkpoints readable).
  std::vector<cold::RandomSampler> samplers_;
  EngineStats stats_;
  int64_t superstep_index_ = 0;
  const std::vector<uint8_t>* scatter_chunk_mask_ = nullptr;
};

}  // namespace cold::engine
