#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "engine/gas_engine.h"
#include "engine/partitioner.h"
#include "engine/property_graph.h"

namespace cold::engine {
namespace {

// ---------------------------------------------------------- PropertyGraph --

TEST(PropertyGraphTest, BuildAndAccess) {
  PropertyGraph<int, double> g;
  VertexId a = g.AddVertex(10);
  VertexId b = g.AddVertex(20);
  VertexId c = g.AddVertex(30);
  EdgeId e0 = g.AddEdge(a, b, 1.5);
  EdgeId e1 = g.AddEdge(b, c, 2.5);
  g.AddEdge(a, c, 3.5);
  g.Finalize();

  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.vertex_data(b), 20);
  EXPECT_DOUBLE_EQ(g.edge_data(e1), 2.5);
  EXPECT_EQ(g.src(e0), a);
  EXPECT_EQ(g.dst(e0), b);

  EXPECT_EQ(g.out_edges(a).size(), 2u);
  EXPECT_EQ(g.in_edges(c).size(), 2u);
  EXPECT_EQ(g.out_edges(c).size(), 0u);
}

TEST(PropertyGraphTest, PayloadsAreMutable) {
  PropertyGraph<int, int> g;
  VertexId v = g.AddVertex(1);
  EdgeId e = g.AddEdge(v, g.AddVertex(2), 7);
  g.Finalize();
  g.vertex_data(v) = 42;
  g.edge_data(e) = 43;
  EXPECT_EQ(g.vertex_data(v), 42);
  EXPECT_EQ(g.edge_data(e), 43);
}

// ------------------------------------------------------------ Partitioner --

TEST(PartitionerTest, ModuloAssignmentBalanced) {
  Partitioner p(10, 4);
  auto loads = p.NodeLoads();
  ASSERT_EQ(loads.size(), 4u);
  for (int64_t load : loads) {
    EXPECT_GE(load, 2);
    EXPECT_LE(load, 3);
  }
}

TEST(PartitionerTest, CustomAssignment) {
  Partitioner p(3, 2);
  p.SetAssignment({1, 1, 0});
  EXPECT_EQ(p.NodeOf(0), 1);
  EXPECT_EQ(p.NodeOf(2), 0);
}

TEST(PartitionerTest, CutDetection) {
  PropertyGraph<int, int> g;
  g.AddVertex(0);
  g.AddVertex(0);
  EdgeId e = g.AddEdge(0, 1, 0);
  g.Finalize();
  Partitioner same(2, 1);
  EXPECT_FALSE(same.IsCut(g, e));
  Partitioner split(2, 2);
  EXPECT_TRUE(split.IsCut(g, e));
}

// -------------------------------------------------------------- GasEngine --

// Toy program: gather sums in-degree, apply writes it to the vertex, scatter
// increments a per-edge counter.
struct DegreeProgram {
  using GatherType = int;
  static constexpr GatherEdges kGatherEdges = GatherEdges::kIn;

  GatherType GatherInit() const { return 0; }
  void Gather(const PropertyGraph<int, int>&, VertexId, EdgeId,
              GatherType* acc) const {
    ++*acc;
  }
  void Apply(PropertyGraph<int, int>* g, VertexId v, const GatherType& acc) {
    g->vertex_data(v) = acc;
  }
  void Scatter(PropertyGraph<int, int>* g, EdgeId e, WorkerContext*) {
    g->edge_data(e)++;
  }
  void PostSuperstep(PropertyGraph<int, int>*, int superstep) {
    last_superstep = superstep;
  }
  int64_t GlobalStateBytes() const { return 64; }
  int64_t EdgeWorkUnits(EdgeId) const { return 1; }

  int last_superstep = -1;
};

PropertyGraph<int, int> MakeChain(int n) {
  PropertyGraph<int, int> g;
  for (int i = 0; i < n; ++i) g.AddVertex(0);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 0);
  g.Finalize();
  return g;
}

TEST(GasEngineTest, GatherApplyComputesInDegrees) {
  auto g = MakeChain(5);
  DegreeProgram program;
  GasEngine<int, int, DegreeProgram> engine(&g, &program);
  engine.RunSuperstep();
  EXPECT_EQ(g.vertex_data(0), 0);
  for (int i = 1; i < 5; ++i) EXPECT_EQ(g.vertex_data(i), 1);
}

TEST(GasEngineTest, ScatterTouchesEveryEdgeOncePerSuperstep) {
  auto g = MakeChain(6);
  DegreeProgram program;
  GasEngine<int, int, DegreeProgram> engine(&g, &program);
  engine.Run(3);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g.edge_data(e), 3);
  }
  EXPECT_EQ(engine.stats().supersteps, 3);
  EXPECT_EQ(program.last_superstep, 2);
}

TEST(GasEngineTest, SingleNodeHasNoCutEdges) {
  auto g = MakeChain(6);
  DegreeProgram program;
  GasEngine<int, int, DegreeProgram> engine(&g, &program, {});
  EXPECT_EQ(engine.stats().cut_edges, 0);
  engine.RunSuperstep();
  // Single node: no cut traffic and no broadcast.
  EXPECT_EQ(engine.stats().comm_bytes, 0);
}

TEST(GasEngineTest, MultiNodeAccountsCommunication) {
  auto g = MakeChain(8);
  DegreeProgram program;
  EngineOptions options;
  options.num_nodes = 4;
  GasEngine<int, int, DegreeProgram> engine(&g, &program, options);
  // Chain with modulo placement: every edge crosses nodes.
  EXPECT_GT(engine.stats().cut_edges, 0);
  engine.RunSuperstep();
  EXPECT_GT(engine.stats().comm_bytes, 0);
}

TEST(GasEngineTest, NodeWorkUnitsSumToEdgeCount) {
  auto g = MakeChain(9);
  DegreeProgram program;
  EngineOptions options;
  options.num_nodes = 3;
  GasEngine<int, int, DegreeProgram> engine(&g, &program, options);
  int64_t total = 0;
  for (int64_t w : engine.stats().node_work_units) total += w;
  EXPECT_EQ(total, g.num_edges());
}

TEST(GasEngineTest, SimulatedWallDecreasesWithNodes) {
  // Compute-bound model (no comm cost) => more nodes strictly faster.
  auto run = [](int nodes) {
    auto g = MakeChain(2000);
    DegreeProgram program;
    EngineOptions options;
    options.num_nodes = nodes;
    GasEngine<int, int, DegreeProgram> engine(&g, &program, options);
    engine.Run(2);
    ClusterModel model;
    model.bandwidth_bytes_per_sec = 1e15;  // free network
    model.sync_latency_sec = 0.0;
    return engine.SimulatedWallSeconds(model);
  };
  // The measured wall underlying the simulation is milliseconds of work,
  // so one preemption on a loaded CI host can flip the comparison; retry
  // a few times and require a single clean win (a genuine inversion fails
  // every attempt).
  bool faster = false;
  for (int attempt = 0; attempt < 3 && !faster; ++attempt) {
    double t1 = std::min(run(1), run(1));
    double t4 = std::min(run(4), run(4));
    faster = t4 < t1;
  }
  EXPECT_TRUE(faster);
}

TEST(GasEngineTest, CustomPartitionChangesCuts) {
  auto g = MakeChain(8);
  DegreeProgram program;
  EngineOptions options;
  options.num_nodes = 2;
  // Pin the locality-blind baseline: the greedy default may already find a
  // near-contiguous split on a chain.
  options.partitioner = PartitionerKind::kModulo;
  GasEngine<int, int, DegreeProgram> engine(&g, &program, options);
  int64_t modulo_cuts = engine.stats().cut_edges;
  // Contiguous halves: only the middle edge is cut.
  engine.SetPartition({0, 0, 0, 0, 1, 1, 1, 1});
  EXPECT_LT(engine.stats().cut_edges, modulo_cuts);
  EXPECT_EQ(engine.stats().cut_edges, 1);
}

// Emits one raw RNG draw per edge; used to pin down scatter determinism.
struct RngProgram {
  using GatherType = int;
  static constexpr GatherEdges kGatherEdges = GatherEdges::kNone;
  GatherType GatherInit() const { return 0; }
  void Gather(const PropertyGraph<int, uint32_t>&, VertexId, EdgeId,
              GatherType*) const {}
  void Apply(PropertyGraph<int, uint32_t>*, VertexId, const GatherType&) {}
  void Scatter(PropertyGraph<int, uint32_t>* g, EdgeId e, WorkerContext* ctx) {
    g->edge_data(e) = ctx->sampler->rng().NextU32();
  }
  void PostSuperstep(PropertyGraph<int, uint32_t>*, int) {}
  int64_t GlobalStateBytes() const { return 0; }
  int64_t EdgeWorkUnits(EdgeId) const { return 1; }
};

TEST(GasEngineTest, ScatterRngIsDeterministicPerWorkerStream) {
  // Two engines with the same seed must produce identical scatter draws.
  auto make = [] {
    PropertyGraph<int, uint32_t> g;
    for (int i = 0; i < 4; ++i) g.AddVertex(0);
    for (int i = 0; i + 1 < 4; ++i) g.AddEdge(i, i + 1, 0);
    g.Finalize();
    return g;
  };
  auto g1 = make();
  auto g2 = make();
  RngProgram p1, p2;
  EngineOptions options;
  options.seed = 99;
  GasEngine<int, uint32_t, RngProgram> e1(&g1, &p1, options);
  GasEngine<int, uint32_t, RngProgram> e2(&g2, &p2, options);
  e1.RunSuperstep();
  e2.RunSuperstep();
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge_data(e), g2.edge_data(e));
  }
}

}  // namespace
}  // namespace cold::engine
