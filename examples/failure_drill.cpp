// failure_drill — operational resilience rehearsal, served by the facade.
//
// Deploy an ε FT-BFS structure over a metro-grid network as an
// api::Session, then inject a storm of random single-link failures and
// measure the service level of the surviving structure: a correct
// deployment reports stretch 1.0 and zero SLA violations. The drill's
// surviving-graph side is answered by the session's batched query plane
// (one O(1) lookup per query instead of a BFS per drill). For contrast,
// the same storm runs against a naive "just the BFS tree" deployment,
// which fails the drill visibly.
//
//   ./example_failure_drill [--rows=18] [--cols=18] [--eps=0.3]
//   [--drills=300]
#include <iostream>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/generators.hpp"
#include "src/sim/failure_sim.hpp"
#include "src/util/options.hpp"
#include "src/util/timer.hpp"

int main(int argc, char** argv) {
  using namespace ftb;
  Options opt(argc, argv);
  const Vertex rows = static_cast<Vertex>(opt.get_int("rows", 18));
  const Vertex cols = static_cast<Vertex>(opt.get_int("cols", 18));
  const double eps = opt.get_double("eps", 0.3);
  const std::int64_t drills = opt.get_int("drills", 300);

  // Metro grid + a handful of express diagonals.
  GraphBuilder b(rows * cols);
  {
    const Graph grid = gen::grid_graph(rows, cols);
    for (EdgeId e = 0; e < grid.num_edges(); ++e) {
      const auto [u, v] = grid.edge(e);
      b.add_edge(u, v);
    }
    Rng rng(99);
    for (int i = 0; i < rows * cols / 4; ++i) {
      const Vertex u = static_cast<Vertex>(
          rng.next_below(static_cast<std::uint64_t>(rows * cols)));
      const Vertex v = static_cast<Vertex>(
          rng.next_below(static_cast<std::uint64_t>(rows * cols)));
      if (u != v) b.add_edge(u, v);
    }
  }
  const Graph g = b.build();
  const Vertex source = 0;  // northwest depot
  std::cout << "metro network: " << g.summary() << "\n";

  api::BuildSpec spec;
  spec.sources = {source};
  spec.eps = eps;
  const api::Session session = api::Session::open(g, spec);
  std::cout << "deployed: " << session.structure().summary() << "\n\n";

  std::cout << "drilling " << drills << " random single-link failures "
               "through the session...\n";
  const DrillReport rep =
      run_failure_drill(session, FaultClass::kEdge, drills, 2024);
  std::cout << "  " << rep.to_string() << "\n";
  std::cout << (rep.violations == 0 ? "  SLA HELD: every surviving node kept "
                                      "its exact shortest path.\n"
                                    : "  SLA BROKEN!\n");

  // What-if sweep: the model says reinforced links never fail, and routers
  // are outside the edge model entirely — but the operator still wants the
  // nightmare numbers. One batched query() answers both: the plane groups
  // the out-of-model failures and pays ONE subtree sweep per distinct
  // fault, fanned out across the pool's workers.
  {
    std::vector<api::Query> storm;
    for (const EdgeId e : session.structure().reinforced()) {
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        api::Query q;
        q.v = v;
        q.kind = FaultClass::kEdge;
        q.fault = e;
        q.allow_what_if = true;
        storm.push_back(q);
      }
    }
    Rng rng(7);
    for (int i = 0; i < 12; ++i) {  // a dozen random router failures
      const Vertex x = static_cast<Vertex>(
          1 + rng.next_below(static_cast<std::uint64_t>(g.num_vertices() - 1)));
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        api::Query q;
        q.v = v;
        q.kind = FaultClass::kVertex;
        q.fault = x;
        q.allow_what_if = true;
        storm.push_back(q);
      }
    }
    Timer t;
    const api::QueryResponse what_if = session.query(storm);
    std::int64_t cutoff = 0, degraded = 0;
    for (std::size_t i = 0; i < storm.size(); ++i) {
      const std::int32_t d = what_if.results[i].dist;
      if (d >= kInfHops) {
        ++cutoff;
      } else if (d > session.distance(0, storm[i].v)) {
        ++degraded;
      }
    }
    std::cout << "\nwhat-if: " << storm.size() << " out-of-model queries ("
              << what_if.what_if_traversals << " subtree sweeps) in "
              << t.seconds() << "s: " << degraded << " degraded, " << cutoff
              << " cut off\n";
  }

  // A router (vertex) storm against a vertex-fault deployment of the same
  // metro network — same facade, one field changed.
  api::BuildSpec vspec;
  vspec.fault_model = FaultClass::kVertex;
  vspec.sources = {source};
  const api::Session vsession = api::Session::open(g, vspec);
  std::cout << "\nvertex-fault deployment: "
            << vsession.structure().summary() << "\n";
  const DrillReport vrep =
      run_failure_drill(vsession, FaultClass::kVertex, drills, 2024);
  std::cout << "  " << vrep.to_string() << "\n";
  std::cout << (vrep.violations == 0 ? "  SLA HELD under router failures.\n"
                                     : "  SLA BROKEN!\n");

  // The naive deployment for contrast: just the BFS tree, nothing else.
  const EdgeWeights w = EdgeWeights::uniform_random(g, 1);
  const BfsTree tree(g, w, source);
  const FtBfsStructure naive(g, source, tree.tree_edges(), {},
                             tree.tree_edges());
  const DrillReport naive_rep =
      run_failure_drill(naive, FaultClass::kEdge, drills, 2024);
  std::cout << "\nnaive BFS-tree deployment under the same storm:\n  "
            << naive_rep.to_string() << "\n";
  std::cout << "  (stretch " << naive_rep.max_stretch
            << "x — this is what the paper's structures prevent)\n";
  return rep.violations == 0 && vrep.violations == 0 ? 0 : 1;
}
