// workloads.hpp — the benchmark's workloads: their graphs, their query
// mixes, and the brute-force referee that checks served answers.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/api/ftbfs_api.hpp"
#include "src/graph/bfs_tree.hpp"
#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  ftb::FaultClass model;
  double eps;
  ftb::Vertex scale;       // R-MAT scale of the measured graph
  ftb::Vertex tiny_scale;  // R-MAT scale of the smoke test
  std::uint64_t graph_seed;
  int sigma;        // sources 0 .. sigma-1
  int batch;        // queries per served batch
  int rounds;            // timed rounds (build, setups, serve slice)
  int setups_per_round;  // load-to-first-answer repetitions per round
};

/// nullptr when `name` names no workload.
const Workload* find_workload(std::string_view name);

/// R-MAT with a random spanning tree underneath (connected), 8 sampled
/// edges per vertex. The graph depends only on the workload, never on the
/// run seed, so every run builds and serves the same structure.
ftb::Graph make_graph(ftb::Vertex scale, std::uint64_t seed);

/// What query generation and the referee need: the canonical tree of every
/// source under the build's weight seed. Holds pointers into itself, so it
/// is neither copied nor moved.
struct Inputs {
  Inputs(const ftb::Graph& graph, std::vector<ftb::Vertex> srcs,
         std::uint64_t weight_seed);
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  const ftb::Graph* g;
  std::vector<ftb::Vertex> sources;
  ftb::EdgeWeights weights;
  std::vector<ftb::BfsTree> trees;
};

using Batch = std::vector<ftb::api::Query>;

/// `count` batches of the workload's serving mix, drawn from `rng`:
///   eps_rmat     in-model single-edge-fault lookups;
///   dual_rmat    one tree-edge failure pair per 16 queries, the rest
///                single edge or vertex faults;
///   mbfs_whatif  one what-if vertex fault (× 8 queries) per 1024
///                queries, the rest in-model lookups over the sources.
std::vector<Batch> make_batches(const Workload& w, const Inputs& in,
                                const ftb::FtBfsStructure& h, int count,
                                ftb::Rng& rng);

/// `size` in-model single-edge-fault lookups over every source.
Batch make_lookup_batch(const Inputs& in, const ftb::FtBfsStructure& h,
                        int size, ftb::Rng& rng);

/// `size` queries with distinct failures, each needing one traversal: tree
/// edge pairs on a dual session, what-if vertex faults on any other.
Batch make_traversal_batch(const Workload& w, const Inputs& in,
                           const ftb::FtBfsStructure& h, int size,
                           ftb::Rng& rng);

struct Answer {
  ftb::api::Query q;
  ftb::api::QueryResult r;
};

/// Sampled answers that disagree with brute force. In-model answers are
/// compared against a BFS of G minus the failure (`dual_bruteforce_bfs` for
/// pairs), what-if answers against a BFS of H minus the failure; an answer
/// with an outcome other than the one its query asked for also disagrees.
std::int64_t referee_mismatches(const Inputs& in,
                                const ftb::FtBfsStructure& h,
                                std::span<const Answer> sample);

}  // namespace perfbench
