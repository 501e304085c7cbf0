#include "src/core/interference.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace ftb {

InterferenceIndex::InterferenceIndex(const ReplacementPathEngine& engine,
                                     Config cfg)
    : engine_(&engine) {
  const auto& pairs = engine.uncovered_pairs();
  const std::size_t np = pairs.size();
  const BfsTree& tree = engine.tree();
  const std::size_t n = idx(tree.graph().num_vertices());
  const std::size_t cap = idx(std::max<std::int32_t>(cfg.max_bucket, 0));

  // Per-pair keys, and the [tin, tout) intervals of each pair's detour
  // vertices that are not ancestors-or-equal of its terminal (the π test's
  // candidates; the detour endpoints always drop out).
  keys_.resize(np);
  std::vector<std::size_t> far_offset(np + 1, 0), count(n, 0);
  std::vector<std::pair<std::int32_t, std::int32_t>> far;
  for (std::size_t p = 0; p < np; ++p) {
    const UncoveredPair& P = pairs[p];
    const Vertex lower = tree.lower_endpoint(P.e);
    keys_[p] = {tree.tin(P.v), tree.tin(lower), tree.tout(lower)};
    const auto det = engine.detour(P);
    for (std::size_t z = 0; z < det.size(); ++z) {
      if (!tree.is_ancestor_or_equal(det[z], P.v)) {
        far.emplace_back(tree.tin(det[z]), tree.tout(det[z]));
      }
      if (z > 0 && z + 1 < det.size()) ++count[idx(det[z])];
    }
    far_offset[p + 1] = far.size();
  }

  // Buckets by counting sort: internal detour vertex → pair ids. Pairs are
  // placed in ascending id order, so a bucket over the valve keeps exactly
  // its `cap` smallest ids.
  bucket_offset_.assign(n + 1, 0);
  for (std::size_t z = 0; z < n; ++z) {
    if (count[z] > 0) ++stats_.index_vertices;
    if (count[z] > cap) ++stats_.truncated_buckets;
    bucket_offset_[z + 1] = bucket_offset_[z] + std::min(count[z], cap);
  }
  bucket_.resize(bucket_offset_[n]);
  std::vector<std::size_t> cursor(bucket_offset_.begin(), bucket_offset_.end());
  for (std::size_t p = 0; p < np; ++p) {
    const auto det = engine.detour(pairs[p]);
    for (std::size_t z = 1; z + 1 < det.size(); ++z) {
      const std::size_t b = idx(det[z]);
      if (cursor[b] < bucket_offset_[b + 1]) {
        bucket_[cursor[b]++] = static_cast<std::int32_t>(p);
      }
    }
  }

  // Co-occurrence pass: has-partner flags, and the ordered (p, q) entries
  // where P_p π-intersects P_q, i.e. some far vertex of p is an
  // ancestor-or-equal of q's terminal.
  const auto pi_test = [&](std::int32_t p, const PairKey& q) {
    for (std::size_t i = far_offset[idx(p)]; i < far_offset[idx(p) + 1]; ++i) {
      if (far[i].first <= q.terminal_tin && q.terminal_tin < far[i].second) {
        return true;
      }
    }
    return false;
  };
  has_partner_.assign(np, 0);
  std::vector<std::pair<std::int32_t, std::int32_t>> pi_true;
  for (std::size_t z = 0; z < n; ++z) {
    for (std::size_t a = bucket_offset_[z]; a < bucket_offset_[z + 1]; ++a) {
      const std::int32_t pa = bucket_[a];
      for (std::size_t b = a + 1; b < bucket_offset_[z + 1]; ++b) {
        const std::int32_t pb = bucket_[b];
        const PairKey &ka = keys_[idx(pa)], &kb = keys_[idx(pb)];
        if (!interferes(ka, kb)) continue;
        has_partner_[idx(pa)] = has_partner_[idx(pb)] = 1;
        if (pi_test(pa, kb)) pi_true.emplace_back(pa, pb);
        if (pi_test(pb, ka)) pi_true.emplace_back(pb, pa);
      }
    }
  }

  // CSR by p in one counting pass. Pairs sharing several buckets repeat
  // their entry; S1 only asks whether a listed q is in P, so repeats stay.
  pi_offset_.assign(np + 1, 0);
  for (const auto& entry : pi_true) ++pi_offset_[idx(entry.first) + 1];
  std::partial_sum(pi_offset_.begin(), pi_offset_.end(), pi_offset_.begin());
  pi_.resize(pi_true.size());
  cursor.assign(pi_offset_.begin(), pi_offset_.end());
  for (const auto& [p, q] : pi_true) pi_[cursor[idx(p)]++] = q;
  stats_.pi_entries = static_cast<std::int64_t>(pi_.size());
}

std::vector<std::int32_t> InterferenceIndex::with_partner(
    std::uint8_t want) const {
  std::vector<std::int32_t> out;
  for (std::size_t p = 0; p < has_partner_.size(); ++p) {
    if (has_partner_[p] == want) out.push_back(static_cast<std::int32_t>(p));
  }
  return out;
}

}  // namespace ftb
