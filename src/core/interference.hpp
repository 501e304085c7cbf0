// interference.hpp — the detour-interference machinery of Section 3.1.
//
// Two uncovered pairs ⟨v,e⟩, ⟨t,e'⟩ with v ≠ t *interfere* (Eq. (1)) when
// their detours share a vertex internal to both. Interference splits by the
// tree relation of the protected edges: e ≁ e' (on no common root path) is
// the (≁)-interference of Phase S1, e ∼ e' the (∼)-interference of S2.
//
// S1 asks only existence questions of I≁(P): is it empty (I1 vs the first
// (∼)-set I2)? Does it hold a round-set pair that P π-intersects (type A,
// Eq. (2)), or one that is not type A (type B, Eq. (3))? So I≁ is never
// materialised: the index keeps CSR buckets from internal detour vertex to
// ascending pair ids (pairs interfere iff they share one; the detour
// endpoints are Eq. (1)'s exclusion set), a per-pair key so e ≁ e' reads no
// BfsTree arrays, and from one co-occurrence pass a has-partner flag per
// pair plus the few π-true (p, q) entries.
//
// π-intersection (Fig. 2): P_{v,e} π-intersects P_{t,e'} when D(P_{v,e})
// touches π(LCA(v,t), t) \ {LCA(v,t)} (not symmetric). A detour vertex
// z ⪯ t and LCA(v,t) both lie on π(s,t), so z is deeper than LCA(v,t)
// exactly when z is not an ancestor-or-equal of v: each pair keeps the
// [tin, tout) intervals of its detour vertices that are not ancestors of
// v, and the test is tin(z) ≤ tin(t) < tout(z) over them — no LCA index.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/replacement.hpp"

namespace ftb {

/// Existence index over the (≁)-interference of the engine's uncovered pairs.
class InterferenceIndex {
 public:
  struct Config {
    /// Safety valve against quadratic bucket blowup: a bucket larger than
    /// this keeps its max_bucket smallest pair ids (stats.truncated_buckets).
    /// Truncation can only move pairs between phases — the structure stays
    /// correct because reinforcement is recomputed from scratch at the end.
    std::int32_t max_bucket = 1 << 14;
  };

  explicit InterferenceIndex(const ReplacementPathEngine& engine)
      : InterferenceIndex(engine, Config()) {}
  InterferenceIndex(const ReplacementPathEngine& engine, Config cfg);

  /// I1 = pairs with I≁ ≠ ∅ (Phase S1 input), ascending pair ids.
  std::vector<std::int32_t> i1() const { return with_partner(1); }
  /// I2 = UP \ I1 — the first (∼)-set, ascending pair ids.
  std::vector<std::int32_t> i2() const { return with_partner(0); }

  /// The q ∈ I≁(p) that P_p π-intersects; q repeats once per bucket the
  /// two pairs share.
  std::span<const std::int32_t> pi_partners(std::int32_t p) const {
    return {pi_.data() + pi_offset_[idx(p)],
            pi_.data() + pi_offset_[idx(p) + 1]};
  }

  /// Whether pred(q) holds for some q ∈ I≁(p). Stops at the first match;
  /// pred may see a partner more than once (once per shared bucket).
  template <typename Pred>
  bool any_partner(std::int32_t p, Pred&& pred) const {
    const PairKey& kp = keys_[idx(p)];
    const auto det = engine_->detour(engine_->uncovered_pairs()[idx(p)]);
    for (std::size_t z = 1; z + 1 < det.size(); ++z) {
      const std::size_t b0 = bucket_offset_[idx(det[z])],
                        b1 = bucket_offset_[idx(det[z]) + 1];
      // Ascending ids: p fell outside a truncated bucket's kept prefix.
      if (b0 == b1 || bucket_[b1 - 1] < p) continue;
      for (std::size_t i = b0; i < b1; ++i) {
        if (interferes(kp, keys_[idx(bucket_[i])]) && pred(bucket_[i])) {
          return true;
        }
      }
    }
    return false;
  }

  struct Stats {
    std::int64_t index_vertices = 0;  // non-empty buckets
    std::int64_t pi_entries = 0;      // Σ |pi_partners(p)|, with repeats
    std::int64_t truncated_buckets = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  static std::size_t idx(std::int32_t i) { return static_cast<std::size_t>(i); }
  std::vector<std::int32_t> with_partner(std::uint8_t want) const;

  struct PairKey {
    std::int32_t terminal_tin;  // tin(v): identifies the terminal
    std::int32_t lower_tin;     // [tin, tout) of e's lower endpoint
    std::int32_t lower_tout;
  };

  /// Different terminals, and e ≁ e': no lower endpoint ⪯ the other.
  static bool interferes(const PairKey& a, const PairKey& b) {
    return a.terminal_tin != b.terminal_tin &&
           !(a.lower_tin <= b.lower_tin && b.lower_tin < a.lower_tout) &&
           !(b.lower_tin <= a.lower_tin && a.lower_tin < b.lower_tout);
  }

  const ReplacementPathEngine* engine_;
  std::vector<PairKey> keys_;
  // Kept bucket prefixes: z's pair ids are bucket_[bucket_offset_[z] ..).
  std::vector<std::size_t> bucket_offset_;
  std::vector<std::int32_t> bucket_;
  std::vector<std::uint8_t> has_partner_;
  // π-true entries: pi_partners(p) is pi_[pi_offset_[p] ..).
  std::vector<std::size_t> pi_offset_;
  std::vector<std::int32_t> pi_;

  Stats stats_;
};

}  // namespace ftb
