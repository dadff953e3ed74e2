// Union-find over Z_Mod relations (the k-group generalization of the
// parity DSU; DESIGN.md §5.13).
//
// Each element carries the Z_Mod sum of edge deltas to its representative;
// unite(u, v, rel) enforces color(v) == color(u) + rel (mod Mod). A
// contradiction (a cycle whose deltas do not sum to zero) makes unite
// return false -- for Mod == 2 that is exactly the constant-time LELE
// odd-cycle detection the paper builds on, and `ParityDsu` below is that
// instantiation: one delta bit, XOR folds, the packed uint32 layout and
// union-by-rank tie rule unchanged from the hand-written class it replaces
// (roots and parities are bit-identical; the golden suites pin this).
//
// For Mod >= 3 "different color" is NOT a group relation (a != b has no
// single delta), so k-patterning backends use rel 0 (equality classes)
// here and track must-differ edges on the side (ocg/graph.cpp).
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace sadp {

template <unsigned Mod>
class GroupDsu {
  static_assert(Mod >= 2 && Mod <= 4, "delta packing supports k in [2, 4]");

 public:
  static constexpr unsigned kMod = Mod;
  /// Bits of each packed link spent on the delta-to-parent.
  static constexpr unsigned kDeltaBits = std::bit_width(Mod - 1);
  static constexpr std::uint32_t kDeltaMask = (1u << kDeltaBits) - 1u;

  /// Ensures element `v` exists.
  void ensure(std::size_t v) {
    if (v >= link_.size()) grow(v);
  }

  /// Representative of v plus the delta of v relative to it.
  std::pair<std::size_t, std::uint8_t> find(std::size_t v) {
    ensure(v);
    return findRaw(v);
  }

  /// Merges the classes of u and v enforcing color(v) == color(u) + rel
  /// (mod Mod). Returns false (leaving the classes merged-consistent only
  /// if they already were) when the relation contradicts existing ones.
  bool unite(std::size_t u, std::size_t v, std::uint8_t rel) {
    ensure(u > v ? u : v);  // one bounds check instead of one per find
    // The two root chases are findRaw's loop written out inline: unite is
    // the hot path of hard-edge insertion and this build ships without
    // optimization, where a call plus a pair return per find is measurable.
    std::uint32_t* const links = link_.data();
    std::uint32_t ru = std::uint32_t(u), du = 0;
    for (;;) {
      const std::uint32_t l = links[ru];
      const std::uint32_t p = l >> kDeltaBits;
      if (p == ru) break;
      const std::uint32_t lp = links[p];
      links[ru] = ((lp >> kDeltaBits) << kDeltaBits) | foldOf(l, lp);
      if constexpr (Mod == 2) {
        du ^= l & 1u;
      } else {
        du += l & kDeltaMask;
        if (du >= Mod) du -= Mod;
      }
      ru = p;
    }
    std::uint32_t rv = std::uint32_t(v), dv = 0;
    for (;;) {
      const std::uint32_t l = links[rv];
      const std::uint32_t p = l >> kDeltaBits;
      if (p == rv) break;
      const std::uint32_t lp = links[p];
      links[rv] = ((lp >> kDeltaBits) << kDeltaBits) | foldOf(l, lp);
      if constexpr (Mod == 2) {
        dv ^= l & 1u;
      } else {
        dv += l & kDeltaMask;
        if (dv >= Mod) dv -= Mod;
      }
      rv = p;
    }
    if (ru == rv) return deltaDiff(dv, du) == rel;
    std::uint8_t* const ranks = rank_.data();
    if (ranks[ru] < ranks[rv]) {
      // Attach ru under rv. color(ru) == color(rv) + (dv - rel - du): the
      // rank swap inverts the enforced relation, which for Mod == 2 is the
      // plain XOR the parity code used (negation is the identity in Z_2).
      links[ru] = (rv << kDeltaBits) |
                  deltaDiff(dv, deltaSum(rel, du));
    } else {
      // Attach rv under ru: color(rv) == color(ru) + (du + rel - dv).
      links[rv] = (ru << kDeltaBits) |
                  deltaDiff(deltaSum(du, rel), dv);
      if (ranks[ru] == ranks[rv]) ++ranks[ru];
    }
    return true;
  }

  /// True if u and v are already constrained to a relative delta != rel.
  bool contradicts(std::size_t u, std::size_t v, std::uint8_t rel) {
    auto [ru, du] = find(u);
    auto [rv, dv] = find(v);
    return ru == rv && deltaDiff(dv, du) != rel;
  }

  /// Makes an existing element a rank-0 singleton again. Only sound when
  /// every element linked to v is reset too (a whole class at once).
  void reset(std::size_t v) {
    link_[v] = std::uint32_t(v) << kDeltaBits;
    rank_[v] = 0;
  }

  std::size_t size() const { return link_.size(); }

 private:
  void grow(std::size_t v) {
    const std::size_t old = link_.size();
    link_.resize(v + 1);
    rank_.resize(v + 1, 0);
    for (std::size_t i = old; i <= v; ++i) {
      link_[i] = std::uint32_t(i) << kDeltaBits;  // self-parent, delta 0
    }
  }

  /// Delta folded when path-halving rewrites x's link past its parent.
  static constexpr std::uint32_t foldOf(std::uint32_t l, std::uint32_t lp) {
    if constexpr (Mod == 2) {
      return (l ^ lp) & 1u;
    } else {
      std::uint32_t s = (l & kDeltaMask) + (lp & kDeltaMask);
      if (s >= Mod) s -= Mod;
      return s;
    }
  }
  static constexpr std::uint8_t deltaSum(std::uint32_t a, std::uint32_t b) {
    if constexpr (Mod == 2) {
      return std::uint8_t((a ^ b) & 1u);
    } else {
      std::uint32_t s = a + b;
      if (s >= Mod) s -= Mod;
      return std::uint8_t(s);
    }
  }
  /// a - b in Z_Mod.
  static constexpr std::uint8_t deltaDiff(std::uint32_t a, std::uint32_t b) {
    if constexpr (Mod == 2) {
      return std::uint8_t((a ^ b) & 1u);
    } else {
      return std::uint8_t(a >= b ? a - b : a + Mod - b);
    }
  }

  /// find() without the existence check -- callers must have ensure()d v.
  std::pair<std::size_t, std::uint8_t> findRaw(std::size_t v) {
    // Single-pass path halving over a raw pointer, folding the delta of
    // the skipped hop into the rewritten link. Deltas accumulated along
    // the walk are unaffected by the rewrites (they only touch nodes
    // already passed), so the returned (root, delta) pair matches the
    // full-compression reference exactly.
    std::uint32_t* const links = link_.data();
    std::uint32_t x = std::uint32_t(v);
    std::uint32_t d = 0;
    for (;;) {
      const std::uint32_t l = links[x];
      const std::uint32_t p = l >> kDeltaBits;
      if (p == x) break;
      const std::uint32_t lp = links[p];
      links[x] = ((lp >> kDeltaBits) << kDeltaBits) | foldOf(l, lp);
      if constexpr (Mod == 2) {
        d ^= l & 1u;
      } else {
        d += l & kDeltaMask;
        if (d >= Mod) d -= Mod;
      }
      x = p;
    }
    return {x, std::uint8_t(d)};
  }

  /// Packed parent pointers: link_[v] = parent(v) << kDeltaBits | delta.
  /// One 32-bit word per element keeps find's pointer chase in a single
  /// cache stream; for Mod == 2 this is the exact parent<<1|parity layout
  /// of the original ParityDsu (the k=2 fast path the bench gate pins).
  std::vector<std::uint32_t> link_;
  std::vector<std::uint8_t> rank_;
};

/// Union-find with parity: the Z_2 instantiation the SADP 2-color stack
/// uses. unite(u, v, rel) enforces color(u) ^ color(v) == rel; a
/// contradiction is an odd cycle over hard edges.
using ParityDsu = GroupDsu<2>;

}  // namespace sadp
