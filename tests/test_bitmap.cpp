// Tests for the 10 nm raster and its morphological operations.
#include "sadp/bitmap.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "sadp/decompose.hpp"

namespace sadp {
namespace {

constexpr int kPxNm = 10;  ///< raster resolution, keep in sync with decompose

TEST(Bitmap, FillAndGet) {
  Bitmap b(10, 10);
  b.fillRect(2, 3, 5, 6);
  EXPECT_TRUE(b.get(2, 3));
  EXPECT_TRUE(b.get(4, 5));
  EXPECT_FALSE(b.get(5, 5));  // half-open
  EXPECT_FALSE(b.get(4, 6));
  EXPECT_EQ(b.count(), 9u);
  // Out-of-range reads are false; writes are clipped.
  EXPECT_FALSE(b.get(-1, 0));
  EXPECT_FALSE(b.get(10, 10));
  b.fillRect(-5, -5, 2, 2);
  EXPECT_TRUE(b.get(0, 0));
}

TEST(Bitmap, BooleanOps) {
  Bitmap a(8, 8), b(8, 8);
  a.fillRect(0, 0, 4, 4);
  b.fillRect(2, 2, 6, 6);
  Bitmap u = a | b;
  EXPECT_EQ(u.count(), 16u + 16u - 4u);
  Bitmap i = a & b;
  EXPECT_EQ(i.count(), 4u);
  Bitmap d = a;
  d.andNot(b);
  EXPECT_EQ(d.count(), 12u);
  EXPECT_TRUE(d.get(0, 0));
  EXPECT_FALSE(d.get(3, 3));
  Bitmap inv = a;
  inv.invert();
  EXPECT_EQ(inv.count(), 64u - 16u);
  Bitmap other(4, 4);
  EXPECT_THROW(a |= other, std::invalid_argument);
}

TEST(Bitmap, AnyInRect) {
  Bitmap b(10, 10);
  b.set(5, 5);
  EXPECT_TRUE(b.anyInRect(0, 0, 10, 10));
  EXPECT_TRUE(b.anyInRect(5, 5, 6, 6));
  EXPECT_FALSE(b.anyInRect(0, 0, 5, 5));
  EXPECT_FALSE(b.anyInRect(6, 6, 10, 10));
}

TEST(Bitmap, Dilation) {
  Bitmap b(9, 9);
  b.set(4, 4);
  Bitmap d = b.dilated(1);
  EXPECT_EQ(d.count(), 9u);  // 3x3 square
  EXPECT_TRUE(d.get(3, 3));
  EXPECT_TRUE(d.get(5, 5));
  EXPECT_FALSE(d.get(2, 4));
  Bitmap d2 = b.dilated(2);
  EXPECT_EQ(d2.count(), 25u);
}

TEST(Bitmap, ErosionShrinksFromEdges) {
  Bitmap b(9, 9);
  b.fillRect(2, 2, 7, 7);  // 5x5
  Bitmap e = b.eroded(1);
  EXPECT_EQ(e.count(), 9u);  // 3x3
  EXPECT_TRUE(e.get(4, 4));
  EXPECT_FALSE(e.get(2, 2));
  // Erosion is the complement of dilating the complement, so the raster
  // border behaves as "set": a full bitmap stays full.
  Bitmap full(5, 5);
  full.fillRect(0, 0, 5, 5);
  EXPECT_EQ(full.eroded(1).count(), 25u);
}

TEST(Bitmap, ClosingFillsSmallGaps) {
  Bitmap b(20, 7);
  b.fillRect(0, 2, 8, 5);
  b.fillRect(10, 2, 18, 5);  // 2 px gap
  Bitmap c = b.closed(1);
  EXPECT_TRUE(c.get(8, 3));
  EXPECT_TRUE(c.get(9, 3));
  // A 3 px gap survives closing with radius 1.
  Bitmap wide(20, 7);
  wide.fillRect(0, 2, 8, 5);
  wide.fillRect(11, 2, 18, 5);
  Bitmap cw = wide.closed(1);
  EXPECT_FALSE(cw.get(9, 3));
}

TEST(Bitmap, ClosingDoesNotBridgeDiagonalGaps) {
  // Chebyshev closing cannot merge a (2,2) px diagonal gap -- this is why
  // the mask synthesizer performs shape-level merging instead of closing.
  Bitmap b(16, 16);
  b.fillRect(0, 0, 6, 6);
  b.fillRect(8, 8, 14, 14);
  Bitmap c = b.closed(1);
  EXPECT_FALSE(c.get(6, 6));
  EXPECT_FALSE(c.get(7, 7));
}

TEST(Bitmap, OpeningRemovesSlivers) {
  Bitmap b(20, 20);
  b.fillRect(0, 0, 20, 1);   // 1 px tall sliver
  b.fillRect(5, 5, 15, 15);  // solid block
  Bitmap o = b.opened(1);
  EXPECT_FALSE(o.get(10, 0));
  EXPECT_TRUE(o.get(10, 10));
}

TEST(Bitmap, AnyNear) {
  Bitmap b(10, 10);
  b.set(5, 5);
  EXPECT_TRUE(anyNear(b, 5, 5, 0));
  EXPECT_TRUE(anyNear(b, 4, 4, 1));
  EXPECT_TRUE(anyNear(b, 6, 4, 1));
  EXPECT_FALSE(anyNear(b, 3, 3, 1));
  EXPECT_TRUE(anyNear(b, 3, 3, 2));
}

TEST(Bitmap, ComponentCount) {
  Bitmap b(20, 20);
  EXPECT_EQ(componentCount(b), 0);
  b.fillRect(0, 0, 3, 3);
  EXPECT_EQ(componentCount(b), 1);
  b.fillRect(10, 10, 12, 12);
  EXPECT_EQ(componentCount(b), 2);
  // Diagonal touch is NOT 4-connected.
  b.set(3, 3);
  EXPECT_EQ(componentCount(b), 3);
  // A row through y=1 absorbs the first block and the (3,3) spur stays
  // separate, as does the block at (10,10).
  b.fillRect(0, 1, 11, 2);
  EXPECT_EQ(componentCount(b), 3);
  // Extend the bridge into the second block.
  b.fillRect(10, 1, 11, 11);
  EXPECT_EQ(componentCount(b), 2);
}

// ---- Randomized property tests against a byte-per-pixel reference ----------
//
// The bit-packed kernels are validated against straightforward byte-raster
// implementations of the same operations (the pre-bit-packed semantics),
// across widths that exercise every word-boundary case: sub-word, exactly
// one word, word+1, and multi-word with a ragged tail.

struct ByteRaster {
  int w = 0, h = 0;
  std::vector<std::uint8_t> px;

  ByteRaster(int w_, int h_) : w(w_), h(h_), px(std::size_t(w_) * h_, 0) {}
  explicit ByteRaster(const Bitmap& b) : ByteRaster(b.width(), b.height()) {
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) px[idx(x, y)] = b.get(x, y) ? 1 : 0;
  }
  std::size_t idx(int x, int y) const { return std::size_t(y) * w + x; }
  bool get(int x, int y) const {
    return x >= 0 && y >= 0 && x < w && y < h && px[idx(x, y)] != 0;
  }

  ByteRaster dilated(int r) const {
    ByteRaster out(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        for (int dy = -r; dy <= r && !out.px[idx(x, y)]; ++dy)
          for (int dx = -r; dx <= r; ++dx)
            if (get(x + dx, y + dy)) {
              out.px[idx(x, y)] = 1;
              break;
            }
    return out;
  }

  // Out-of-raster pixels read as SET (matches Bitmap::eroded's
  // invert/dilate/invert border convention).
  ByteRaster eroded(int r) const {
    ByteRaster out(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        bool all = true;
        for (int dy = -r; dy <= r && all; ++dy)
          for (int dx = -r; dx <= r; ++dx) {
            const int xx = x + dx, yy = y + dy;
            const bool inside =
                xx >= 0 && yy >= 0 && xx < w && yy < h;
            if (inside && !px[idx(xx, yy)]) {
              all = false;
              break;
            }
          }
        out.px[idx(x, y)] = all ? 1 : 0;
      }
    return out;
  }

  // The seed's anchored k x k erosion: AND over [x, x+k) x [y, y+k),
  // out-of-raster reads as UNSET.
  ByteRaster erodeK(int k) const {
    ByteRaster out(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x) {
        bool all = true;
        for (int dy = 0; dy < k && all; ++dy)
          for (int dx = 0; dx < k; ++dx)
            if (!get(x + dx, y + dy)) {
              all = false;
              break;
            }
        out.px[idx(x, y)] = all ? 1 : 0;
      }
    return out;
  }

  // The seed's reflected k x k dilation: OR over [x-k+1, x] x [y-k+1, y].
  ByteRaster dilateKReflected(int k) const {
    ByteRaster out(w, h);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        for (int dy = 1 - k; dy <= 0 && !out.px[idx(x, y)]; ++dy)
          for (int dx = 1 - k; dx <= 0; ++dx)
            if (get(x + dx, y + dy)) {
              out.px[idx(x, y)] = 1;
              break;
            }
    return out;
  }

  std::size_t count() const {
    std::size_t n = 0;
    for (std::uint8_t v : px) n += v;
    return n;
  }
};

Bitmap randomBitmap(int w, int h, double density, std::mt19937& rng) {
  Bitmap b(w, h);
  std::bernoulli_distribution bit(density);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      if (bit(rng)) b.set(x, y);
  return b;
}

void expectEqual(const Bitmap& got, const ByteRaster& want,
                 const std::string& what) {
  ASSERT_EQ(got.width(), want.w) << what;
  ASSERT_EQ(got.height(), want.h) << what;
  for (int y = 0; y < want.h; ++y)
    for (int x = 0; x < want.w; ++x)
      ASSERT_EQ(got.get(x, y), want.px[want.idx(x, y)] != 0)
          << what << " at (" << x << "," << y << ")";
  EXPECT_EQ(got.count(), want.count()) << what;
}

// Widths crossing every 64-bit word-boundary case; heights vary too.
const int kWidths[] = {1, 63, 64, 65, 127, 130};
const int kHeights[] = {1, 7, 64};

TEST(BitmapProperty, MorphologyMatchesByteReference) {
  std::mt19937 rng(12345);
  for (int w : kWidths)
    for (int h : kHeights) {
      const Bitmap b = randomBitmap(w, h, 0.35, rng);
      const ByteRaster ref(b);
      for (int r = 0; r <= 5; ++r) {
        expectEqual(b.dilated(r), ref.dilated(r),
                    "dilated r=" + std::to_string(r) + " w=" +
                        std::to_string(w) + " h=" + std::to_string(h));
        expectEqual(b.eroded(r), ref.eroded(r),
                    "eroded r=" + std::to_string(r) + " w=" +
                        std::to_string(w) + " h=" + std::to_string(h));
      }
    }
}

TEST(BitmapProperty, OpenedAnchoredMatchesLegacyErodeDilate) {
  std::mt19937 rng(777);
  for (int w : kWidths)
    for (int h : kHeights) {
      // Denser fill so k x k windows survive the erosion occasionally.
      const Bitmap b = randomBitmap(w, h, 0.8, rng);
      const ByteRaster ref(b);
      for (int k = 1; k <= 5; ++k) {
        expectEqual(b.openedAnchored(k),
                    ref.erodeK(k).dilateKReflected(k),
                    "openedAnchored k=" + std::to_string(k) + " w=" +
                        std::to_string(w) + " h=" + std::to_string(h));
      }
    }
}

TEST(BitmapProperty, BooleanOpsMatchByteReference) {
  std::mt19937 rng(999);
  for (int w : kWidths)
    for (int h : kHeights) {
      const Bitmap a = randomBitmap(w, h, 0.4, rng);
      const Bitmap b = randomBitmap(w, h, 0.4, rng);
      const ByteRaster ra(a), rb(b);
      ByteRaster rOr(w, h), rAnd(w, h), rAndNot(w, h), rInv(w, h);
      for (std::size_t i = 0; i < ra.px.size(); ++i) {
        rOr.px[i] = ra.px[i] | rb.px[i];
        rAnd.px[i] = ra.px[i] & rb.px[i];
        rAndNot.px[i] = ra.px[i] & ~rb.px[i] & 1;
        rInv.px[i] = ra.px[i] ^ 1;
      }
      expectEqual(a | b, rOr, "or");
      expectEqual(a & b, rAnd, "and");
      Bitmap d = a;
      d.andNot(b);
      expectEqual(d, rAndNot, "andNot");
      Bitmap inv = a;
      inv.invert();
      expectEqual(inv, rInv, "invert");
    }
}

TEST(BitmapProperty, AnyInRectMatchesByteReference) {
  std::mt19937 rng(4242);
  for (int w : kWidths) {
    const int h = 40;
    const Bitmap b = randomBitmap(w, h, 0.02, rng);
    const ByteRaster ref(b);
    std::uniform_int_distribution<int> dx(-3, w + 3), dy(-3, h + 3);
    for (int q = 0; q < 200; ++q) {
      int x0 = dx(rng), x1 = dx(rng), y0 = dy(rng), y1 = dy(rng);
      if (x0 > x1) std::swap(x0, x1);
      if (y0 > y1) std::swap(y0, y1);
      bool want = false;
      for (int y = y0; y < y1 && !want; ++y)
        for (int x = x0; x < x1; ++x)
          if (ref.get(x, y)) {
            want = true;
            break;
          }
      EXPECT_EQ(b.anyInRect(x0, y0, x1, y1), want)
          << "w=" << w << " rect=(" << x0 << "," << y0 << "," << x1 << ","
          << y1 << ")";
    }
  }
}

// Flood-fill reference: components discovered in row-major first-pixel
// order, which is the documented ordering contract of componentBoxes().
std::vector<Rect> floodFillBoxes(const ByteRaster& ref) {
  std::vector<Rect> boxes;
  std::vector<std::uint8_t> seen(ref.px.size(), 0);
  for (int y = 0; y < ref.h; ++y)
    for (int x = 0; x < ref.w; ++x) {
      if (!ref.px[ref.idx(x, y)] || seen[ref.idx(x, y)]) continue;
      Rect box{Nm(x), Nm(y), Nm(x + 1), Nm(y + 1)};
      std::queue<std::pair<int, int>> q;
      q.emplace(x, y);
      seen[ref.idx(x, y)] = 1;
      while (!q.empty()) {
        auto [cx, cy] = q.front();
        q.pop();
        box.xlo = std::min(box.xlo, Nm(cx));
        box.ylo = std::min(box.ylo, Nm(cy));
        box.xhi = std::max(box.xhi, Nm(cx + 1));
        box.yhi = std::max(box.yhi, Nm(cy + 1));
        const int nx[4] = {cx - 1, cx + 1, cx, cx};
        const int ny[4] = {cy, cy, cy - 1, cy + 1};
        for (int d = 0; d < 4; ++d)
          if (ref.get(nx[d], ny[d]) && !seen[ref.idx(nx[d], ny[d])]) {
            seen[ref.idx(nx[d], ny[d])] = 1;
            q.emplace(nx[d], ny[d]);
          }
      }
      boxes.push_back(box);
    }
  return boxes;
}

TEST(BitmapProperty, ComponentBoxesMatchFloodFill) {
  std::mt19937 rng(31415);
  for (int w : kWidths)
    for (double density : {0.25, 0.55}) {
      const int h = 48;
      const Bitmap b = randomBitmap(w, h, density, rng);
      const ByteRaster ref(b);
      const std::vector<Rect> want = floodFillBoxes(ref);
      const std::vector<Rect> got = componentBoxes(b);
      ASSERT_EQ(got.size(), want.size()) << "w=" << w << " d=" << density;
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "w=" << w << " component " << i;
      EXPECT_EQ(componentCount(b), int(want.size()));
    }
}

// Quadratic reference for the row-run rectangle sweep (the seed
// implementation): open rects matched by linear scan over (x0,x1) spans.
std::vector<Rect> naiveRasterToNmRects(const ByteRaster& ref,
                                       const Rect& windowNm) {
  struct Run {
    int x0, x1, y0, y1;
  };
  std::vector<Rect> px;
  std::vector<Run> open;
  for (int y = 0; y <= ref.h; ++y) {
    std::vector<std::pair<int, int>> runs;
    for (int x = 0; x < ref.w && y < ref.h;) {
      if (!ref.px[ref.idx(x, y)]) {
        ++x;
        continue;
      }
      int x1 = x;
      while (x1 < ref.w && ref.px[ref.idx(x1, y)]) ++x1;
      runs.emplace_back(x, x1);
      x = x1;
    }
    std::vector<Run> next;
    for (auto& [x0, x1] : runs) {
      bool matched = false;
      for (Run& r : open) {
        if (r.y1 >= 0 && r.x0 == x0 && r.x1 == x1) {
          r.y1 = y + 1;
          next.push_back(r);
          r.y1 = -1;
          matched = true;
          break;
        }
      }
      if (!matched) next.push_back({x0, x1, y, y + 1});
    }
    for (const Run& r : open)
      if (r.y1 >= 0) px.push_back(Rect{r.x0, r.y0, r.x1, r.y1});
    open = std::move(next);
  }
  std::vector<Rect> out;
  for (const Rect& p : px)
    out.push_back(Rect{Nm(windowNm.xlo + p.xlo * kPxNm),
                       Nm(windowNm.ylo + p.ylo * kPxNm),
                       Nm(windowNm.xlo + p.xhi * kPxNm),
                       Nm(windowNm.ylo + p.yhi * kPxNm)});
  return out;
}

TEST(BitmapProperty, RasterToNmRectsMatchesNaiveSweep) {
  std::mt19937 rng(2718);
  const Rect window{100, -200, 100 + 130 * kPxNm, -200 + 48 * kPxNm};
  for (int w : kWidths)
    for (double density : {0.3, 0.7}) {
      const int h = 48;
      const Bitmap b = randomBitmap(w, h, density, rng);
      const ByteRaster ref(b);
      const Rect win{window.xlo, window.ylo, Nm(window.xlo + w * kPxNm),
                     Nm(window.ylo + h * kPxNm)};
      const std::vector<Rect> want = naiveRasterToNmRects(ref, win);
      const std::vector<Rect> got = rasterToNmRects(b, win);
      ASSERT_EQ(got.size(), want.size()) << "w=" << w << " d=" << density;
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "w=" << w << " rect " << i;
    }
}

TEST(BitmapProperty, TransposedMatchesByteReference) {
  std::mt19937 rng(86420);
  for (int w : kWidths)
    for (int h : {1, 7, 63, 64, 65, 127}) {
      const Bitmap b = randomBitmap(w, h, 0.4, rng);
      const Bitmap t = b.transposed();
      ASSERT_EQ(t.width(), h) << "w=" << w << " h=" << h;
      ASSERT_EQ(t.height(), w) << "w=" << w << " h=" << h;
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
          ASSERT_EQ(t.get(y, x), b.get(x, y))
              << "w=" << w << " h=" << h << " at (" << x << "," << y << ")";
      // Word-wise equality (operator==) also checks that the transpose
      // preserved the zero-tail invariant of the packed rows.
      EXPECT_EQ(t.transposed(), b) << "w=" << w << " h=" << h;
    }
}

// Pixel-walk reference of the cut-spacing kernel: for each axis, gaps
// between consecutive runs shorter than minGap, kept where target is set
// (the seed's scalar column walk, applied to both axes).
ByteRaster naiveNarrowGaps(const ByteRaster& cut, const ByteRaster& target,
                           int minGap) {
  ByteRaster out(cut.w, cut.h);
  for (int y = 0; y < cut.h; ++y) {
    int lastEnd = -1;
    int x = 0;
    while (x < cut.w) {
      if (!cut.get(x, y)) {
        ++x;
        continue;
      }
      if (lastEnd >= 0 && x - lastEnd < minGap) {
        for (int g = lastEnd; g < x; ++g)
          if (target.get(g, y)) out.px[out.idx(g, y)] = 1;
      }
      while (x < cut.w && cut.get(x, y)) ++x;
      lastEnd = x;
    }
  }
  for (int x = 0; x < cut.w; ++x) {
    int lastEnd = -1;
    int y = 0;
    while (y < cut.h) {
      if (!cut.get(x, y)) {
        ++y;
        continue;
      }
      if (lastEnd >= 0 && y - lastEnd < minGap) {
        for (int g = lastEnd; g < y; ++g)
          if (target.get(x, g)) out.px[out.idx(x, g)] = 1;
      }
      while (y < cut.h && cut.get(x, y)) ++y;
      lastEnd = y;
    }
  }
  return out;
}

TEST(BitmapProperty, NarrowGapFlagsMatchPixelWalk) {
  std::mt19937 rng(5050);
  for (int w : kWidths)
    for (double density : {0.2, 0.5}) {
      const int h = 48;
      const Bitmap cut = randomBitmap(w, h, density, rng);
      const Bitmap target = randomBitmap(w, h, 0.6, rng);
      const ByteRaster rc(cut), rt(target);
      for (int minGap : {1, 2, 3, 5}) {
        expectEqual(narrowGapFlags(cut, target, minGap),
                    naiveNarrowGaps(rc, rt, minGap),
                    "narrowGapFlags minGap=" + std::to_string(minGap) +
                        " w=" + std::to_string(w) +
                        " d=" + std::to_string(density));
      }
    }
}

TEST(BitmapFingerprint, TracksEquality) {
  std::mt19937 rng(13579);
  const Bitmap a = randomBitmap(65, 9, 0.5, rng);
  Bitmap b = a;
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  b.set(64, 8, !a.get(64, 8));  // flip one bit
  EXPECT_NE(fingerprint(a), fingerprint(b));
  // Dimensions are hashed too: same words, different shape.
  EXPECT_NE(fingerprint(Bitmap(64, 2)), fingerprint(Bitmap(128, 1)));
  EXPECT_NE(fingerprint(Bitmap(1, 1)), fingerprint(Bitmap(1, 2)));
}

TEST(BitmapProperty, RowRunsMatchByteScan) {
  std::mt19937 rng(1618);
  for (int w : kWidths) {
    const Bitmap b = randomBitmap(w, 16, 0.5, rng);
    const ByteRaster ref(b);
    std::vector<std::pair<int, int>> runs;
    for (int y = 0; y < 16; ++y) {
      rowRuns(b, y, runs);
      std::vector<std::pair<int, int>> want;
      for (int x = 0; x < w;) {
        if (!ref.get(x, y)) {
          ++x;
          continue;
        }
        int x1 = x;
        while (x1 < w && ref.get(x1, y)) ++x1;
        want.emplace_back(x, x1);
        x = x1;
      }
      EXPECT_EQ(runs, want) << "w=" << w << " y=" << y;
    }
  }
}

}  // namespace
}  // namespace sadp
