#include "grid/routing_grid.hpp"

#include <ostream>
#include <stdexcept>

namespace sadp {

std::ostream& operator<<(std::ostream& os, const GridNode& n) {
  return os << "(" << n.x << "," << n.y << ",L" << n.layer << ")";
}

RoutingGrid::RoutingGrid(Track width, Track height, int layers,
                         DesignRules rules)
    : width_(width), height_(height), layers_(layers), rules_(rules) {
  if (width <= 0 || height <= 0 || layers <= 0) {
    throw std::invalid_argument("RoutingGrid: non-positive dimensions");
  }
  rules_.validate();
  occ_.assign(nodeCount(), kInvalidNet);
}

void RoutingGrid::occupy(const GridNode& n, NetId net) {
  NetId& slot = occ_[index(n)];
  if (slot != kInvalidNet && slot != net) {
    throw std::logic_error("RoutingGrid::occupy: node already taken");
  }
  slot = net;
}

void RoutingGrid::release(const GridNode& n, NetId net) {
  NetId& slot = occ_[index(n)];
  if (slot == net) slot = kInvalidNet;
}

void RoutingGrid::blockBox(int layer, Track xlo, Track ylo, Track xhi,
                           Track yhi) {
  for (Track y = std::max<Track>(0, ylo); y < std::min(height_, yhi); ++y) {
    for (Track x = std::max<Track>(0, xlo); x < std::min(width_, xhi); ++x) {
      block({x, y, std::int16_t(layer)});
    }
  }
}

Rect RoutingGrid::segmentMetalNm(const GridNode& a, const GridNode& b) const {
  if (a.layer != b.layer) {
    throw std::invalid_argument("segmentMetalNm: nodes on different layers");
  }
  const int dx = std::abs(a.x - b.x);
  const int dy = std::abs(a.y - b.y);
  if (dx + dy != 1) {
    throw std::invalid_argument("segmentMetalNm: nodes not adjacent");
  }
  return nodeMetalNm(a).unionWith(nodeMetalNm(b));
}

std::size_t RoutingGrid::occupiedCount() const {
  std::size_t n = 0;
  for (NetId id : occ_) {
    if (id >= 0) ++n;
  }
  return n;
}

void RoutingGrid::resetCongestion() {
  negUsage_.assign(nodeCount(), 0);
  negHistory_.assign(nodeCount(), 0.0f);
}

void RoutingGrid::clearCongestion() {
  negUsage_.clear();
  negUsage_.shrink_to_fit();
  negHistory_.clear();
  negHistory_.shrink_to_fit();
}

void RoutingGrid::addUsage(const GridNode& n, std::int32_t delta) {
  if (!inBounds(n)) return;
  std::int32_t& u = negUsage_[index(n)];
  u = std::max<std::int32_t>(0, u + delta);
}

std::int64_t RoutingGrid::overflowCount() const {
  std::int64_t n = 0;
  for (const std::int32_t u : negUsage_) n += u > 1;
  return n;
}

std::vector<std::size_t> RoutingGrid::overflowedCells() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < negUsage_.size(); ++i) {
    if (negUsage_[i] > 1) out.push_back(i);
  }
  return out;
}

}  // namespace sadp
