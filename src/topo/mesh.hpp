// Mesh and torus topology (paper §2, Figure 1).
//
// Columns are numbered west→east and rows south→north. Internally both are
// 0-based; the paper's 1-based "column 1..n" convention appears only in
// printed output. The network is the bidirected graph in which every node
// has an outlink and inlink per adjacent node (wrap-around links on the
// torus).
#pragma once

#include "topo/topology.hpp"

namespace mr {

class Mesh final : public Topology {
 public:
  /// An n×m mesh (width = columns, height = rows). `torus` adds wrap links.
  Mesh(std::int32_t width, std::int32_t height, bool torus = false)
      : Topology(width, height, torus) {}

  /// Square n×n mesh.
  static Mesh square(std::int32_t n, bool torus = false) {
    return Mesh(n, n, torus);
  }

  std::string name() const override { return is_torus() ? "torus" : "mesh"; }

  std::unique_ptr<Topology> clone() const override {
    return std::make_unique<Mesh>(*this);
  }

  /// Neighbour in direction d, or kInvalidNode if off the mesh edge.
  NodeId neighbor(NodeId id, Dir d) const override;

  /// Shortest-path displacement. On the torus the smaller wrap is chosen;
  /// an exact tie (even dimension, displacement exactly dim/2) reports the
  /// positive direction with the corresponding `*_tie` flag set, and
  /// profitable_dirs() then contains both directions of that dimension.
  mr::Delta delta(NodeId from, NodeId to) const override;
};

}  // namespace mr
