#include "topo/topology.hpp"

#include <cstdlib>
#include <limits>

namespace mr {

Topology::Topology(std::int32_t width, std::int32_t height, bool wraps)
    : width_(width), height_(height), wraps_(wraps) {
  MR_REQUIRE_MSG(width >= 1 && height >= 1,
                 "mesh dimensions must be positive, got " << width << "x"
                                                          << height);
  // num_nodes() is an int32 product; NodeIds must stay representable.
  MR_REQUIRE_MSG(static_cast<std::int64_t>(width) * height <=
                     std::numeric_limits<std::int32_t>::max(),
                 "mesh " << width << "x" << height
                         << " has more nodes than fit an int32 NodeId");
}

std::vector<NodeId> Topology::all_nodes() const {
  std::vector<NodeId> v;
  v.reserve(static_cast<std::size_t>(num_nodes()));
  for (NodeId id = 0; id < num_nodes(); ++id) v.push_back(id);
  return v;
}

std::int32_t Topology::distance(NodeId from, NodeId to) const {
  const Delta d = delta(from, to);
  return std::abs(d.east) + std::abs(d.north);
}

DirMask Topology::profitable_dirs(NodeId from, NodeId to) const {
  const Delta d = delta(from, to);
  DirMask m = 0;
  if (d.east > 0 || (d.east != 0 && d.east_tie)) m |= dir_bit(Dir::East);
  if (d.east < 0 || (d.east != 0 && d.east_tie)) m |= dir_bit(Dir::West);
  if (d.north > 0 || (d.north != 0 && d.north_tie)) m |= dir_bit(Dir::North);
  if (d.north < 0 || (d.north != 0 && d.north_tie)) m |= dir_bit(Dir::South);
  return m;
}

}  // namespace mr
