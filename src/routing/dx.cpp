#include "routing/dx.hpp"

namespace mr {

namespace {

/// Outlinks that exist from u: every registered topology links a router to
/// its in-grid neighbours, and a wrapping one adds the wrap links. Cheaper
/// than four virtual Topology::neighbor calls; dx adapter tests check it
/// against Sim::available_mask on each topology.
DirMask grid_outlinks(const Topology& t, NodeId u) {
  if (t.is_torus()) {
    return dir_bit(Dir::North) | dir_bit(Dir::East) | dir_bit(Dir::South) |
           dir_bit(Dir::West);
  }
  const Coord c = t.coord_of(u);
  DirMask m = 0;
  if (c.row + 1 < t.height()) m |= dir_bit(Dir::North);
  if (c.row > 0) m |= dir_bit(Dir::South);
  if (c.col + 1 < t.width()) m |= dir_bit(Dir::East);
  if (c.col > 0) m |= dir_bit(Dir::West);
  return m;
}

}  // namespace

DxAlgorithm::NodeCtx DxAlgorithm::make_ctx(const Sim& e, NodeId u) const {
  NodeCtx ctx;
  ctx.node = u;
  ctx.step = e.step();
  ctx.capacity = e.queue_capacity();
  ctx.occupancy = e.occupancy(u);
  ctx.state = e.node_state(u);
  ctx.outlinks = grid_outlinks(e.mesh(), u);
  ctx.fault_mode = !e.fault_schedule().empty();
  if (e.queue_layout() == QueueLayout::PerInlink) {
    for (int t = 0; t < kNumDirs; ++t)
      ctx.inlink_occupancy[t] = e.occupancy(u, static_cast<QueueTag>(t));
  }
  return ctx;
}

void DxAlgorithm::fill_views(const Sim& e, NodeId u) {
  views_.clear();
  for (PacketId p : e.packets_at(u)) {
    const Packet& pk = e.packet(p);
    views_.push_back(PacketDxView{p, pk.source, pk.state, pk.arrived_at,
                                  pk.queue, pk.arrival_inlink,
                                  e.profitable_mask(p)});
  }
}

void DxAlgorithm::init(Sim& e) {
  for (NodeId u = 0; u < e.mesh().num_nodes(); ++u) {
    if (e.packets_at(u).empty()) continue;
    NodeCtx ctx = make_ctx(e, u);
    fill_views(e, u);
    dx_init(ctx, std::span<PacketDxView>(views_));
    e.set_node_state(u, ctx.state);
    for (const PacketDxView& v : views_) e.set_packet_state(v.id, v.state);
  }
}

void DxAlgorithm::plan_out(Sim& e, NodeId u, OutPlan& plan) {
  NodeCtx ctx = make_ctx(e, u);
  fill_views(e, u);
  dx_plan_out(ctx, std::span<const PacketDxView>(views_), plan);
  // Outqueue policies may not change state (§3 updates states in (e)).
}

void DxAlgorithm::plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
                          InPlan& plan) {
  NodeCtx ctx = make_ctx(e, v);
  dx_plan_in(ctx, offers, plan);
}

void DxAlgorithm::update_state(Sim& e, NodeId v) {
  NodeCtx ctx = make_ctx(e, v);
  fill_views(e, v);
  dx_update(ctx, std::span<PacketDxView>(views_));
  e.set_node_state(v, ctx.state);
  for (const PacketDxView& view : views_)
    e.set_packet_state(view.id, view.state);
}

void DxAlgorithm::rotating_accept(const NodeCtx& ctx, std::uint64_t rotation,
                                  std::span<const Offer> offers,
                                  InPlan& plan) {
  int free = ctx.capacity - ctx.occupancy;
  const int start = static_cast<int>(rotation % kNumDirs);
  for (int r = 0; r < kNumDirs && free > 0; ++r) {
    const Dir want = static_cast<Dir>((start + r) % kNumDirs);
    for (std::size_t i = 0; i < offers.size(); ++i) {
      if (offers[i].dir == want && !plan.accept[i]) {
        plan.accept[i] = true;
        --free;
        break;
      }
    }
  }
}

}  // namespace mr
