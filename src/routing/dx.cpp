#include "routing/dx.hpp"

#include <utility>

namespace mr {

namespace {

template <class S>
BasicDxResidents<S> residents(S& e, NodeId u) {
  return BasicDxResidents<S>(e.packets_at(u), PacketDxViewOf<S>{&e});
}

}  // namespace

void DxAlgorithm::init(Sim& e) {
  for (NodeId u = 0; u < e.mesh().num_nodes(); ++u) {
    if (e.packets_at(u).empty()) continue;
    NodeCtx ctx(e, u);
    dx_init(ctx, residents(e, u));
    e.set_node_state(u, ctx.state);
  }
}

void DxAlgorithm::plan_out(Sim& e, NodeId u, OutPlan& plan) {
  dx_plan_out(NodeCtx(e, u), residents(std::as_const(e), u), plan);
}

void DxAlgorithm::plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
                          InPlan& plan) {
  dx_plan_in(NodeCtx(e, v), offers, plan);
}

void DxAlgorithm::update_state(Sim& e, NodeId v) {
  NodeCtx ctx(e, v);
  dx_update(ctx, residents(e, v));
  e.set_node_state(v, ctx.state);
}

void DxAlgorithm::rotating_accept(const NodeCtx& ctx, std::uint64_t rotation,
                                  std::span<const Offer> offers,
                                  InPlan& plan) {
  int free = ctx.capacity - ctx.occupancy();
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
