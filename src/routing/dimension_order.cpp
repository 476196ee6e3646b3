#include "routing/dimension_order.hpp"

namespace mr {

bool dimension_order_dir(DirMask mask, Dir& out) {
  if (mask_has(mask, Dir::East)) {
    out = Dir::East;
    return true;
  }
  if (mask_has(mask, Dir::West)) {
    out = Dir::West;
    return true;
  }
  if (mask_has(mask, Dir::North)) {
    out = Dir::North;
    return true;
  }
  if (mask_has(mask, Dir::South)) {
    out = Dir::South;
    return true;
  }
  return false;
}

void DimensionOrderRouter::dx_plan_out(const NodeCtx&, DxResidents resident,
                                       OutPlan& plan) {
  // FIFO: `resident` is in queue (arrival) order, so the first eligible
  // packet per outlink wins.
  for (const PacketDxView v : resident) {
    Dir d;
    if (!dimension_order_dir(v.profitable(), d)) continue;
    if (plan.scheduled(d) == kInvalidPacket) plan.schedule(d, v.id());
  }
}

void DimensionOrderRouter::dx_plan_in(const NodeCtx& ctx,
                                      std::span<const Offer> offers,
                                      InPlan& plan) {
  // The starting inlink advances by one every step (see dx_update).
  rotating_accept(ctx, ctx.state, offers, plan);
}

void DimensionOrderRouter::dx_update(NodeCtx& ctx, WritableDxResidents) {
  ctx.state = (ctx.state + 1) % kNumDirs;
}

}  // namespace mr
