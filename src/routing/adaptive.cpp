#include "routing/adaptive.hpp"

namespace mr {

namespace {

constexpr DirMask kHorizontal = dir_bit(Dir::East) | dir_bit(Dir::West);
constexpr DirMask kVertical = dir_bit(Dir::North) | dir_bit(Dir::South);

/// First direction in (E,W,N,S) order present in `m`, restricted to `axis`.
bool first_dir_on_axis(DirMask m, DirMask axis, Dir& out) {
  for (Dir d : {Dir::East, Dir::West, Dir::North, Dir::South}) {
    if (mask_has(axis, d) && mask_has(m, d)) {
      out = d;
      return true;
    }
  }
  return false;
}

}  // namespace

void AdaptiveAlternateRouter::dx_init(NodeCtx&,
                                      WritableDxResidents resident) {
  for (const WritablePacketDxView v : resident)
    v.set_state((v.profitable() & kHorizontal) != 0 ? 0 : kAxisBit);
}

void AdaptiveAlternateRouter::dx_plan_out(const NodeCtx&,
                                          DxResidents resident,
                                          OutPlan& plan) {
  for (const PacketDxView v : resident) {
    const DirMask profitable = v.profitable();
    const DirMask preferred_axis = (v.state() & kAxisBit) ? kVertical
                                                          : kHorizontal;
    Dir d;
    // Preferred axis first; if the preferred outlink is taken or the axis
    // is unprofitable, adapt to the other axis.
    if (first_dir_on_axis(profitable, preferred_axis, d) &&
        plan.scheduled(d) == kInvalidPacket) {
      plan.schedule(d, v.id());
      continue;
    }
    if (first_dir_on_axis(profitable, static_cast<DirMask>(~preferred_axis),
                          d) &&
        plan.scheduled(d) == kInvalidPacket) {
      plan.schedule(d, v.id());
    }
  }
}

void AdaptiveAlternateRouter::dx_plan_in(const NodeCtx& ctx,
                                         std::span<const Offer> offers,
                                         InPlan& plan) {
  rotating_accept(ctx, ctx.state, offers, plan);
}

void AdaptiveAlternateRouter::dx_update(NodeCtx& ctx,
                                        WritableDxResidents resident) {
  // A packet that did not move this step (it arrived earlier and is still
  // here) was blocked: switch its preferred axis, provided both axes are
  // still profitable. Newly arrived packets keep their preference.
  for (const WritablePacketDxView v : resident) {
    if (v.arrived_at() == ctx.step) continue;
    const DirMask profitable = v.profitable();
    const bool h = (profitable & kHorizontal) != 0;
    const bool vert = (profitable & kVertical) != 0;
    if (h && vert) {
      v.set_state(v.state() ^ kAxisBit);
    } else if (h) {
      v.set_state(v.state() & ~kAxisBit);
    } else if (vert) {
      v.set_state(v.state() | kAxisBit);
    }
  }
  ctx.state = (ctx.state + 1) % kNumDirs;
}

void GreedyMatchRouter::dx_plan_out(const NodeCtx& ctx,
                                    DxResidents resident, OutPlan& plan) {
  // FIFO over packets; each takes its first free profitable outlink, with
  // the direction preference rotating per step so no axis is starved.
  const int start = static_cast<int>(ctx.state % kNumDirs);
  for (const PacketDxView v : resident) {
    const DirMask profitable = v.profitable();
    for (int r = 0; r < kNumDirs; ++r) {
      const Dir d = static_cast<Dir>((start + r) % kNumDirs);
      if (mask_has(profitable, d) && plan.scheduled(d) == kInvalidPacket) {
        plan.schedule(d, v.id());
        break;
      }
    }
  }
}

void GreedyMatchRouter::dx_plan_in(const NodeCtx& ctx,
                                   std::span<const Offer> offers,
                                   InPlan& plan) {
  rotating_accept(ctx, ctx.state + 1, offers, plan);
}

void GreedyMatchRouter::dx_update(NodeCtx& ctx, WritableDxResidents) {
  ctx.state = (ctx.state + 1) % kNumDirs;
}

}  // namespace mr
