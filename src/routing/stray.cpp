#include "routing/stray.hpp"

namespace mr {

void StrayRouter::dx_plan_out(const NodeCtx& ctx, DxResidents resident,
                              OutPlan& plan) {
  for (const PacketDxView v : resident) {
    const std::uint64_t s = v.state();
    if (armed(s)) {
      // Committed to a deflection: attempt it (and only it) until it lands.
      const Dir d = armed_dir(s);
      if (ctx.has_outlink(d) && plan.scheduled(d) == kInvalidPacket)
        plan.schedule(d, v.id());
      continue;
    }
    const DirMask profitable = v.profitable();
    for (Dir d : {Dir::East, Dir::North, Dir::West, Dir::South}) {
      if (mask_has(profitable, d) && plan.scheduled(d) == kInvalidPacket) {
        plan.schedule(d, v.id());
        break;
      }
    }
  }
}

void StrayRouter::dx_plan_in(const NodeCtx& ctx, std::span<const Offer> offers,
                             InPlan& plan) {
  rotating_accept(ctx, ctx.state, offers, plan);
}

void StrayRouter::dx_update(NodeCtx& ctx, WritableDxResidents resident) {
  for (const WritablePacketDxView v : resident) {
    std::uint64_t s = v.state();
    const bool moved = v.arrived_at() == ctx.step;
    if (moved) {
      const std::uint8_t inlink = v.arrival_inlink();
      if (armed(s) && inlink < kNumDirs &&
          opposite(static_cast<Dir>(inlink)) == armed_dir(s)) {
        // The armed deflection landed here: charge one unit of stray debt
        // and disarm. (A profitable hop cannot have happened while armed —
        // plan_out only schedules the armed direction.)
        const std::uint64_t new_debt =
            std::min<std::uint64_t>(debt(s) + 1, kDebtMask);
        s = (new_debt << kDebtShift);  // disarm, reset streak
      } else {
        s &= ~(kStreakMask << kStreakShift);  // reset streak
        s &= ~(kArmedBit | kDirMaskBits);
      }
      v.set_state(s);
      continue;
    }
    // Blocked this step.
    const std::uint64_t new_streak =
        std::min<std::uint64_t>(streak(s) + 1, kStreakMask);
    s = (s & ~(kStreakMask << kStreakShift)) | (new_streak << kStreakShift);
    if (armed(s)) {
      // A stuck deflection is re-aimed after a while (the target stayed
      // full); disarming lets the packet try profitable directions again.
      if (new_streak >= static_cast<std::uint64_t>(2 * block_threshold_))
        s &= ~(kArmedBit | kDirMaskBits);
    } else if (static_cast<int>(new_streak) >= block_threshold_ &&
               debt(s) < delta_) {
      // Arm a deflection: first existing unprofitable outlink, scanning
      // from a per-step rotation so repeated deflections spread out.
      const DirMask profitable = v.profitable();
      const int start = static_cast<int>((ctx.state + v.id()) % kNumDirs);
      for (int r = 0; r < kNumDirs; ++r) {
        const Dir d = static_cast<Dir>((start + r) % kNumDirs);
        if (mask_has(profitable, d)) continue;
        if (!ctx.has_outlink(d)) continue;
        s = (s & ~(kArmedBit | kDirMaskBits)) | kArmedBit |
            static_cast<std::uint64_t>(dir_index(d));
        break;
      }
    }
    v.set_state(s);
  }
  ctx.state = (ctx.state + 1) % kNumDirs;
}

}  // namespace mr
