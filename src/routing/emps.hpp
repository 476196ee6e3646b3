// Online deterministic grid router after Even–Medina–Patt-Shamir ("Better
// Deterministic Online Packet Routing on Grids", SPAA 2015,
// arXiv:1501.06140), the competitor baseline of E22.
//
// Structure, adapted to this engine's synchronous store-and-forward model:
//   * one-bend row-first paths — a packet crosses its source row to the
//     destination column, turns once, and crosses the column (the EMPS
//     path system restricted to a single bend);
//   * per-link buffers — the Theorem 15 per-inlink queue layout stands in
//     for the paper's constant-size link buffers;
//   * line-routing priority — on every link, packets already travelling in
//     that dimension ("continuing") outrank packets entering it (turning
//     or freshly injected), and within a tier the packet with the farthest
//     remaining distance in the dimension goes first. This is the classic
//     farthest-to-go discipline EMPS builds each grid phase from.
//
// The priority uses the actual remaining distance, not just the profitable
// mask, so the router is full-information (like farthest-first) and stays
// outside the destination-exchangeable lower-bound class: dx_minimal is
// false in the catalog. Acceptance is capacity-checked per inlink queue —
// no guaranteed-departure assumption — so the router needs no fault-mode
// fallback and runs unchanged under fault schedules and on the torus.
#pragma once

#include "sim/algorithm.hpp"
#include "sim/engine.hpp"

namespace mr {

class EmpsRouter final : public Algorithm {
 public:
  std::string name() const override { return "emps"; }
  bool stationary() const override { return true; }
  QueueLayout queue_layout() const override { return QueueLayout::PerInlink; }

  void plan_out(Sim& e, NodeId u, OutPlan& plan) override;
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) override;
};

}  // namespace mr
