// Destination-exchangeable (DX) algorithm interface (paper §2).
//
// §2 restricts the information a "simple" routing algorithm may use:
//   * outqueue policy: states, source addresses and profitable outlinks of
//     resident packets; the node's state;
//   * inqueue policy: the node's state and occupancy, plus the scheduled
//     packets' profitable outlinks measured from the SENDING node;
//   * state updates: the same quantities as the outqueue policy.
// Crucially, a packet's destination address is visible only through its
// profitable-outlink mask. DxAlgorithm enforces this by construction:
// dx_init, dx_plan_out and dx_update receive PacketDxView records, and
// dx_plan_in receives the engine's Offers; neither contains the
// destination, and the adapter (this class) is the only code path from
// Engine to the policy. Lemma 10's exchange-equivariance is additionally
// property-tested in tests/dx_equivariance_test.cpp.
//
// A node IS allowed to know its own identity, its links, k and the global
// step counter: the lower-bound argument never relocates nodes, it only
// swaps destination addresses, so none of these break
// exchange-equivariance.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "sim/algorithm.hpp"
#include "sim/engine.hpp"

namespace mr {

/// The §2-legal view of a resident packet.
struct PacketDxView {
  PacketId id = kInvalidPacket;  ///< stable identity (not the destination)
  NodeId source = kInvalidNode;
  std::uint64_t state = 0;
  Step arrived_at = 0;       ///< arrival step at current node (§2 example)
  QueueTag queue = kCentralQueue;  ///< which inlink queue (PerInlink layout)
  /// Inlink the packet arrived on (kNoInlink when injected). DX-legal: the
  /// sender could have written it into the packet state.
  std::uint8_t arrival_inlink = kNoInlink;
  DirMask profitable = 0;    ///< the only destination-derived information
};

class DxAlgorithm : public Algorithm {
 public:
  /// Context of the node whose policy is running.
  struct NodeCtx {
    NodeId node = kInvalidNode;
    Step step = 0;             ///< step being executed (0 during init)
    int capacity = 0;          ///< k
    int occupancy = 0;         ///< packets queued here (Sim::occupancy)
    std::uint64_t state = 0;   ///< node state; written back after the call
    /// Per-inlink queue occupancy at this node (PerInlink layout only;
    /// all-zero under the central layout). §2-legal: derivable from the
    /// resident packet views, provided precomputed so policies need not
    /// rescan the queue.
    std::array<int, kNumDirs> inlink_occupancy{};
    /// Outlinks that exist from this node, whether or not a fault has
    /// them down.
    DirMask outlinks = 0;

    /// True when a non-empty fault schedule (sim/fault.hpp) is installed
    /// for this run — whether or not a window is active at this step.
    /// Policies whose acceptance rule rests on a guaranteed departure
    /// (Theorem 15) must fall back to conservative acceptance whenever
    /// this is set, for the WHOLE run: fault rerouting pushes row-phase
    /// packets through column links, and such a packet stays parked in a
    /// column queue after the window lifts, so the queue-phase structure
    /// those guarantees rest on is void globally and outlives every
    /// window. Environmental knowledge, not destination-derived, so
    /// exchange-equivariance is unaffected.
    bool fault_mode = false;

    /// True if the outlink in direction d exists from this node.
    bool has_outlink(Dir d) const { return mask_has(outlinks, d); }
  };

  // Adapter plumbing: translates Engine callbacks into DX views. Final so
  // subclasses cannot reopen access to destinations.
  void init(Sim& e) final;
  void plan_out(Sim& e, NodeId u, OutPlan& plan) final;
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) final;
  void update_state(Sim& e, NodeId v) final;

 protected:
  /// Initial node state from the profitable outlinks of resident packets
  /// (§3: the initial state may depend on the packet that originates
  /// there). Packet `state` fields in `resident` may be modified; they are
  /// written back.
  virtual void dx_init(NodeCtx& ctx, std::span<PacketDxView> resident) {
    (void)ctx;
    (void)resident;
  }

  /// Outqueue policy: schedule at most one resident packet per outlink.
  virtual void dx_plan_out(NodeCtx& ctx,
                           std::span<const PacketDxView> resident,
                           OutPlan& plan) = 0;

  /// Inqueue policy: fill plan.accept (same indexing as offers). Must
  /// guarantee no overflow given that none of the node's own packets is
  /// certain to leave. Each offer's `profitable_from_sender` is measured
  /// from the sending node, as §2 prescribes.
  virtual void dx_plan_in(NodeCtx& ctx, std::span<const Offer> offers,
                          InPlan& plan) = 0;

  /// End-of-step state update; resident packet states may be modified and
  /// are written back. Default: no state.
  virtual void dx_update(NodeCtx& ctx, std::span<PacketDxView> resident) {
    (void)ctx;
    (void)resident;
  }

  /// Conservative round-robin inqueue (the paper's §2 example): starting
  /// at travel direction `rotation % 4`, accept one offer per direction
  /// while space remains even if none of the node's own packets departs.
  static void rotating_accept(const NodeCtx& ctx, std::uint64_t rotation,
                              std::span<const Offer> offers, InPlan& plan);

 private:
  NodeCtx make_ctx(const Sim& e, NodeId u) const;
  void fill_views(const Sim& e, NodeId u);

  // scratch, reused across callbacks
  std::vector<PacketDxView> views_;
};

}  // namespace mr
