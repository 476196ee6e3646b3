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
// dx_init, dx_plan_out and dx_update receive a range of PacketDxView
// handles that read the engine's packet records in place, and dx_plan_in
// receives the engine's Offers; neither exposes the destination, and the
// adapter (this class) is the only code path from Engine to the policy.
// Packet and node state are writable only in dx_init and dx_update: phases
// (a) and (c) get a const NodeCtx and views without set_state, so a write
// there does not compile. Lemma 10's exchange-equivariance is additionally
// property-tested in tests/dx_equivariance_test.cpp.
//
// A node IS allowed to know its own identity, its links, k and the global
// step counter: the lower-bound argument never relocates nodes, it only
// swaps destination addresses, so none of these break
// exchange-equivariance.
#pragma once

#include <ranges>
#include <span>
#include <type_traits>

#include "sim/algorithm.hpp"
#include "sim/engine.hpp"

namespace mr {

/// Handle on a resident packet's §2-legal fields, read from the Sim's
/// record on each call. S = const Sim gives a read-only view; S = Sim adds
/// set_state, which writes the record at once.
template <class S>
class BasicPacketDxView {
 public:
  BasicPacketDxView(S& sim, PacketId id) : sim_(&sim), id_(id) {}

  PacketId id() const { return id_; }  ///< stable identity, not the dest
  std::uint64_t state() const { return sim_->packet(id_).state; }
  /// Arrival step at the current node (§2 example).
  Step arrived_at() const { return sim_->packet(id_).arrived_at; }
  /// Which inlink queue the packet occupies (PerInlink layout).
  QueueTag queue() const { return sim_->packet(id_).queue; }
  /// Inlink the packet arrived on (kNoInlink when injected). DX-legal: the
  /// sender could have written it into the packet state.
  std::uint8_t arrival_inlink() const {
    return sim_->packet(id_).arrival_inlink;
  }
  /// The only destination-derived information; fault masking applies.
  DirMask profitable() const { return sim_->profitable_mask(id_); }

  void set_state(std::uint64_t s) const
    requires(!std::is_const_v<S>)
  {
    sim_->set_packet_state(id_, s);
  }

 private:
  S* sim_;
  PacketId id_;
};

using PacketDxView = BasicPacketDxView<const Sim>;
using WritablePacketDxView = BasicPacketDxView<Sim>;

template <class S>
struct PacketDxViewOf {
  S* sim = nullptr;
  BasicPacketDxView<S> operator()(PacketId p) const { return {*sim, p}; }
};

/// A node's resident packets in queue (arrival) order, as views.
template <class S>
using BasicDxResidents =
    std::ranges::transform_view<std::span<const PacketId>, PacketDxViewOf<S>>;
using DxResidents = BasicDxResidents<const Sim>;
using WritableDxResidents = BasicDxResidents<Sim>;

class DxAlgorithm : public Algorithm {
 public:
  /// Context of the node whose policy is running. The four fields are
  /// copied; everything else is read from the Sim on demand.
  class NodeCtx {
   public:
    NodeId node = kInvalidNode;
    Step step = 0;            ///< step being executed (0 during init)
    int capacity = 0;         ///< k
    std::uint64_t state = 0;  ///< node state; written back after init/update

    /// Packets queued here (Sim::occupancy).
    int occupancy() const { return sim_->occupancy(node); }
    /// Occupancy of one inlink queue (PerInlink layout only). §2-legal:
    /// derivable from the resident packets' queue tags.
    int inlink_occupancy(QueueTag tag) const {
      return sim_->occupancy(node, tag);
    }
    /// True if the outlink in direction d exists from this node, whether
    /// or not a fault has it down.
    bool has_outlink(Dir d) const {
      return sim_->mesh().neighbor(node, d) != kInvalidNode;
    }
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
    bool fault_mode() const { return !sim_->fault_schedule().empty(); }

   private:
    friend class DxAlgorithm;
    NodeCtx(const Sim& sim, NodeId u)
        : node(u),
          step(sim.step()),
          capacity(sim.queue_capacity()),
          state(sim.node_state(u)),
          sim_(&sim) {}

    const Sim* sim_;
  };

  // Adapter plumbing: translates Engine callbacks into DX calls. Final so
  // subclasses cannot reopen access to destinations.
  void init(Sim& e) final;
  void plan_out(Sim& e, NodeId u, OutPlan& plan) final;
  void plan_in(Sim& e, NodeId v, std::span<const Offer> offers,
               InPlan& plan) final;
  void update_state(Sim& e, NodeId v) final;

 protected:
  /// Initial node state from the profitable outlinks of resident packets
  /// (§3: the initial state may depend on the packet that originates
  /// there). Packet states may be set through `resident`.
  virtual void dx_init(NodeCtx& ctx, WritableDxResidents resident) {
    (void)ctx;
    (void)resident;
  }

  /// Outqueue policy: schedule at most one resident packet per outlink.
  virtual void dx_plan_out(const NodeCtx& ctx, DxResidents resident,
                           OutPlan& plan) = 0;

  /// Inqueue policy: fill plan.accept (same indexing as offers). Must
  /// guarantee no overflow given that none of the node's own packets is
  /// certain to leave. Each offer's `profitable_from_sender` is measured
  /// from the sending node, as §2 prescribes.
  virtual void dx_plan_in(const NodeCtx& ctx, std::span<const Offer> offers,
                          InPlan& plan) = 0;

  /// End-of-step state update; packet states may be set through
  /// `resident`. Default: no state.
  virtual void dx_update(NodeCtx& ctx, WritableDxResidents resident) {
    (void)ctx;
    (void)resident;
  }

  /// Conservative round-robin inqueue (the paper's §2 example): starting
  /// at travel direction `rotation % 4`, accept one offer per direction
  /// while space remains even if none of the node's own packets departs.
  static void rotating_accept(const NodeCtx& ctx, std::uint64_t rotation,
                              std::span<const Offer> offers, InPlan& plan);
};

}  // namespace mr
