// Event trace recorder: captures every move, delivery and injection of a
// run as a flat event list that can be replayed against invariants,
// diffed between runs, or dumped as JSON-lines for external tooling.
// Purely observational (a StepObserver); never influences routing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/algorithm.hpp"
#include "sim/packet.hpp"
#include "topo/topology.hpp"

namespace mr {

enum class TraceEventKind : std::uint8_t { Move, Deliver };

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::Move;
  Step step = 0;
  PacketId packet = kInvalidPacket;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;  ///< destination node for Deliver

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Per step, events are recorded in digest order: injected deliveries,
/// then each transmission as a Move (followed by a Deliver when the hop
/// reached the destination).
class TraceRecorder : public StepObserver {
 public:
  /// max_events bounds memory (0 = unlimited); recording stops silently at
  /// the cap and truncated() reports it.
  explicit TraceRecorder(std::size_t max_events = 0)
      : max_events_(max_events) {}

  void on_prepare(const Sim& e, const StepDigest& d) override { record(e, d); }
  void on_step(const Sim& e, const StepDigest& d) override { record(e, d); }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool truncated() const { return truncated_; }

  /// Events of one packet, in order.
  std::vector<TraceEvent> packet_history(PacketId p) const;

  /// The node-path a packet took (source first; destination last if it was
  /// delivered).
  std::vector<NodeId> packet_path(PacketId p, NodeId source) const;

  /// JSON-lines dump ({"t":..,"kind":"move",...} per line).
  void write_jsonl(std::ostream& os) const;

  /// True iff every recorded move reduces the L1 distance to the packet's
  /// final destination — replays the minimality invariant offline.
  bool all_moves_minimal(const Topology& mesh,
                         const std::vector<Packet>& packets) const;

  /// True iff no directed link carries two packets in the same step.
  bool link_capacity_respected() const;

 private:
  void record(const Sim& e, const StepDigest& d);
  void push(const TraceEvent& ev);

  std::size_t max_events_;
  bool truncated_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace mr
