#include "sim/trace.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "sim/sim.hpp"

namespace mr {

void TraceRecorder::record(const Sim& e, const StepDigest& d) {
  const auto deliver = [&](PacketId p) {
    const NodeId dest = e.packet(p).dest;
    push(TraceEvent{TraceEventKind::Deliver, d.step, p, dest, dest});
  };
  for (PacketId p : d.injected_deliveries) deliver(p);
  for (const MoveRecord& m : d.moves) {
    push(TraceEvent{TraceEventKind::Move, d.step, m.packet, m.from, m.to});
    if (m.delivered) deliver(m.packet);
  }
}

void TraceRecorder::push(const TraceEvent& ev) {
  if (max_events_ > 0 && events_.size() >= max_events_) {
    truncated_ = true;
    return;
  }
  events_.push_back(ev);
}

std::vector<TraceEvent> TraceRecorder::packet_history(PacketId p) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events_)
    if (ev.packet == p) out.push_back(ev);
  return out;
}

std::vector<NodeId> TraceRecorder::packet_path(PacketId p,
                                               NodeId source) const {
  std::vector<NodeId> path{source};
  for (const TraceEvent& ev : events_) {
    if (ev.packet != p || ev.kind != TraceEventKind::Move) continue;
    path.push_back(ev.to);
  }
  return path;
}

void TraceRecorder::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& ev : events_) {
    os << "{\"t\":" << ev.step << ",\"kind\":\""
       << (ev.kind == TraceEventKind::Move ? "move" : "deliver")
       << "\",\"packet\":" << ev.packet << ",\"from\":" << ev.from
       << ",\"to\":" << ev.to << "}\n";
  }
}

bool TraceRecorder::all_moves_minimal(
    const Topology& mesh, const std::vector<Packet>& packets) const {
  for (const TraceEvent& ev : events_) {
    if (ev.kind != TraceEventKind::Move) continue;
    const NodeId dest = packets[static_cast<std::size_t>(ev.packet)].dest;
    if (mesh.distance(ev.to, dest) != mesh.distance(ev.from, dest) - 1)
      return false;
  }
  return true;
}

bool TraceRecorder::link_capacity_respected() const {
  // (step, from, to) triples must be unique among moves.
  std::map<std::tuple<Step, NodeId, NodeId>, int> used;
  for (const TraceEvent& ev : events_) {
    if (ev.kind != TraceEventKind::Move) continue;
    if (++used[{ev.step, ev.from, ev.to}] > 1) return false;
  }
  return true;
}

}  // namespace mr
