#include "sim/snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/json_min.hpp"

namespace mr {
namespace {

// ---------------------------------------------------------------------------
// Little-endian scalar encode/decode. The payload is byte-defined, not
// struct-defined, so snapshots are portable across compilers/ABIs.

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_i64(std::string& out, std::int64_t v) { put_u64(out, static_cast<std::uint64_t>(v)); }
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
void put_i32(std::string& out, std::int32_t v) { put_u32(out, static_cast<std::uint32_t>(v)); }
void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

/// Bounds-checked payload reader; any overrun is a Format error.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) {
    if (bytes_.size() - pos_ < n)
      throw SnapshotError(SnapshotError::Kind::Format, "snapshot payload truncated");
  }
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

const char* layout_name(QueueLayout layout) {
  return layout == QueueLayout::Central ? "central" : "per-inlink";
}

[[noreturn]] void format_error(const std::string& what) {
  throw SnapshotError(SnapshotError::Kind::Format, "snapshot: " + what);
}

// Header field accessors; every miss is a Format error so a hand-edited or
// truncated header fails loudly instead of defaulting.
const json::Value& field(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (!v) format_error(std::string("header missing field \"") + key + "\"");
  return *v;
}
std::string str_field(const json::Value& obj, const char* key) {
  const json::Value& v = field(obj, key);
  if (!v.is_string()) format_error(std::string("header field \"") + key + "\" must be a string");
  return v.string;
}
std::int64_t int_field(const json::Value& obj, const char* key) {
  std::int64_t out = 0;
  if (!json::whole_int64(field(obj, key), &out))
    format_error(std::string("header field \"") + key +
                 "\" must be a whole number in int64 range");
  return out;
}
std::int32_t int32_field(const json::Value& obj, const char* key) {
  const std::int64_t v = int_field(obj, key);
  if (!json::fits_int32(v))
    format_error(std::string("header field \"") + key + "\" out of int32 range");
  return static_cast<std::int32_t>(v);
}

std::string payload_bytes(const EngineSnapshot& snap) {
  std::string p;
  p.reserve(snap.packets.size() * 48 + snap.node_state.size() * 8 +
            snap.injections.size() * 12 + snap.waiting_injections.size() * 4 + 64);
  for (const Packet& pk : snap.packets) {
    put_i32(p, pk.id);
    put_i32(p, pk.source);
    put_i32(p, pk.dest);
    put_i32(p, pk.location);
    put_u64(p, pk.state);
    put_u8(p, pk.queue);
    put_i32(p, pk.slot);
    put_u8(p, pk.arrival_inlink);
    put_i64(p, pk.injected_at);
    put_i64(p, pk.arrived_at);
    put_i64(p, pk.delivered_at);
  }
  for (std::uint64_t s : snap.node_state) put_u64(p, s);
  for (const auto& [step, id] : snap.injections) {
    put_i64(p, step);
    put_i32(p, id);
  }
  for (PacketId id : snap.waiting_injections) put_i32(p, id);
  put_u64(p, snap.injection_cursor);
  put_u64(p, snap.delivered_count);
  put_u8(p, snap.stalled ? 1 : 0);
  put_u64(p, snap.exchange_count);
  put_i32(p, snap.max_occupancy_seen);
  put_i64(p, snap.total_moves);
  put_i64(p, snap.stall_run);
  return p;
}

}  // namespace

std::string serialize_snapshot(const EngineSnapshot& snap) {
  const std::string payload = payload_bytes(snap);

  std::ostringstream h;
  h << "{\"topology\":\"" << json::escape(snap.meta.topology) << "\""
    << ",\"width\":" << snap.meta.width << ",\"height\":" << snap.meta.height
    << ",\"algorithm\":\"" << json::escape(snap.meta.algorithm) << "\""
    << ",\"k\":" << snap.meta.queue_capacity
    << ",\"layout\":\"" << layout_name(snap.meta.layout) << "\""
    << ",\"shards\":" << snap.meta.shards << ",\"step\":" << snap.meta.step
    << ",\"packets\":" << snap.packets.size()
    << ",\"nodes\":" << snap.node_state.size()
    << ",\"injections\":" << snap.injections.size()
    << ",\"waiting\":" << snap.waiting_injections.size()
    << ",\"payload_bytes\":" << payload.size()
    << ",\"checksum\":\"" << hex_u64(fnv1a(payload)) << "\"";
  h << ",\"aux\":{";
  bool first = true;
  for (const auto& [key, blob] : snap.aux) {
    if (!first) h << ",";
    first = false;
    h << "\"" << json::escape(key) << "\":\"" << json::escape(blob) << "\"";
  }
  h << "}}";

  std::string out = kSnapshotMagic;
  out += "\n";
  out += h.str();
  out += "\n";
  out += payload;
  return out;
}

EngineSnapshot parse_snapshot(std::string_view bytes) {
  const std::size_t magic_end = bytes.find('\n');
  if (magic_end == std::string_view::npos || bytes.substr(0, magic_end) != kSnapshotMagic)
    format_error(std::string("bad magic, expected \"") + kSnapshotMagic + "\"");

  const std::size_t header_end = bytes.find('\n', magic_end + 1);
  if (header_end == std::string_view::npos) format_error("missing header line");
  const std::string header_text(bytes.substr(magic_end + 1, header_end - magic_end - 1));

  std::string err;
  std::optional<json::Value> header = json::parse(header_text, &err);
  if (!header || !header->is_object()) format_error("header is not a JSON object: " + err);

  EngineSnapshot snap;
  snap.meta.topology = str_field(*header, "topology");
  snap.meta.width = int32_field(*header, "width");
  snap.meta.height = int32_field(*header, "height");
  snap.meta.algorithm = str_field(*header, "algorithm");
  snap.meta.queue_capacity = int32_field(*header, "k");
  const std::string layout = str_field(*header, "layout");
  if (layout == "central") {
    snap.meta.layout = QueueLayout::Central;
  } else if (layout == "per-inlink") {
    snap.meta.layout = QueueLayout::PerInlink;
  } else {
    format_error("unknown layout \"" + layout + "\"");
  }
  snap.meta.shards = int32_field(*header, "shards");
  snap.meta.step = int_field(*header, "step");

  const std::int64_t n_packets = int_field(*header, "packets");
  const std::int64_t n_nodes = int_field(*header, "nodes");
  const std::int64_t n_injections = int_field(*header, "injections");
  const std::int64_t n_waiting = int_field(*header, "waiting");
  const std::int64_t n_payload = int_field(*header, "payload_bytes");
  if (n_packets < 0 || n_nodes < 0 || n_injections < 0 || n_waiting < 0 || n_payload < 0)
    format_error("negative element count in header");

  const json::Value& aux = field(*header, "aux");
  if (!aux.is_object()) format_error("header field \"aux\" must be an object");
  for (const auto& [key, value] : aux.object) {
    if (!value.is_string()) format_error("aux entry \"" + key + "\" must be a string");
    snap.aux.emplace_back(key, value.string);
  }

  const std::string_view payload = bytes.substr(header_end + 1);
  if (payload.size() != static_cast<std::size_t>(n_payload))
    format_error("payload size mismatch (header says " + std::to_string(n_payload) +
                 " bytes, file has " + std::to_string(payload.size()) + ")");
  const std::string checksum = str_field(*header, "checksum");
  if (checksum != hex_u64(fnv1a(payload))) format_error("payload checksum mismatch");

  Reader r(payload);
  snap.packets.resize(static_cast<std::size_t>(n_packets));
  for (Packet& pk : snap.packets) {
    pk.id = r.i32();
    pk.source = r.i32();
    pk.dest = r.i32();
    pk.location = r.i32();
    pk.state = r.u64();
    pk.queue = r.u8();
    pk.slot = r.i32();
    pk.arrival_inlink = r.u8();
    pk.injected_at = r.i64();
    pk.arrived_at = r.i64();
    pk.delivered_at = r.i64();
    pk.profitable = 0;  // derived; Engine::restore recomputes
  }
  snap.node_state.resize(static_cast<std::size_t>(n_nodes));
  for (std::uint64_t& s : snap.node_state) s = r.u64();
  snap.injections.resize(static_cast<std::size_t>(n_injections));
  for (auto& [step, id] : snap.injections) {
    step = r.i64();
    id = r.i32();
  }
  snap.waiting_injections.resize(static_cast<std::size_t>(n_waiting));
  for (PacketId& id : snap.waiting_injections) id = r.i32();
  snap.injection_cursor = r.u64();
  snap.delivered_count = r.u64();
  snap.stalled = r.u8() != 0;
  snap.exchange_count = r.u64();
  snap.max_occupancy_seen = r.i32();
  snap.total_moves = r.i64();
  snap.stall_run = r.i64();
  if (!r.exhausted()) format_error("trailing bytes after payload");
  return snap;
}

void write_snapshot_file(const std::string& path, const EngineSnapshot& snap) {
  write_text_file_atomic(path, serialize_snapshot(snap));
}

EngineSnapshot read_snapshot_file(const std::string& path) {
  std::string bytes;
  if (!read_text_file(path, &bytes))
    throw SnapshotError(SnapshotError::Kind::Io, "cannot read snapshot file: " + path);
  return parse_snapshot(bytes);
}

bool read_text_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return false;
  *out = buf.str();
  return true;
}

void write_text_file_atomic(const std::string& path, const std::string& content) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path target(path);
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec)
      throw SnapshotError(SnapshotError::Kind::Io,
                          "cannot create directory " + target.parent_path().string() +
                              ": " + ec.message());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw SnapshotError(SnapshotError::Kind::Io, "cannot open for write: " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) throw SnapshotError(SnapshotError::Kind::Io, "short write: " + tmp);
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw SnapshotError(SnapshotError::Kind::Io, "cannot rename into place: " + path);
  }
}

}  // namespace mr
