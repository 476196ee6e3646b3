// Minimal JSON reader/writer helpers for the harness layer.
//
// Just enough JSON to round-trip the machine-readable records this repo
// emits (scenario results, the engine benchmark record): objects, arrays,
// strings with standard escapes, numbers, booleans, null. Not a general
// validator — malformed input is rejected with a position, nothing more.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mr::json {

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered; duplicate keys keep the first occurrence on find().
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
};

/// Parses `text` as one JSON value (trailing whitespace allowed). On
/// failure returns nullopt and, when `error` is non-null, stores a
/// message with the byte offset of the problem.
std::optional<Value> parse(const std::string& text, std::string* error);

/// True when `v` is a whole number in int64 range; stores it in *out.
/// Decoders read integers through this (or get_int) so that a value such
/// as 1e30 is rejected instead of cast (undefined behaviour) and 2.5 is
/// rejected instead of truncated.
bool whole_int64(const Value& v, std::int64_t* out);

/// True when `v` is representable as an int32 (the engine's size type).
bool fits_int32(std::int64_t v);

/// Object member readers: true, with *out set, when `obj` has `key` and
/// it holds a whole number in int64 range (get_int), a number
/// (get_double) or a boolean (get_bool); false otherwise.
bool get_int(const Value& obj, const char* key, std::int64_t* out);
bool get_double(const Value& obj, const char* key, double* out);
bool get_bool(const Value& obj, const char* key, bool* out);

/// Escapes `s` for embedding in a JSON string literal (no surrounding
/// quotes). Non-ASCII bytes pass through (UTF-8 is valid JSON).
std::string escape(const std::string& s);

/// Formats a double the way the repo's JSON writers do: shortest form
/// that round-trips integers exactly ("3" not "3.000000").
std::string number_to_string(double v);

/// Formats a double with enough digits to round-trip ANY IEEE double
/// exactly (%.17g). Checkpoint-grade records that must compare equal to a
/// re-serialisation use this instead of number_to_string.
std::string exact_number_to_string(double v);

}  // namespace mr::json
