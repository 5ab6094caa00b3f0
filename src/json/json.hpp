// Minimal JSON document model for the run-artifact store.
//
// The campaign engine persists one JSON file per measurement run plus a
// manifest per campaign; loaders re-aggregate figures without re-simulating.
// Requirements that rule out an ad-hoc printf approach: byte-stable output
// (object members keep insertion order, doubles print shortest-round-trip via
// std::to_chars) so "same campaign -> same bytes" holds and the determinism
// tests can compare serialized reports verbatim; and exact integer fidelity
// (64-bit counters are kept as integers, never squeezed through a double).
// No third-party dependency: the toolchain image is frozen.
//
// Layout: a Value is a 16-byte tagged union — the kind plus one 8-byte
// payload that is either the scalar itself (bool, int64, uint64, double) or
// an owning pointer to the string, array or object. A campaign report holds
// millions of per-packet samples, so the node size sets both the time to
// build the tree and the peak memory of the process that serializes it.
// Copies are deep; a moved-from Value is null.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rpv::json {

class Value;

// One object member; a vector of these preserves insertion order, which keeps
// dumps deterministic and diffs readable (std::map would reorder keys).
struct Member;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Value() noexcept = default;  // null
  Value(bool b) noexcept : kind_{Kind::kBool}, p_{.b = b} {}
  Value(int i) noexcept : kind_{Kind::kInt}, p_{.i = i} {}
  Value(std::int64_t i) noexcept : kind_{Kind::kInt}, p_{.i = i} {}
  Value(std::uint64_t u) noexcept : kind_{Kind::kUint}, p_{.u = u} {}
  Value(double d) noexcept : kind_{Kind::kDouble}, p_{.d = d} {}
  Value(std::string s);
  Value(const char* s);

  Value(const Value& other);
  Value(Value&& other) noexcept : kind_{other.kind_}, p_{other.p_} {
    other.kind_ = Kind::kNull;
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() {
    if (kind_ >= Kind::kString) release(kind_, p_);
  }

  [[nodiscard]] static Value array();
  [[nodiscard]] static Value object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }

  // Typed accessors; numeric ones coerce between the three number kinds and
  // throw std::runtime_error on any other kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- Arrays ---
  Value& push_back(Value v);
  [[nodiscard]] const std::vector<Value>& items() const;

  // --- Objects ---
  // Appends (or overwrites) a member; returns *this for chaining.
  Value& set(std::string key, Value v);
  // nullptr when the key is absent (or *this is not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;
  // Throws std::runtime_error naming the missing key.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] const std::vector<Member>& members() const;

  [[nodiscard]] std::size_t size() const;

  // Serialize. indent < 0 -> compact single line; indent >= 0 -> pretty
  // printed with that many spaces per level. Non-finite doubles become null.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  // The scalar, or the owning pointer of a kString/kArray/kObject node
  // (never null for those kinds).
  union Payload {
    bool b;
    std::int64_t i;
    std::uint64_t u;
    double d;
    std::string* s;
    std::vector<Value>* a;
    std::vector<Member>* o;
  };

  static void release(Kind kind, Payload p) noexcept;
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  Payload p_{.u = 0};
};

static_assert(sizeof(Value) <= 16, "json::Value must stay a 16-byte node");

struct Member {
  std::string key;
  Value value;
};

// Deeper nesting than this is rejected by parse(): reports nest about four
// levels, and the bound keeps the recursive parser off the end of the stack.
inline constexpr int kMaxParseDepth = 512;

// Parse a complete JSON document; throws std::runtime_error with an offset
// on malformed input or nesting deeper than kMaxParseDepth. Integer tokens
// without '.'/'e' parse as kInt/kUint.
[[nodiscard]] Value parse(std::string_view text);

// Non-throwing variant for probing possibly-corrupt files.
[[nodiscard]] std::optional<Value> try_parse(std::string_view text);

// Whole-file helpers used by the artifact store.
[[nodiscard]] bool write_file(const std::string& path, const Value& v,
                              int indent = 2);
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace rpv::json
