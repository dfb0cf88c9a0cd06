// Minimal recursive JSON reader for our own machine-readable artifacts
// (INJECTABLE_JSON series records, metrics snapshots, trace meta headers).
//
// Two properties matter more than generality:
//  * Number tokens are kept verbatim (`raw`), so dump() round-trips %.17g
//    doubles and 64-bit seeds bit-exactly — re-serializing a nested "meta"
//    object yields a line parse_trace_meta() reconstructs the identical
//    config from.
//  * Object members preserve insertion order, so dump() of a value we wrote
//    reproduces our writers' field order byte for byte.
//
// The reader is strict where it matters for hostile input: numbers must
// match the JSON number grammar (no "+1", "--" or "1.2.3"), and arrays and
// objects nest at most 64 deep.
//
// No third-party dependency: the container only ships the toolchain, and the
// grammar we emit is tiny (no comments, no trailing commas needed).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ble::json {

class Value {
public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    std::string raw;  ///< number token, verbatim from the input
    std::string str;  ///< decoded string value
    std::vector<Value> array;
    std::vector<std::pair<std::string, Value>> object;  ///< insertion order

    [[nodiscard]] bool is_object() const noexcept { return kind == Kind::kObject; }
    [[nodiscard]] bool is_array() const noexcept { return kind == Kind::kArray; }

    /// First member named `key`, or nullptr (objects only).
    [[nodiscard]] const Value* find(std::string_view key) const noexcept;

    // Loose accessors: return the fallback when the kind does not match.
    [[nodiscard]] std::uint64_t as_u64(std::uint64_t fallback = 0) const noexcept;
    [[nodiscard]] std::int64_t as_i64(std::int64_t fallback = 0) const noexcept;
    [[nodiscard]] double as_double(double fallback = 0.0) const noexcept;
    [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
    [[nodiscard]] const std::string& as_string() const noexcept { return str; }

    // Keyed conveniences over find() for object values.
    [[nodiscard]] std::uint64_t u64(std::string_view key, std::uint64_t fallback = 0) const;
    [[nodiscard]] std::int64_t i64(std::string_view key, std::int64_t fallback = 0) const;
    [[nodiscard]] double number(std::string_view key, double fallback = 0.0) const;
    [[nodiscard]] bool boolean_at(std::string_view key, bool fallback = false) const;
    [[nodiscard]] std::string string_at(std::string_view key, std::string fallback = {}) const;

    /// Compact re-serialization (number tokens verbatim, members in stored
    /// order, strings re-escaped with the obs escaping rules).
    void dump(std::string& out) const;
    [[nodiscard]] std::string dump() const;
};

struct ParseResult {
    bool ok = false;
    Value value;
    std::string error;
    std::size_t error_pos = 0;  ///< byte offset of the failure
};

/// Parses one complete JSON value (trailing whitespace allowed, trailing
/// garbage is an error).
[[nodiscard]] ParseResult parse(std::string_view text);

}  // namespace ble::json
