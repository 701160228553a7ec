// The project's one JSON codec: reader, writer and typed member reads.
//
// Everything that leaves or enters a run as JSON goes through here: run
// reports, Chrome traces, ledger lines, bench artifacts, the drain state
// file and the daemon's NDJSON protocol.  So the format decisions live
// in one place:
//
//   * Unsigned integers are bare digit runs both ways: the writer prints
//     u64s exactly and the reader keeps non-negative integer literals as
//     exact u64s (JsonValue::Kind::kUnsigned), so seeds and fingerprint
//     words never pass through a double.
//   * Doubles are written with %.17g, which round-trips every finite
//     double bit-exactly -- the ledger's "bit-identical" verdicts rely on
//     it.  JSON has no NaN/Inf; the writer flattens them to 0.
//   * The reader is bounded: nesting deeper than kMaxDepth fails, and so
//     does any number outside JSON's grammar or outside the range of its
//     type.  Every failure is a ParseError carrying the byte offset.
//     Input size is bounded by the callers (the socket server caps a
//     client line; files are written by this codec).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace glitchmask::json {

/// Deepest array/object nesting parse_json accepts.  The deepest document
/// the project writes (a run report's histogram buckets) nests 5 levels.
inline constexpr std::size_t kMaxDepth = 64;

/// Malformed, too deep or out-of-range input.
class ParseError : public std::runtime_error {
public:
    ParseError(const std::string& what, std::size_t offset);
    [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

private:
    std::size_t offset_;
};

/// Parsed JSON value.  Non-negative integer literals stay exact u64s
/// (kind Unsigned); anything with a sign, fraction or exponent becomes a
/// double (kind Number).
struct JsonValue {
    enum class Kind { kNull, kBool, kUnsigned, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    std::uint64_t unsigned_value = 0;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /// Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;
    /// Numeric view: exact for Unsigned, lossy for large doubles.
    [[nodiscard]] double as_number() const noexcept {
        return kind == Kind::kUnsigned ? static_cast<double>(unsigned_value)
                                       : number;
    }
};

/// Parses one JSON document (object/array/scalar); throws ParseError.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// One member of a parsed document with typed reads.  `context` names the
/// document ("run report", "ledger entry", "campaign request") and
/// prefixes every error: "<context>: member '<key>' must be a string".
struct Member {
    const JsonValue& value;
    std::string_view key;
    std::string_view context;

    [[noreturn]] void fail(std::string_view why) const;
    [[nodiscard]] std::uint64_t u64() const;
    [[nodiscard]] double number() const;  // any numeric literal
    [[nodiscard]] bool boolean() const;
    [[nodiscard]] const std::string& string() const;
};

/// The member `key` of `object`; throws "<context>: missing member '<key>'"
/// when it is absent.
[[nodiscard]] Member require(const JsonValue& object, std::string_view key,
                             std::string_view context);

/// Streaming writer for single-line JSON.  Values follow key() or sit in
/// an array; the writer inserts the separators.  No allocation beyond
/// the output string.
class JsonWriter {
public:
    void begin_object() { open('{'); }
    void end_object() { close('}'); }
    void begin_array() { open('['); }
    void end_array() { close(']'); }

    void key(std::string_view name) {
        comma();
        quote(name);
        out_ += ':';
        pending_value_ = true;
    }

    void value(std::string_view text) {
        comma();
        quote(text);
    }
    void value(const char* text) { value(std::string_view(text)); }
    void value(bool flag) {
        comma();
        out_ += flag ? "true" : "false";
    }
    void value(std::uint64_t n);
    void value(int n);
    /// %.17g; NaN and +-Inf are written as 0.
    void value(double x);

    template <class T>
    void member(std::string_view name, const T& v) {
        key(name);
        value(v);
    }

    [[nodiscard]] std::string take() { return std::move(out_); }

private:
    void open(char c) {
        comma();
        out_ += c;
        need_comma_.push_back(false);
    }
    void close(char c) {
        out_ += c;
        need_comma_.pop_back();
        if (!need_comma_.empty()) need_comma_.back() = true;
    }
    /// Inserts the separator before a sibling; a value right after key()
    /// never takes one.
    void comma() {
        if (pending_value_) {
            pending_value_ = false;
            return;
        }
        if (!need_comma_.empty()) {
            if (need_comma_.back()) out_ += ',';
            need_comma_.back() = true;
        }
    }
    void quote(std::string_view text);
    template <class Integer>
    void integer(Integer n);

    std::string out_;
    std::vector<bool> need_comma_;
    bool pending_value_ = false;
};

}  // namespace glitchmask::json
