#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace glitchmask::json {

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue document() {
        JsonValue value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters");
        return value;
    }

private:
    [[noreturn]] void fail(const std::string& what) const {
        throw ParseError(what, pos_);
    }

    void skip_ws() {
        pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_),
                        text_.size());
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume(char c) {
        if (pos_ >= text_.size() || text_[pos_] != c) return false;
        ++pos_;
        return true;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    /// Skips a run of decimal digits; returns its length.
    std::size_t digits() {
        const std::size_t start = pos_;
        pos_ = std::min(text_.find_first_not_of("0123456789", pos_),
                        text_.size());
        return pos_ - start;
    }

    JsonValue parse_value() {
        skip_ws();
        JsonValue value;
        switch (peek()) {
            case '{': return parse_container('}');
            case '[': return parse_container(']');
            case '"':
                value.kind = JsonValue::Kind::kString;
                value.string = parse_string();
                return value;
            case 't':
            case 'f':
                value.kind = JsonValue::Kind::kBool;
                value.boolean = consume_literal("true");
                if (!value.boolean && !consume_literal("false"))
                    fail("bad literal");
                return value;
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return value;
            default: return parse_number();
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    unsigned code = 0;
                    const std::string_view hex = text_.substr(pos_, 4);
                    const char* hex_end = hex.data() + hex.size();
                    if (hex.size() != 4 ||
                        std::from_chars(hex.data(), hex_end, code, 16).ptr !=
                            hex_end)
                        fail("bad \\u escape");
                    pos_ += 4;
                    // The writer only emits \u for control chars; keep
                    // other BMP points as UTF-8.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    /// JSON's grammar over the whole token:
    /// -? (0|[1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
    JsonValue parse_number() {
        const std::size_t start = pos_;
        const bool negative = consume('-');
        const std::size_t integer_start = pos_;
        const std::size_t integer_digits = digits();
        if (integer_digits == 0 ||
            (integer_digits > 1 && text_[integer_start] == '0'))
            fail("bad number");
        bool integral = true;
        if (consume('.')) {
            integral = false;
            if (digits() == 0) fail("bad number");
        }
        if (consume('e') || consume('E')) {
            integral = false;
            if (!consume('+')) (void)consume('-');
            if (digits() == 0) fail("bad number");
        }
        const char* first = text_.data() + start;
        const char* last = text_.data() + pos_;
        JsonValue value;
        std::from_chars_result parsed;
        if (integral && !negative) {
            // Exact u64 path: fingerprint words must round-trip.
            value.kind = JsonValue::Kind::kUnsigned;
            parsed = std::from_chars(first, last, value.unsigned_value);
        } else {
            value.kind = JsonValue::Kind::kNumber;
            parsed = std::from_chars(first, last, value.number);
        }
        if (parsed.ec != std::errc() || parsed.ptr != last) {
            pos_ = start;
            fail("number out of range");
        }
        return value;
    }

    /// Array (close = ']') or object (close = '}'), at most kMaxDepth deep.
    JsonValue parse_container(char close) {
        if (++depth_ > kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth));
        ++pos_;
        const bool is_object = close == '}';
        JsonValue value;
        value.kind = is_object ? JsonValue::Kind::kObject
                               : JsonValue::Kind::kArray;
        skip_ws();
        if (!consume(close)) {
            do {
                if (is_object) {
                    skip_ws();
                    std::string key = parse_string();
                    skip_ws();
                    expect(':');
                    value.object.emplace_back(std::move(key), parse_value());
                } else {
                    value.array.push_back(parse_value());
                }
                skip_ws();
            } while (consume(','));
            expect(close);
        }
        --depth_;
        return value;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
};

}  // namespace

ParseError::ParseError(const std::string& what, std::size_t offset)
    : std::runtime_error("parse_json: " + what + " at byte " +
                         std::to_string(offset)),
      offset_(offset) {}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : object)
        if (name == key) return &value;
    return nullptr;
}

JsonValue parse_json(std::string_view text) {
    return Parser(text).document();
}

// ----- typed member reads --------------------------------------------------

void Member::fail(std::string_view why) const {
    throw std::runtime_error(std::string(context) + ": member '" +
                             std::string(key) + "' " + std::string(why));
}

std::uint64_t Member::u64() const {
    if (value.kind != JsonValue::Kind::kUnsigned)
        fail("must be a non-negative integer");
    return value.unsigned_value;
}

double Member::number() const {
    if (value.kind != JsonValue::Kind::kUnsigned &&
        value.kind != JsonValue::Kind::kNumber)
        fail("must be a number");
    return value.as_number();
}

bool Member::boolean() const {
    if (value.kind != JsonValue::Kind::kBool) fail("must be true or false");
    return value.boolean;
}

const std::string& Member::string() const {
    if (value.kind != JsonValue::Kind::kString) fail("must be a string");
    return value.string;
}

Member require(const JsonValue& object, std::string_view key,
               std::string_view context) {
    const JsonValue* member = object.find(key);
    if (member == nullptr)
        throw std::runtime_error(std::string(context) + ": missing member '" +
                                 std::string(key) + "'");
    return Member{*member, key, context};
}

// ----- writer ---------------------------------------------------------------

template <class Integer>
void JsonWriter::integer(Integer n) {
    comma();
    char buffer[24];
    out_.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, n).ptr);
}

void JsonWriter::value(std::uint64_t n) { integer(n); }
void JsonWriter::value(int n) { integer(n); }

void JsonWriter::value(double x) {
    comma();
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(x) ? x : 0.0);
    out_ += buffer;
}

void JsonWriter::quote(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out_ += "\\\""; break;
            case '\\': out_ += "\\\\"; break;
            case '\n': out_ += "\\n"; break;
            case '\r': out_ += "\\r"; break;
            case '\t': out_ += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buffer[8];
                    std::snprintf(buffer, sizeof buffer, "\\u%04x",
                                  static_cast<unsigned>(c));
                    out_ += buffer;
                } else {
                    out_ += c;
                }
        }
    }
    out_ += '"';
}

}  // namespace glitchmask::json
