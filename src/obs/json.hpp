#pragma once

// obs::Json: the one JSON writer.  Every JSON document in src/, bench/ and
// tools/ is built through it, so the format rules live here only:
//   - one member or element per line, 2-space indent, `"key": value`;
//     empty containers print as {} and [];
//   - strings escape ", \ and every byte below 0x20 (\n and \t in short
//     form, the rest as \u00XX); bytes from 0x80 up pass through, so UTF-8
//     text is kept as is;
//   - integers print exactly; doubles print in std::to_chars shortest
//     round-trip form, plus ".0" when that form would read as an integer;
//   - NaN and the infinities throw std::invalid_argument: JSON has none.
// The caller nests correctly (keys only inside objects, every begin_*
// closed by its end_*); the tests that produce each document parse it.

#include <charconv>
#include <cmath>
#include <concepts>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace obs {

class Json {
  public:
    Json& begin_object() { return open('{'); }
    Json& end_object() { return close('}'); }
    Json& begin_array() { return open('['); }
    Json& end_array() { return close(']'); }

    /// Names the next value of the enclosing object.
    Json& key(std::string_view name) {
        value(name);
        out_ += ": ";
        keyed_ = true;
        return *this;
    }

    Json& value(std::string_view s) {
        separate();
        out_ += '"';
        for (const char c : s) {
            const auto byte = static_cast<unsigned char>(c);
            if (c == '"' || c == '\\') {
                (out_ += '\\') += c;
            } else if (c == '\n' || c == '\t') {
                out_ += c == '\n' ? "\\n" : "\\t";
            } else if (byte < 0x20) {
                ((out_ += "\\u00") += kHex[byte >> 4]) += kHex[byte & 0xf];
            } else {
                out_ += c;
            }
        }
        out_ += '"';
        return *this;
    }
    Json& value(const char* s) { return value(std::string_view(s)); }
    Json& value(bool b) { return raw(b ? "true" : "false"); }
    template <std::integral I>
    Json& value(I v) {
        char buf[24];
        return raw({buf, std::to_chars(buf, buf + sizeof(buf), v).ptr});
    }
    Json& value(double v) {
        if (!std::isfinite(v)) throw std::invalid_argument("obs::Json: non-finite number");
        char buf[32];
        const std::string_view text(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
        raw(text);
        if (text.find_first_of(".e") == std::string_view::npos) out_ += ".0";
        return *this;
    }

    /// `"name": v`, `"name": {` and `"name": [` inside an object.
    template <typename T>
    Json& field(std::string_view name, const T& v) {
        return key(name).value(v);
    }
    Json& object(std::string_view name) { return key(name).begin_object(); }
    Json& array(std::string_view name) { return key(name).begin_array(); }

    /// The document so far, without a trailing newline.
    [[nodiscard]] const std::string& str() const { return out_; }

  private:
    static constexpr char kHex[] = "0123456789abcdef";

    Json& open(char bracket) {
        raw({&bracket, 1});
        has_items_.push_back(false);
        return *this;
    }
    Json& close(char bracket) {
        const bool had_items = has_items_.back();
        has_items_.pop_back();
        if (had_items) newline();
        out_ += bracket;
        return *this;
    }
    Json& raw(std::string_view token) {
        separate();
        out_ += token;
        return *this;
    }
    // The comma and line break before a member or element; a value stays on
    // its key's line.
    void separate() {
        if (std::exchange(keyed_, false) || has_items_.empty()) return;
        if (has_items_.back()) out_ += ',';
        has_items_.back() = true;
        newline();
    }
    void newline() {
        out_ += '\n';
        out_.append(2 * has_items_.size(), ' ');
    }

    std::string out_;
    std::vector<bool> has_items_;  ///< one per open container
    bool keyed_ = false;           ///< a key was written; its value comes next
};

/// The number stored under `name` in the top-level object of `text`, in any
/// whitespace layout; members of nested containers are not matched.
/// std::nullopt when the key is absent or its value is not a number.
inline std::optional<double> read_number(std::string_view text, std::string_view name) {
    int depth = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '{' || text[i] == '[') ++depth;
        if (text[i] == '}' || text[i] == ']') --depth;
        if (text[i] != '"') continue;
        const std::size_t begin = ++i;
        for (; i < text.size() && text[i] != '"'; ++i) {
            if (text[i] == '\\') ++i;  // skip the escaped character
        }
        if (depth != 1 || text.substr(begin, i - begin) != name) continue;
        std::size_t at = text.find_first_not_of(" \t\r\n", i + 1);
        if (at == std::string_view::npos || text[at] != ':') continue;  // a string value
        at = text.find_first_not_of(" \t\r\n", at + 1);
        double v = 0.0;
        if (at == std::string_view::npos ||
            std::from_chars(text.data() + at, text.data() + text.size(), v).ec != std::errc{}) {
            return std::nullopt;
        }
        return v;
    }
    return std::nullopt;
}

}  // namespace obs
