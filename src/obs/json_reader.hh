/**
 * @file
 * The one JSON reader. The obs writers (writeJson, the interval
 * sampler, the tracer, the flight recorder) write JSON; everything the
 * project reads back goes through here: stats_report's stats files,
 * the campaign journal, and the documents check_json and the tests
 * vet.
 *
 * No DOM is built. Reader::document() walks one document from the
 * current byte offset (the start, then wherever the previous document
 * ended) and hands each scalar leaf to a callback with its dotted
 * path (object members by key, array elements by index, so
 * {"a":{"b":[5,6]}} yields a.b.0 and a.b.1), its kind, its raw token,
 * and for a string the decoded value. Numbers stay raw tokens, so a
 * caller that needs every bit (a u64 above 2^53, a double's bit
 * pattern) converts the text itself.
 *
 * The grammar is RFC 8259's: no comments, no trailing commas, no
 * NaN/Infinity, no leading zeros or '+' on numbers, no raw control
 * characters in strings. On malformed input the reader stops at the
 * offending byte: offset() names it and error() says what was wrong.
 *
 * Header-only and standard-library-only, so the tools that link no
 * simulator code (stats_report, check_json) can include it.
 */

#ifndef FSOI_OBS_JSON_READER_HH
#define FSOI_OBS_JSON_READER_HH

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace fsoi::obs::json {

enum class Kind : std::uint8_t { Number, String, Bool, Null };

/** One scalar leaf. Its views are valid only during the callback. */
struct Leaf
{
    std::string_view path; //!< dotted; empty for a scalar document
    Kind kind;
    std::string_view raw;  //!< the token as written (a string quoted)
    std::string_view str;  //!< a string's decoded value, else empty
};

class Reader
{
  public:
    /** Read @p text, which must outlive the reader. */
    explicit Reader(std::string_view text) : s_(text) {}

    /**
     * Parse one document, calling @p leaf for each scalar in document
     * order. Leaves the offset just past the document; false on
     * malformed input.
     */
    template <class Fn>
    bool
    document(Fn &&leaf)
    {
        return value(leaf, 0);
    }

    /** One document and nothing after it but whitespace. */
    template <class Fn>
    bool
    whole(Fn &&leaf)
    {
        return document(leaf) && (atEnd() || fail("trailing content"));
    }

    /** Skip whitespace; true when nothing else is left. */
    bool
    atEnd()
    {
        skipWs();
        return pos_ >= s_.size();
    }

    /** The byte offset reached; after a failure, the offending byte. */
    std::size_t offset() const { return pos_; }
    /** Why parsing failed. */
    const char *error() const { return error_; }

  private:
    /** Deeper nesting is rejected, so hostile input cannot exhaust
     *  the stack; the writers nest a handful of levels. */
    static constexpr int kMaxDepth = 256;

    bool
    fail(const char *what)
    {
        error_ = what;
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < s_.size()
               && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r'
                   || s_[pos_] == '\t'))
            ++pos_;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    /** Replace the path past @p base with @p segment. */
    void
    push(std::size_t base, std::string_view segment)
    {
        path_.resize(base);
        if (base != 0)
            path_ += '.';
        path_ += segment;
    }

    template <class Fn>
    bool
    value(Fn &leaf, int depth)
    {
        skipWs();
        if (pos_ >= s_.size())
            return fail("unexpected end of input");
        const std::size_t start = pos_;
        Kind kind = Kind::Number;
        switch (s_[pos_]) {
          case '{':
            return object(leaf, depth);
          case '[':
            return array(leaf, depth);
          case '"':
            if (!string(str_))
                return false;
            leaf(Leaf{path_, Kind::String, s_.substr(start, pos_ - start),
                      str_});
            return true;
          case 't':
            kind = Kind::Bool;
            if (!literal("true"))
                return false;
            break;
          case 'f':
            kind = Kind::Bool;
            if (!literal("false"))
                return false;
            break;
          case 'n':
            kind = Kind::Null;
            if (!literal("null"))
                return false;
            break;
          default:
            if (!number())
                return false;
        }
        leaf(Leaf{path_, kind, s_.substr(start, pos_ - start), {}});
        return true;
    }

    template <class Fn>
    bool
    object(Fn &leaf, int depth)
    {
        if (depth == kMaxDepth)
            return fail("nesting too deep");
        ++pos_;
        if (eat('}'))
            return true;
        const std::size_t base = path_.size();
        do {
            skipWs();
            if (pos_ >= s_.size() || s_[pos_] != '"')
                return fail("expected object key");
            if (!string(str_))
                return false;
            push(base, str_);
            if (!eat(':'))
                return fail("expected ':'");
            if (!value(leaf, depth + 1))
                return false;
        } while (eat(','));
        path_.resize(base);
        return eat('}') || fail("expected ',' or '}'");
    }

    template <class Fn>
    bool
    array(Fn &leaf, int depth)
    {
        if (depth == kMaxDepth)
            return fail("nesting too deep");
        ++pos_;
        if (eat(']'))
            return true;
        const std::size_t base = path_.size();
        std::size_t index = 0;
        do {
            push(base, std::to_string(index++));
            if (!value(leaf, depth + 1))
                return false;
        } while (eat(','));
        path_.resize(base);
        return eat(']') || fail("expected ',' or ']'");
    }

    bool
    literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return fail("expected a value");
        pos_ += word.size();
        return true;
    }

    bool
    digits()
    {
        const std::size_t from = pos_;
        while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9')
            ++pos_;
        return pos_ > from;
    }

    bool
    number()
    {
        if (s_[pos_] == '-')
            ++pos_;
        if (pos_ < s_.size() && s_[pos_] == '0')
            ++pos_;
        else if (!digits())
            return fail("expected a value");
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail("expected a digit");
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail("expected a digit");
        }
        return true;
    }

    /** The string whose opening quote is at the offset, decoded. */
    bool
    string(std::string &out)
    {
        out.clear();
        ++pos_;
        for (;;) {
            if (pos_ >= s_.size())
                return fail("unterminated string");
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("control character in string");
            ++pos_;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                return fail("unterminated string");
            switch (s_[pos_++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u':
                if (!unicode(out))
                    return false;
                break;
              default:
                --pos_;
                return fail("bad escape");
            }
        }
    }

    /** Four hex digits of a \u escape. */
    bool
    hex4(std::uint32_t &unit)
    {
        unit = 0;
        for (int i = 0; i < 4; ++i, ++pos_) {
            const char c = pos_ < s_.size() ? s_[pos_] : '\0';
            if (!std::isxdigit(static_cast<unsigned char>(c)))
                return fail("bad \\u escape");
            const int lower = c | 0x20; // 'A'-'F' -> 'a'-'f'
            unit = unit << 4
                | static_cast<std::uint32_t>(c <= '9' ? c - '0'
                                                      : lower - 'a' + 10);
        }
        return true;
    }

    /** A \u escape's code point as UTF-8; a high surrogate followed
     *  by a low one's escape is one code point. */
    bool
    unicode(std::string &out)
    {
        std::uint32_t cp = 0;
        if (!hex4(cp))
            return false;
        if (cp >= 0xD800 && cp < 0xDC00 && s_.substr(pos_, 2) == "\\u") {
            const std::size_t at = pos_;
            std::uint32_t low = 0;
            pos_ += 2;
            if (!hex4(low))
                return false;
            if (low >= 0xDC00 && low < 0xE000)
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            else
                pos_ = at; // not a pair: the next escape stands alone
        }
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | cp >> 6);
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | cp >> 12);
            out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | cp >> 18);
            out += static_cast<char>(0x80 | (cp >> 12 & 0x3F));
            out += static_cast<char>(0x80 | (cp >> 6 & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    const char *error_ = nullptr;
    std::string path_; //!< dotted path of the value being read
    std::string str_;  //!< decoded string scratch (keys and values)
};

/** Is @p text one whole JSON document? */
inline bool
valid(std::string_view text)
{
    return Reader(text).whole([](const Leaf &) {});
}

} // namespace fsoi::obs::json

#endif // FSOI_OBS_JSON_READER_HH
