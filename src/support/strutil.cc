/**
 * @file
 * String utility implementations.
 */

#include "src/support/strutil.hh"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "src/support/status.hh"

namespace pe
{

namespace
{

/**
 * Parse all of @p text as a T from @p min to @p max: decimal without a
 * leading zero (job specs once read that as octal), or hexadecimal
 * after "0x".  Anything else is a FatalError naming @p what.
 */
template <typename T>
T
parseInteger(const std::string &what, const std::string &text, T min, T max)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    std::string_view digits = text;
    digits.remove_prefix(hex ? 2 : 0);
    const size_t sign = !digits.empty() && digits[0] == '-';
    const bool leadingZero =
        !hex && digits.size() > sign + 1 && digits[sign] == '0';
    // from_chars takes no space or '+', and '-' only for a signed T.
    T value = 0;
    const char *end = digits.data() + digits.size();
    const auto [ptr, ec] =
        std::from_chars(digits.data(), end, value, hex ? 16 : 10);
    if (ec != std::errc() || ptr != end || leadingZero || (hex && sign) ||
        value < min || value > max) {
        pe_fatal(what, ": expected an integer from ", min, " to ", max,
                 ", got '", text, "'");
    }
    return value;
}

} // namespace

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::string
fmtDouble(double v, int digits)
{
    std::ostringstream oss;
    oss.setf(std::ios::fixed);
    oss.precision(digits);
    oss << v;
    return oss.str();
}

std::string
fmtPercent(double fraction, int digits)
{
    return fmtDouble(fraction * 100.0, digits) + "%";
}

std::string
fmtHex(uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
padLeft(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

uint64_t
parseUnsigned(const std::string &what, const std::string &text,
              uint64_t max)
{
    return parseInteger<uint64_t>(what, text, 0, max);
}

int64_t
parseSigned(const std::string &what, const std::string &text, int64_t min,
            int64_t max)
{
    return parseInteger(what, text, min, max);
}

} // namespace pe
