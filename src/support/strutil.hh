/**
 * @file
 * Small string utilities shared across the repository.
 */

#ifndef PE_SUPPORT_STRUTIL_HH
#define PE_SUPPORT_STRUTIL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pe
{

/** Split @p s on @p sep; empty fields are kept. */
std::vector<std::string> split(const std::string &s, char sep);

/** True when @p s starts with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** Join @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Render a double with @p digits fractional digits. */
std::string fmtDouble(double v, int digits = 2);

/** Render a fraction as a percentage string, e.g. "42.3%". */
std::string fmtPercent(double fraction, int digits = 1);

/** Render @p v as a fixed-width hex literal, e.g. "0x00ff00ff00ff00ff". */
std::string fmtHex(uint64_t v);

/** Left-pad @p s with spaces to at least @p width characters. */
std::string padLeft(const std::string &s, size_t width);

/** Right-pad @p s with spaces to at least @p width characters. */
std::string padRight(const std::string &s, size_t width);

/**
 * Escape @p s for the inside of a JSON string literal: quote and
 * backslash get a backslash, and every control character becomes
 * `\n`, `\t` or `\u00XX`, so outside text (paths, peer messages)
 * cannot break a JSONL record.
 */
std::string jsonEscape(const std::string &s);

/**
 * Parse all of @p text as an integer no larger than @p max: decimal
 * digits without a leading zero, or hexadecimal digits after "0x",
 * with no sign, space or trailing character.  Anything else is a
 * FatalError naming @p what, the flag or key @p text came from.
 */
uint64_t parseUnsigned(const std::string &what, const std::string &text,
                       uint64_t max = UINT64_MAX);

/** parseUnsigned's signed variant: a '-' may lead a decimal value,
 *  and the value must lie from @p min to @p max. */
int64_t parseSigned(const std::string &what, const std::string &text,
                    int64_t min, int64_t max);

} // namespace pe

#endif // PE_SUPPORT_STRUTIL_HH
