/**
 * @file
 * Small string utilities used by the trace readers/writers and the
 * table-rendering code in core/report.
 */

#ifndef DLW_COMMON_STRUTIL_HH
#define DLW_COMMON_STRUTIL_HH

#include <string>
#include <string_view>
#include <vector>

namespace dlw
{

/** Split a string on a single-character delimiter (keeps empties). */
std::vector<std::string> split(std::string_view s, char delim);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(std::string_view s);

/**
 * True for the C locale's isspace set: space, \t, \n, \v, \f and
 * \r.  The program never calls setlocale, so this is std::isspace
 * without the locale lookup.
 */
constexpr bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** trim() without the copy: a view into `s`. */
inline std::string_view
trimView(std::string_view s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && isSpace(s[b]))
        ++b;
    while (e > b && isSpace(s[e - 1]))
        --e;
    return s.substr(b, e - b);
}

/** True when the string begins with the given prefix. */
bool startsWith(std::string_view s, std::string_view prefix);

/** True when the string ends with the given suffix. */
bool endsWith(std::string_view s, std::string_view suffix);

/**
 * Escape `s` for the inside of a JSON string: quote, backslash, \n,
 * \r and \t get their short escapes, other control bytes \u00XX.
 */
std::string jsonEscape(std::string_view s);

/** Render a double with fixed precision. */
std::string formatDouble(double v, int precision);

/**
 * Render a byte count with a binary-unit suffix (KiB/MiB/GiB/TiB).
 *
 * @param bytes Quantity to render.
 * @return Human-readable string such as "1.5 GiB".
 */
std::string formatBytes(double bytes);

/**
 * Render a tick duration in the most natural unit (ns/us/ms/s/h/d).
 */
std::string formatDuration(std::int64_t ticks);

/** Right-pad to the given width with spaces. */
std::string padRight(const std::string &s, std::size_t width);

/**
 * Parse a double, failing loudly on malformed input.
 *
 * @param s      Text to parse.
 * @param what   Context label used in the error message.
 * @return The parsed value.
 */
double parseDouble(std::string_view s, std::string_view what);

/** Parse a signed 64-bit integer, failing loudly on malformed input. */
std::int64_t parseInt(std::string_view s, std::string_view what);

/**
 * Non-fatal parses for ingestion paths that must survive corrupt
 * input: whitespace is trimmed, and the whole remainder must parse.
 *
 * @param s   Text to parse.
 * @param out Receives the value on success; untouched on failure.
 * @return True when the text parsed cleanly.
 */
bool tryParseDouble(std::string_view s, double &out);

/** Non-fatal signed 64-bit parse; see tryParseDouble. */
bool tryParseInt(std::string_view s, std::int64_t &out);

/** Non-fatal unsigned 64-bit parse; see tryParseDouble. */
bool tryParseUint(std::string_view s, std::uint64_t &out);

} // namespace dlw

#endif // DLW_COMMON_STRUTIL_HH
