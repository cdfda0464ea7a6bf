/**
 * @file
 * Strict number parsing for user-supplied specs (fault plans,
 * topologies, command lines): the whole text must be the number, in
 * plain decimal form, or the parse fails.
 */

#ifndef DISTMSM_SUPPORT_PARSE_H
#define DISTMSM_SUPPORT_PARSE_H

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace distmsm::support {

/**
 * Parse all of @p text as a plain decimal integer into @p out: digits
 * only, so no sign, whitespace or base prefix, and no leading zero
 * unless the number is 0 ("010" is neither octal nor ten). Fails,
 * leaving @p out untouched, when the value does not fit T.
 */
template <typename T>
bool
parseDecimal(std::string_view text, T &out)
{
    static_assert(std::is_integral_v<T>);
    if (text.empty() || text[0] < '0' || text[0] > '9' ||
        (text[0] == '0' && text.size() > 1))
        return false;
    T v{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

/**
 * Parse all of @p text as a finite decimal number ("1.5", "5e8",
 * "-2") into @p out. NaN, infinities, out-of-range exponents,
 * hex floats, a '+' sign and whitespace fail, leaving @p out
 * untouched.
 */
inline bool
parseFinite(std::string_view text, double &out)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace distmsm::support

#endif // DISTMSM_SUPPORT_PARSE_H
