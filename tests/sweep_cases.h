/**
 * @file
 * Case budget of the randomized test sweeps.
 */

#ifndef DISTMSM_TESTS_SWEEP_CASES_H
#define DISTMSM_TESTS_SWEEP_CASES_H

#include <algorithm>
#include <cstdlib>

namespace distmsm {

/**
 * Random cases per sweep: @p floor, or DISTMSM_SWEEP_CASES when
 * larger (CI soak runs deepen the sweep this way), at most 2^24.
 */
inline long
sweepCases(long floor)
{
    long cases = floor;
    if (const char *env = std::getenv("DISTMSM_SWEEP_CASES"))
        cases = std::max(cases, std::strtol(env, nullptr, 10));
    return std::min(cases, 1L << 24);
}

} // namespace distmsm

#endif // DISTMSM_TESTS_SWEEP_CASES_H
