/**
 * @file
 * Seeded mutation fuzzing for the spec parsers (fault plans,
 * topologies, collective names) and the binary decoders (points,
 * proofs): valid inputs from the accept tests become near-miss
 * inputs by flipping, inserting, deleting and duplicating bytes, by
 * truncating encodings and by splicing clauses between specs. The
 * seed is fixed, so every run checks the same corpus.
 */

#ifndef DISTMSM_TESTS_SPEC_MUTATOR_H
#define DISTMSM_TESTS_SPEC_MUTATOR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/prng.h"
#include "tests/sweep_cases.h"

namespace distmsm {

/** Mutants per parser: 2,000, or DISTMSM_SWEEP_CASES when larger. */
inline int
specFuzzMutants()
{
    return static_cast<int>(sweepCases(2000));
}

/** @p spec split on @p sep, empty clauses kept. */
inline std::vector<std::string>
specClauses(const std::string &spec, char sep)
{
    std::vector<std::string> out(1);
    for (const char c : spec) {
        if (c == sep)
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

/**
 * One mutant of a seed spec drawn from @p seeds: one to four stacked
 * edits, each a bit flip, a byte insert, a byte delete, a duplicated
 * run of up to 8 bytes, or a clause of another seed spliced in at a
 * clause boundary (clauses separated by @p sep).
 */
inline std::string
mutateSpec(const std::vector<std::string> &seeds, char sep,
           Prng &prng)
{
    // Half the inserted bytes come from the grammar's own alphabet,
    // so edits land on the parsers' decisions; the rest are any byte.
    static constexpr char kGrammar[] = "0123456789:;,=@.-+ex";
    std::string s = seeds[prng.below(seeds.size())];
    const int edits = 1 + static_cast<int>(prng.below(4));
    for (int e = 0; e < edits; ++e) {
        const std::size_t pos = prng.below(s.size() + 1);
        switch (prng.below(5)) {
          case 0:
            if (pos < s.size())
                s[pos] = static_cast<char>(
                    s[pos] ^ (1 << prng.below(8)));
            break;
          case 1:
            s.insert(pos, 1,
                     prng.below(2) != 0
                         ? kGrammar[prng.below(sizeof kGrammar - 1)]
                         : static_cast<char>(prng.below(256)));
            break;
          case 2:
            if (pos < s.size())
                s.erase(pos, 1);
            break;
          case 3:
            if (pos < s.size())
                s.insert(pos, s.substr(pos, 1 + prng.below(8)));
            break;
          default: {
            const std::vector<std::string> donor =
                specClauses(seeds[prng.below(seeds.size())], sep);
            std::vector<std::string> clauses = specClauses(s, sep);
            clauses.insert(clauses.begin() +
                               static_cast<std::ptrdiff_t>(
                                   prng.below(clauses.size() + 1)),
                           donor[prng.below(donor.size())]);
            s = clauses.front();
            for (std::size_t i = 1; i < clauses.size(); ++i)
                s += sep + clauses[i];
          }
        }
    }
    return s;
}

/**
 * One mutant of a seed encoding drawn from @p seeds: one to four
 * stacked edits. Half are bit flips, which keep the length that the
 * fixed-size decoders check first; the rest are a byte insert, a
 * byte delete or a truncation.
 */
inline std::vector<std::uint8_t>
mutateBytes(const std::vector<std::vector<std::uint8_t>> &seeds,
            Prng &prng)
{
    std::vector<std::uint8_t> b = seeds[prng.below(seeds.size())];
    const int edits = 1 + static_cast<int>(prng.below(4));
    for (int e = 0; e < edits; ++e) {
        const std::size_t pos = prng.below(b.size() + 1);
        const auto at = b.begin() + static_cast<std::ptrdiff_t>(pos);
        switch (prng.below(6)) {
          case 0:
          case 1:
          case 2:
            if (pos < b.size())
                b[pos] = static_cast<std::uint8_t>(
                    b[pos] ^ (1u << prng.below(8)));
            break;
          case 3:
            b.insert(at, static_cast<std::uint8_t>(prng.below(256)));
            break;
          case 4:
            if (pos < b.size())
                b.erase(at);
            break;
          default:
            b.resize(pos);
        }
    }
    return b;
}

} // namespace distmsm

#endif // DISTMSM_TESTS_SPEC_MUTATOR_H
