// Balanced Gray codes (BGC).
//
// A balanced Gray code is a cyclic Gray code whose per-digit transition
// counts are as equal as possible (Bhat & Savage, Electron. J. Comb. 1996).
// The paper uses BGCs to spread the decoder variability evenly across the
// doping regions (Fig. 6) instead of concentrating it in the fast-toggling
// low-order digits of the standard Gray code.
//
// Construction: we search for a Hamiltonian cycle of the n-ary Hamming
// graph under per-digit transition budgets, starting from the perfectly
// balanced budget and relaxing it step by step (with two move-ordering
// heuristics and deterministic restarts). Every configuration the
// experiments use (binary up to 6 free digits, ternary up to 4,
// quaternary up to 4) balances with spread <= 2 within seconds. The
// spaces the search cannot balance (binary >= 7 free digits, ternary and
// quaternary >= 5, and a few more listed in balanced_gray.cpp) throw at
// once instead of silently degrading -- use the plain Gray code there.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "codes/word.h"

namespace nwdec::codes {

/// All radix^free_length words arranged as a balanced cyclic Gray code:
/// successive words (wrap included) differ in exactly one digit, and the
/// per-digit transition counts over the full cycle differ by at most 2
/// (for the feasible sizes; see header comment).
std::vector<code_word> balanced_gray_code_words(unsigned radix,
                                                std::size_t free_length);

/// The ideal per-digit transition budget for a cyclic Gray code over the
/// full space: counts sum to radix^free_length, are even when radix == 2
/// (a binary cyclic Gray code toggles each bit an even number of times),
/// and are within 2 of each other. Exposed for tests.
std::vector<std::size_t> balanced_transition_targets(unsigned radix,
                                                     std::size_t free_length);

/// The BGC constraint exactly as Sec. 2.3 states it: a Gray sequence of
/// `count` distinct words in which every digit changes at most
/// `max_changes` times. Feasible only while count - 1 <= max_changes *
/// free_length (each step consumes one change), so it describes short
/// *prefixes* rather than full code spaces; the full-space BGC above is
/// the balanced-counts generalization the experiments use. Returns
/// nullopt when no such sequence exists.
std::optional<std::vector<code_word>> constrained_gray_prefix(
    unsigned radix, std::size_t free_length, std::size_t count,
    std::size_t max_changes);

}  // namespace nwdec::codes
