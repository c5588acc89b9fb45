// Independent oracle for codes::gray_encode / gray_decode: the
// loop-decode of a binary reflected Gray code (each bit of the rank is the
// xor of every codeword bit at or above it), written as the plain shift
// loop rather than the production log-shift fold.
#pragma once

#include <cstdint>

namespace nwdec::testkit {

constexpr std::uint64_t loop_gray_encode(std::uint64_t value) {
  return value ^ (value >> 1);
}

constexpr std::uint64_t loop_gray_decode(std::uint64_t gray) {
  std::uint64_t rank = gray;
  while (gray >>= 1) rank ^= gray;
  return rank;
}

}  // namespace nwdec::testkit
