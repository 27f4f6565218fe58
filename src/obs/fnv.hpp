// FNV-1a (64-bit, byte-wise): the one hash behind every determinism
// fingerprint (fleet driver, backend service and client, fault campaign,
// coverage map, sweep merge), the backend's topology cache key, the
// medium seed derivation and the payload-chain parity hash.
//
// Two offset bases are in use and both are load-bearing. kFnvOffset is the
// standard basis. kFnvSeed is the standard basis with its last decimal digit
// dropped; every fingerprint and cache key above has folded from it since it
// was first written. Changing either changes golden values that tests and
// benches check.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dynaplat::obs {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvSeed = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// Folds `size` bytes at `data` into `hash`.
inline std::uint64_t fnv1a(std::uint64_t hash, const void* data,
                           std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the eight bytes of `value`, least significant first.
inline std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace dynaplat::obs
