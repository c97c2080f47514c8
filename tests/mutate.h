// Seeded mutations of a valid input file, for the loaders' fuzz tests:
// byte flips, truncation, duplicated spans and deleted spans.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/random.h"

namespace esim::test {

/// Applies one to three mutations drawn from `rng` to `bytes`.
inline std::string mutate(std::string bytes, sim::Rng& rng) {
  const std::uint64_t count = 1 + rng.uniform_int(3);
  for (std::uint64_t k = 0; k < count && !bytes.empty(); ++k) {
    const std::size_t at = rng.uniform_int(bytes.size());
    const std::size_t span =
        1 + rng.uniform_int(std::min<std::size_t>(32, bytes.size() - at));
    switch (rng.uniform_int(4)) {
      case 0:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.uniform_int(255)));
        break;
      case 1:
        bytes.resize(at);
        break;
      case 2:
        bytes.insert(rng.uniform_int(bytes.size() + 1), bytes.substr(at, span));
        break;
      default:
        bytes.erase(at, span);
        break;
    }
  }
  return bytes;
}

}  // namespace esim::test
