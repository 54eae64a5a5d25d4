#include "engine/sweep.h"

#include <stdexcept>

#include "util/splitmix.h"

namespace rlb::engine {

std::uint64_t cell_seed(std::uint64_t base, std::uint64_t index) {
  // Two rounds decorrelate neighbouring (base, index) pairs; the +1 keeps
  // cell 0 of base 0 away from the splitmix64 fixed point at zero.
  return util::splitmix64(util::splitmix64(base + 1) ^
                          util::splitmix64(index));
}

int resolve_threads(int requested) {
  if (requested < 0)
    throw std::invalid_argument(
        "--threads must be >= 0 (0 = hardware concurrency)");
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace rlb::engine
