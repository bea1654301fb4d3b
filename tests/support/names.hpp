// Numbered names for the tasks, cgroups and containers a test creates.
#pragma once

#include <string>

namespace pinsim::test {

/// `prefix` followed by `n` in decimal: numbered("t", 3) == "t3".
/// Built with += because GCC 12 at -O3 reports a false -Wrestrict on
/// `"t" + std::to_string(n)` (operator+(const char*, string&&) inlined).
template <typename Int>
std::string numbered(const char* prefix, Int n) {
  std::string name = prefix;
  name += std::to_string(n);
  return name;
}

}  // namespace pinsim::test
