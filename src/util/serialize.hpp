// Binary serialization helper: writes a trivially copyable value's bytes as
// they sit in memory (the on-disk formats are little-endian, like every
// supported host). The io/section codec builds every header with it.
#pragma once

#include <ostream>
#include <type_traits>

namespace splpg::util {

template <typename T>
  requires std::is_trivially_copyable_v<T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace splpg::util
