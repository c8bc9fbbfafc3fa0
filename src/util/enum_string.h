#pragma once
// The inverse of an enum's to_string(): walks the enumerators from 0 up to
// `Last` and matches their names, so each enum's to_string() switch stays
// the one table of its names. The enumerators must be contiguous from 0.
//
//   Scheme s;
//   if (!enum_from_string<Scheme::kMpDashRate>(name, &s)) ...

#include <string_view>

namespace mpdash {

template <auto Last>
bool enum_from_string(std::string_view name, decltype(Last)* out) {
  using Enum = decltype(Last);
  for (int i = 0; i <= static_cast<int>(Last); ++i) {
    const Enum e = static_cast<Enum>(i);
    if (name == to_string(e)) {
      *out = e;
      return true;
    }
  }
  return false;
}

}  // namespace mpdash
