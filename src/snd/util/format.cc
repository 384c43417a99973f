#include "snd/util/format.h"

#include <charconv>

namespace snd {

std::string FormatDouble(double value) {
  // 17 significant digits, sign, decimal point, 4-digit exponent and
  // terminator fit comfortably in 32 bytes.
  // std::to_chars with a precision prints exactly what printf("%.17g")
  // does, several times faster.
  char buffer[32];
  const std::to_chars_result end = std::to_chars(
      buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  return std::string(buffer, end.ptr);
}

}  // namespace snd
