// Canonical numeric-to-text formatting shared by every surface that
// promises exact round-trips: both wire codecs, the options signature,
// and any bench or tool that prints values meant for bitwise
// comparison. One definition, so the %.17g convention cannot drift
// between the text protocol, the JSON protocol, and the cache keys.
#ifndef SND_UTIL_FORMAT_H_
#define SND_UTIL_FORMAT_H_

#include <string>

namespace snd {

// Shortest-ish decimal form that round-trips every finite double
// exactly: printf's %.17g, byte for byte. strtod(FormatDouble(x)) == x
// bitwise (both tested). For finite values the output is also a valid
// JSON number.
std::string FormatDouble(double value);

}  // namespace snd

#endif  // SND_UTIL_FORMAT_H_
