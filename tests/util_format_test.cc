// Round-trip coverage for snd::FormatDouble, the one %.17g definition
// shared by the text codec, the JSON codec, and the options signature:
// parsing the formatted text back must reproduce the exact bit pattern
// for every finite double.
#include "snd/util/format.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

namespace snd {
namespace {

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectRoundTrip(double value) {
  const std::string text = FormatDouble(value);
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  EXPECT_EQ(end, text.c_str() + text.size()) << text;
  EXPECT_EQ(BitsOf(parsed), BitsOf(value)) << text;
}

TEST(FormatDoubleTest, NotableValuesRoundTrip) {
  for (const double value :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300,
        DBL_MIN, DBL_MAX, DBL_EPSILON, 4.9406564584124654e-324 /* denormal */,
        3.0000000000000004, 0.30000000000000004}) {
    ExpectRoundTrip(value);
  }
}

TEST(FormatDoubleTest, RandomBitPatternsRoundTrip) {
  std::mt19937_64 rng(20260729);
  int finite = 0;
  while (finite < 20000) {
    const uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;  // NaN/inf are not wire values.
    ++finite;
    ExpectRoundTrip(value);
  }
  // And random "ordinary magnitude" values, the ones the wire actually
  // carries.
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (int k = 0; k < 20000; ++k) ExpectRoundTrip(dist(rng));
}

TEST(FormatDoubleTest, PrintsExactlyWhatPrintfPrints) {
  // Every reply byte and cache key carrying a double depends on this
  // text, so it must stay printf's %.17g, NaN and infinities included.
  auto expect_printf = [](double value) {
    char want[64];
    std::snprintf(want, sizeof(want), "%.17g", value);
    EXPECT_EQ(FormatDouble(value), want);
  };
  for (const double value :
       {0.0, -0.0, 1.0, 0.1, 1e16, 1e17, 123456789012345678.0, DBL_MIN,
        DBL_MAX, 4.9406564584124654e-324,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    expect_printf(value);
  }
  std::mt19937_64 rng(20261019);
  for (int k = 0; k < 20000; ++k) {
    const uint64_t bits = rng();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    expect_printf(value);
  }
  std::uniform_real_distribution<double> dist(0.0, 1e6);
  for (int k = 0; k < 20000; ++k) {
    expect_printf(dist(rng));
    expect_printf(std::round(dist(rng)) / 60.0);
  }
}

TEST(FormatDoubleTest, IntegralValuesPrintWithoutExponentNoise) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(-3.0), "-3");
  EXPECT_EQ(FormatDouble(0.25), "0.25");
}

}  // namespace
}  // namespace snd
