#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

namespace clr::util {
namespace {

std::uint64_t fnv1a_of(std::string_view text) { return fnv1a(text.data(), text.size()); }

TEST(Fnv1a, MatchesTheReferenceVectors) {
  // The published FNV-1a64 test vectors: the .clrdb checksum and every
  // checkpoint identity are stored values of this function.
  EXPECT_EQ(fnv1a_of(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a_of("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a_of("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, AccumulatesAcrossCalls) {
  std::uint64_t h = kFnv1aBasis;
  fnv1a(h, "foo", 3);
  fnv1a(h, "bar", 3);
  EXPECT_EQ(h, fnv1a_of("foobar"));
}

}  // namespace
}  // namespace clr::util
