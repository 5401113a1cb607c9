// Scalar-vs-SIMD bit-exactness: every kernel the host can run
// (util::AvailableSimdKernels) must produce identical results for the
// dispatched DynamicBitset operations (Count and CountAndShifted) across
// the shapes that historically break word-granular kernels: sizes
// straddling a word boundary (63/64/65), shifts of 0 / word-aligned /
// unaligned, tail masks, and empty/full sets. CollectAndShifted has one
// scalar loop for every kernel; bitset_test checks it against a reference.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/util/bitset.h"
#include "periodica/util/cpu_features.h"
#include "periodica/util/rng.h"

namespace periodica {
namespace {

using util::AvailableSimdKernels;
using util::ScopedSimdKernelOverride;
using util::SimdKernel;
using util::SimdKernelName;

std::vector<SimdKernel> HostKernels() {
  int count = 0;
  const SimdKernel* kernels = AvailableSimdKernels(&count);
  return std::vector<SimdKernel>(kernels, kernels + count);
}

DynamicBitset RandomBitset(std::size_t n, double density,
                           std::uint64_t seed) {
  DynamicBitset bits(n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.UniformDouble() < density) bits.Set(i);
  }
  return bits;
}

/// Runs Count / CountAndShifted under every available kernel and asserts
/// each agrees exactly with the scalar reference.
void ExpectKernelsAgree(const DynamicBitset& a, const DynamicBitset& b,
                        std::size_t shift) {
  std::size_t ref_count = 0;
  std::size_t ref_count_shifted = 0;
  {
    ScopedSimdKernelOverride scalar(SimdKernel::kScalar);
    ref_count = a.Count();
    ref_count_shifted = a.CountAndShifted(b, shift);
  }
  for (const SimdKernel kernel : HostKernels()) {
    ScopedSimdKernelOverride override(kernel);
    SCOPED_TRACE(SimdKernelName(kernel));
    EXPECT_EQ(a.Count(), ref_count);
    EXPECT_EQ(a.CountAndShifted(b, shift), ref_count_shifted);
  }
}

TEST(BitsetSimdTest, HostAlwaysHasScalar) {
  const std::vector<SimdKernel> kernels = HostKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), SimdKernel::kScalar);
}

TEST(BitsetSimdTest, WordBoundarySizes) {
  // 63/64/65 plus multi-word straddles: the sizes where the bulk kernels'
  // full-word count and the tail handling trade off by one word.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 191u,
                              192u, 193u, 255u, 256u, 257u}) {
    const DynamicBitset a = RandomBitset(n, 0.5, 17 + n);
    const DynamicBitset b = RandomBitset(n, 0.5, 91 + n);
    for (const std::size_t shift : {std::size_t{0}, std::size_t{1},
                                    std::size_t{63}, std::size_t{64},
                                    std::size_t{65}, n / 2, n - 1}) {
      if (shift >= n) continue;
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shift=" << shift);
      ExpectKernelsAgree(a, b, shift);
    }
  }
}

TEST(BitsetSimdTest, EmptyAndFullSets) {
  for (const std::size_t n : {64u, 65u, 320u, 1000u}) {
    DynamicBitset empty(n);
    DynamicBitset full(n);
    for (std::size_t i = 0; i < n; ++i) full.Set(i);
    for (const std::size_t shift :
         {std::size_t{0}, std::size_t{1}, std::size_t{64}, n - 1}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " shift=" << shift);
      ExpectKernelsAgree(empty, full, shift);
      ExpectKernelsAgree(full, empty, shift);
      ExpectKernelsAgree(full, full, shift);
      ExpectKernelsAgree(empty, empty, shift);
    }
  }
}

TEST(BitsetSimdTest, TailMaskBitsStayDead) {
  // A set whose size is one past a word boundary: only bit 64 of word 1 is
  // live. Every kernel must ignore the 63 dead tail positions both as the
  // a-side and as the shifted b-side.
  DynamicBitset a(65);
  DynamicBitset b(65);
  a.Set(0);
  a.Set(63);
  a.Set(64);
  b.Set(64);
  for (const std::size_t shift :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64}}) {
    SCOPED_TRACE(::testing::Message() << "shift=" << shift);
    ExpectKernelsAgree(a, b, shift);
  }
  // shift = 64 pairs a's bit 0 with b's bit 64 — the only surviving match.
  ScopedSimdKernelOverride scalar(SimdKernel::kScalar);
  EXPECT_EQ(a.CountAndShifted(b, 64), 1u);
}

TEST(BitsetSimdTest, DensitySweep) {
  // Sparse and dense masks both must match scalar exactly.
  for (const double density : {0.0, 0.01, 0.1, 0.5, 0.9, 1.0}) {
    const std::size_t n = 4096 + 37;  // unaligned tail on purpose
    const DynamicBitset a = RandomBitset(n, density, 5);
    const DynamicBitset b = RandomBitset(n, density, 6);
    for (const std::size_t shift :
         {std::size_t{0}, std::size_t{25}, std::size_t{64},
          std::size_t{1000}}) {
      SCOPED_TRACE(::testing::Message()
                   << "density=" << density << " shift=" << shift);
      ExpectKernelsAgree(a, b, shift);
    }
  }
}

TEST(BitsetSimdTest, CollectAppendsAfterExistingContents) {
  // CollectAndShifted appends; a non-empty output vector must survive the
  // collect loop's growth strategy, whatever kernel is active.
  const DynamicBitset a = RandomBitset(1024, 0.3, 3);
  const DynamicBitset b = RandomBitset(1024, 0.3, 4);
  std::vector<std::size_t> ref = {7, 8, 9};
  for (std::size_t i = 0; i + 5 < 1024; ++i) {
    if (a.Test(i) && b.Test(i + 5)) ref.push_back(i);
  }
  std::vector<std::size_t> out = {7, 8, 9};
  a.CollectAndShifted(b, 5, &out);
  EXPECT_EQ(out, ref);
}

TEST(BitsetSimdTest, OverrideRestoresPreviousKernel) {
  const SimdKernel before = util::ActiveSimdKernel();
  {
    ScopedSimdKernelOverride override(SimdKernel::kScalar);
    EXPECT_EQ(util::ActiveSimdKernel(), SimdKernel::kScalar);
  }
  EXPECT_EQ(util::ActiveSimdKernel(), before);
}

}  // namespace
}  // namespace periodica
