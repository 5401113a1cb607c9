#include "periodica/fft/convolution.h"

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/util/rng.h"

namespace periodica::fft {
namespace {

std::vector<double> NaiveConvolve(const std::vector<double>& x,
                                  const std::vector<double>& y) {
  if (x.empty() || y.empty()) return {};
  std::vector<double> out(x.size() + y.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < y.size(); ++j) {
      out[i + j] += x[i] * y[j];
    }
  }
  return out;
}

std::vector<double> NaiveAutocorrelation(const std::vector<double>& x) {
  std::vector<double> out(x.size(), 0.0);
  for (std::size_t p = 0; p < x.size(); ++p) {
    for (std::size_t i = 0; i + p < x.size(); ++i) {
      out[p] += x[i] * x[i + p];
    }
  }
  return out;
}

std::vector<double> NaiveCrossCorrelation(const std::vector<double>& x,
                                          const std::vector<double>& y) {
  std::vector<double> out(y.size(), 0.0);
  for (std::size_t p = 0; p < y.size(); ++p) {
    for (std::size_t i = 0; i < x.size() && i + p < y.size(); ++i) {
      out[p] += x[i] * y[i + p];
    }
  }
  return out;
}

std::vector<double> RandomVector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& value : out) value = rng.UniformDouble() * 2 - 1;
  return out;
}

void ExpectClose(const std::vector<double>& actual,
                 const std::vector<double>& expected, double tolerance) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], tolerance) << "index " << i;
  }
}

TEST(ConvolutionTest, KnownSmallConvolution) {
  // [1,2,3] * [4,5] = [4, 13, 22, 15].
  ExpectClose(LinearConvolve(std::vector<double>{1, 2, 3},
                             std::vector<double>{4, 5}),
              {4, 13, 22, 15}, 1e-10);
}

TEST(ConvolutionTest, EmptyInputsGiveEmptyOutput) {
  EXPECT_TRUE(LinearConvolve({}, std::vector<double>{1.0}).empty());
  EXPECT_TRUE(Autocorrelation({}).empty());
  EXPECT_TRUE(CrossCorrelation({}, {}).empty());
}

TEST(ConvolutionTest, SingleElement) {
  ExpectClose(LinearConvolve(std::vector<double>{3.0},
                             std::vector<double>{-2.0}),
              {-6.0}, 1e-12);
  ExpectClose(Autocorrelation(std::vector<double>{3.0}), {9.0}, 1e-12);
}

TEST(ConvolutionTest, AutocorrelationLagZeroIsEnergy) {
  const auto x = RandomVector(100, 4);
  double energy = 0.0;
  for (const double v : x) energy += v * v;
  EXPECT_NEAR(Autocorrelation(x)[0], energy, 1e-8);
}

class ConvolutionProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ConvolutionProperty, MatchesNaiveConvolution) {
  const auto [nx, ny] = GetParam();
  const auto x = RandomVector(nx, nx * 31 + 1);
  const auto y = RandomVector(ny, ny * 17 + 3);
  ExpectClose(LinearConvolve(x, y), NaiveConvolve(x, y),
              1e-9 * static_cast<double>(nx + ny));
}

TEST_P(ConvolutionProperty, MatchesNaiveCrossCorrelation) {
  const auto [nx, ny] = GetParam();
  const auto x = RandomVector(nx, nx + 7);
  const auto y = RandomVector(ny, ny + 11);
  ExpectClose(CrossCorrelation(x, y), NaiveCrossCorrelation(x, y),
              1e-9 * static_cast<double>(nx + ny));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConvolutionProperty,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 5),
                      std::make_tuple(5, 2), std::make_tuple(17, 17),
                      std::make_tuple(64, 64), std::make_tuple(100, 300),
                      std::make_tuple(511, 513)));

class AutocorrelationProperty : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(AutocorrelationProperty, MatchesNaive) {
  const std::size_t n = GetParam();
  const auto x = RandomVector(n, n * 3 + 5);
  ExpectClose(Autocorrelation(x), NaiveAutocorrelation(x),
              1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, AutocorrelationProperty,
                         ::testing::Values(1, 2, 3, 7, 16, 100, 255, 256,
                                           1000));

}  // namespace
}  // namespace periodica::fft
