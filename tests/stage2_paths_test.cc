// Stage 2's bit-sliced phase counts (core/stage2.h) against a naive
// reference that counts each phase i mod p where t_i == t_{i+p} == symbol
// and then applies EmitPeriod's Definition-1 test: across the word and
// row-fold edges of p, lengths around a word boundary, lengths whose row
// count is (one below) a power of two, a constant series that fills every
// plane and sits on the early stop's boundary, thresholds hit exactly,
// psi in {0, 1} and min_pairs above 1.

#include "periodica/core/stage2.h"

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/core/fft_miner.h"
#include "periodica/util/rng.h"

namespace periodica {
namespace {

using internal::Candidate;
using internal::PhaseCount;

SymbolSeries RandomSeries(std::size_t n, std::size_t sigma,
                          std::uint64_t seed) {
  Rng rng(seed);
  SymbolSeries series(Alphabet::Latin(sigma));
  series.Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    series.Append(static_cast<SymbolId>(rng.UniformInt(sigma)));
  }
  return series;
}

/// counts[l] = #{i < n - p : i mod p == l, t_i == t_{i+p} == symbol}.
std::vector<std::uint64_t> NaivePhaseCounts(const SymbolSeries& series,
                                            SymbolId symbol,
                                            std::size_t period) {
  std::vector<std::uint64_t> counts(period, 0);
  for (std::size_t i = 0; i + period < series.size(); ++i) {
    if (series[i] == symbol && series[i + period] == symbol) {
      ++counts[i % period];
    }
  }
  return counts;
}

/// The candidates of `period`, one per symbol that matches at all, with
/// their exact stage-1 totals.
std::vector<Candidate> Group(const SymbolSeries& series, std::size_t period) {
  std::vector<Candidate> group;
  for (SymbolId k = 0; k < series.alphabet().size(); ++k) {
    std::uint64_t matches = 0;
    for (const std::uint64_t count : NaivePhaseCounts(series, k, period)) {
      matches += count;
    }
    if (matches != 0) group.push_back(Candidate{period, k, matches});
  }
  return group;
}

/// The phases EmitPeriod keeps, in PhaseCounts' order.
std::vector<PhaseCount> NaiveKept(const SymbolSeries& series,
                                  std::span<const Candidate> group,
                                  const MinerOptions& options) {
  std::vector<PhaseCount> kept;
  const std::size_t n = series.size();
  for (const Candidate& candidate : group) {
    const std::vector<std::uint64_t> counts =
        NaivePhaseCounts(series, candidate.symbol, candidate.period);
    for (std::size_t l = 0; l < candidate.period; ++l) {
      if (counts[l] == 0) continue;
      const std::uint64_t pairs = ProjectionPairCount(n, candidate.period, l);
      if (pairs == 0 || pairs < options.min_pairs) continue;
      if (static_cast<double>(counts[l]) / static_cast<double>(pairs) <
          options.threshold) {
        continue;
      }
      kept.push_back(PhaseCount{candidate.symbol, l, counts[l]});
    }
  }
  return kept;
}

/// The counts as comparable tuples.
std::vector<std::tuple<SymbolId, std::size_t, std::uint64_t>> Key(
    const std::vector<PhaseCount>& counts) {
  std::vector<std::tuple<SymbolId, std::size_t, std::uint64_t>> key;
  for (const PhaseCount& count : counts) {
    key.emplace_back(count.symbol, count.phase, count.f2);
  }
  return key;
}

std::string Describe(const std::vector<PhaseCount>& counts) {
  std::string out;
  for (const PhaseCount& count : counts) {
    out += std::to_string(count.symbol) + ":" + std::to_string(count.phase) +
           "=" + std::to_string(count.f2) + " ";
  }
  return out;
}

/// Lengths for one period: around the word boundary at 64m, plus those
/// whose row count is 2^k - 1 (every plane full on a constant series) and
/// 2^k (one more plane), for a small and a larger k.
std::set<std::size_t> Lengths(std::size_t period) {
  std::set<std::size_t> lengths;
  for (const std::size_t words : {std::size_t{20}, std::size_t{41}}) {
    for (const std::size_t n : {64 * words - 1, 64 * words, 64 * words + 1}) {
      if (n > period) lengths.insert(n);
    }
  }
  const std::size_t row_bits = internal::Stage2RowBits(period);
  for (const std::size_t rows : {7u, 8u, 63u, 64u}) {
    lengths.insert(period + rows * row_bits);
    lengths.insert(period + rows * row_bits - 1);
  }
  return lengths;
}

/// Checks PhaseCounts against the reference for one series, period and
/// options, and returns how many phases were kept.
std::size_t ExpectSplitMatches(const SymbolSeries& series, std::size_t period,
                               const MinerOptions& options,
                               const std::string& label) {
  const FftConvolutionMiner miner(series);
  const std::vector<Candidate> group = Group(series, period);
  std::vector<PhaseCount> counts;
  miner.PhaseCounts(period, group, options, &counts);
  const std::vector<PhaseCount> expected = NaiveKept(series, group, options);
  EXPECT_TRUE(Key(counts) == Key(expected))
      << label << "\n  got      " << Describe(counts) << "\n  expected "
      << Describe(expected);
  EXPECT_LE(internal::Stage2GroupBytes(series.size(), period, group, options),
            internal::Stage2GroupBoundBytes(series.size(),
                                            series.alphabet().size(), period))
      << label;
  return expected.size();
}

const std::size_t kPeriods[] = {1, 2, 25, 63, 64, 65, 127, 128, 129};

TEST(Stage2PathsTest, KeptPhasesEqualTheNaiveReference) {
  std::size_t kept = 0;
  for (const std::size_t period : kPeriods) {
    for (const std::size_t n : Lengths(period)) {
      for (const std::size_t sigma : {2u, 5u}) {
        const SymbolSeries series = RandomSeries(n, sigma, n * 17 + sigma);
        for (const double threshold : {0.0, 0.3, 0.5, 1.0}) {
          for (const std::size_t min_pairs : {1u, 3u, 40u}) {
            MinerOptions options;
            options.threshold = threshold;
            options.min_pairs = min_pairs;
            kept += ExpectSplitMatches(
                series, period, options,
                "p=" + std::to_string(period) + " n=" + std::to_string(n) +
                    " sigma=" + std::to_string(sigma) +
                    " psi=" + std::to_string(threshold) +
                    " min_pairs=" + std::to_string(min_pairs));
          }
        }
      }
    }
  }
  EXPECT_GT(kept, 0u);
}

TEST(Stage2PathsTest, LongestPeriodHasOnePairPerPhase) {
  // p = n - 1: one row, one pair at phase 0 and none elsewhere.
  for (const std::size_t n : {2u, 64u, 65u, 1279u, 1280u, 1281u}) {
    SymbolSeries series(Alphabet::Latin(2));
    for (std::size_t i = 0; i < n; ++i) series.Append(0);
    for (const double threshold : {0.0, 1.0}) {
      MinerOptions options;
      options.threshold = threshold;
      EXPECT_EQ(ExpectSplitMatches(series, n - 1, options,
                                   "n=" + std::to_string(n)),
                1u);
    }
  }
}

TEST(Stage2PathsTest, ConstantSeriesSaturatesEveryPlane) {
  // Every position matches, so each column counts every row: with 2^K - 1
  // rows that is all K planes set, and one more row carries into a new
  // plane. psi = 1 keeps exactly the phases with as many matches as pairs,
  // which puts every column on the early stop's boundary: it reaches its
  // threshold only if every remaining row matches.
  for (const std::size_t period : kPeriods) {
    for (const std::size_t n : Lengths(period)) {
      SymbolSeries series(Alphabet::Latin(1));
      for (std::size_t i = 0; i < n; ++i) series.Append(0);
      for (const double threshold : {0.0, 1.0}) {
        MinerOptions options;
        options.threshold = threshold;
        EXPECT_EQ(ExpectSplitMatches(series, period, options,
                                     "constant p=" + std::to_string(period) +
                                         " n=" + std::to_string(n)),
                  period)
            << "every phase of a constant series passes";
      }
    }
  }
}

TEST(Stage2PathsTest, ThresholdReachedExactlyPasses) {
  // psi = f2 / pairs for a phase of each length class: that phase sits on
  // the boundary of the double comparison and must be kept, and so must
  // every phase at or above it.
  for (const std::size_t period : {25u, 65u, 129u}) {
    const std::size_t n = 64 * 41 + 1;
    const SymbolSeries series = RandomSeries(n, 2, period);
    const std::vector<std::uint64_t> counts =
        NaivePhaseCounts(series, 0, period);
    for (const std::size_t l : {std::size_t{0}, period - 1}) {
      const std::uint64_t pairs = ProjectionPairCount(n, period, l);
      ASSERT_GT(counts[l], 0u);
      MinerOptions options;
      options.threshold =
          static_cast<double>(counts[l]) / static_cast<double>(pairs);
      const std::string label =
          "p=" + std::to_string(period) + " l=" + std::to_string(l);
      ExpectSplitMatches(series, period, options, label);
      const FftConvolutionMiner miner(series);
      std::vector<PhaseCount> kept;
      miner.PhaseCounts(period, Group(series, period), options, &kept);
      bool found = false;
      for (const PhaseCount& count : kept) {
        found = found || (count.symbol == 0 && count.phase == l);
      }
      EXPECT_TRUE(found) << label << ": the boundary phase was dropped";
    }
  }
}

TEST(Stage2PathsTest, PlanesTotalTheStageOneMatchCount) {
  // With psi = 0 every nonempty phase is kept, so the kept counts are the
  // whole bit-plane total, which must equal stage 1's |W_{p,k}|.
  for (const std::size_t period : kPeriods) {
    for (const std::size_t n : Lengths(period)) {
      const SymbolSeries series = RandomSeries(n, 3, n + period);
      const FftConvolutionMiner miner(series);
      const std::vector<Candidate> group = Group(series, period);
      MinerOptions options;
      options.threshold = 0.0;
      std::vector<PhaseCount> kept;
      miner.PhaseCounts(period, group, options, &kept);
      std::vector<std::uint64_t> totals(3, 0);
      for (const PhaseCount& count : kept) totals[count.symbol] += count.f2;
      for (const Candidate& candidate : group) {
        const std::vector<std::uint64_t> stage1 =
            miner.MatchCounts(candidate.symbol, period);
        EXPECT_EQ(totals[candidate.symbol], stage1[period])
            << "p=" << period << " n=" << n
            << " symbol=" << candidate.symbol;
      }
    }
  }
}

TEST(Stage2PathsTest, ThresholdsFollowTheTwoPairCounts) {
  // Phases below n mod p have ceil(n/p) - 1 pairs, the rest one fewer.
  MinerOptions options;
  options.threshold = 0.5;
  for (const std::size_t n : {100u, 128u, 1000u}) {
    for (const std::size_t period : {1u, 3u, 7u, 64u, 99u}) {
      if (period >= n) continue;
      const internal::PhaseThresholds thresholds =
          internal::Stage2Thresholds(n, period, options);
      for (std::size_t l = 0; l < period; ++l) {
        const std::uint64_t pairs = ProjectionPairCount(n, period, l);
        const std::uint64_t expected =
            pairs == 0 ? internal::kNoPassingCount : (pairs + 1) / 2;
        EXPECT_EQ(thresholds.At(l), std::max<std::uint64_t>(expected, 1))
            << "n=" << n << " p=" << period << " l=" << l;
      }
    }
  }
}

}  // namespace
}  // namespace periodica
