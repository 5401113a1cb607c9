#include "periodica/core/online.h"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "periodica/core/exact_miner.h"
#include "periodica/gen/synthetic.h"
#include "periodica/series/series.h"
#include "periodica/util/rng.h"

namespace periodica {
namespace {

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

TEST(OnlineTrackerTest, ValidatesArguments) {
  EXPECT_TRUE(OnlinePeriodicityTracker::Create(Alphabet::Latin(3), {})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(OnlinePeriodicityTracker::Create(Alphabet::Latin(3), {0})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(OnlinePeriodicityTracker::Create(Alphabet(), {3})
                  .status()
                  .IsInvalidArgument());
}

TEST(OnlineTrackerTest, F2MatchesOfflineDefinition) {
  const SymbolSeries series = RandomSeries(500, 4, 3);
  auto tracker =
      OnlinePeriodicityTracker::Create(series.alphabet(), {3, 7, 10, 24});
  ASSERT_TRUE(tracker.ok());
  for (std::size_t i = 0; i < series.size(); ++i) {
    tracker->Append(series[i]);
  }
  EXPECT_EQ(tracker->size(), series.size());
  for (const std::size_t p : tracker->periods()) {
    for (SymbolId s = 0; s < 4; ++s) {
      for (std::size_t l = 0; l < p; ++l) {
        EXPECT_EQ(tracker->F2Count(p, s, l),
                  F2Projection(series, s, p, l))
            << "p=" << p << " s=" << int(s) << " l=" << l;
      }
    }
  }
}

TEST(OnlineTrackerTest, SnapshotMatchesBatchMinerForTrackedPeriods) {
  SyntheticSpec spec;
  spec.length = 2000;
  spec.alphabet_size = 6;
  spec.period = 12;
  spec.seed = 5;
  auto perfect = GeneratePerfect(spec);
  ASSERT_TRUE(perfect.ok());
  auto series = ApplyNoise(*perfect, NoiseSpec::Replacement(0.2, 6));
  ASSERT_TRUE(series.ok());

  auto tracker =
      OnlinePeriodicityTracker::Create(series->alphabet(), {12, 24});
  ASSERT_TRUE(tracker.ok());
  for (std::size_t i = 0; i < series->size(); ++i) {
    tracker->Append((*series)[i]);
  }
  const PeriodicityTable online = tracker->Snapshot(0.4);

  // Batch miner over the same period range.
  ExactConvolutionMiner batch(*series);
  MinerOptions options;
  options.threshold = 0.4;
  options.min_period = 12;
  options.max_period = 24;
  PeriodicityTable offline = batch.Mine(options);
  // Restrict offline to the tracked periods (the range includes others).
  std::vector<SymbolPeriodicity> offline_entries;
  for (const auto& entry : offline.entries()) {
    if (entry.period == 12 || entry.period == 24) {
      offline_entries.push_back(entry);
    }
  }
  ASSERT_EQ(online.entries().size(), offline_entries.size());
  for (std::size_t i = 0; i < offline_entries.size(); ++i) {
    EXPECT_EQ(online.entries()[i], offline_entries[i]);
  }
}

TEST(OnlineTrackerTest, SnapshotAnytime) {
  const SymbolSeries series = RandomSeries(300, 3, 9);
  auto tracker = OnlinePeriodicityTracker::Create(series.alphabet(), {5});
  ASSERT_TRUE(tracker.ok());
  for (std::size_t i = 0; i < series.size(); ++i) {
    tracker->Append(series[i]);
    if (i % 50 != 49) continue;
    // Mid-stream snapshot equals offline computation over the prefix.
    SymbolSeries prefix(series.alphabet());
    for (std::size_t j = 0; j <= i; ++j) prefix.Append(series[j]);
    for (SymbolId s = 0; s < 3; ++s) {
      for (std::size_t l = 0; l < 5; ++l) {
        EXPECT_EQ(tracker->F2Count(5, s, l), F2Projection(prefix, s, 5, l));
      }
    }
  }
}

// Merge mining: merging trackers of adjacent segments must equal feeding
// the whole stream into one tracker, across segment splits that exercise
// every boundary case (splits shorter than, equal to, and longer than the
// largest tracked period).
class TrackerMergeProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(TrackerMergeProperty, MergeEqualsSequentialFeeding) {
  const auto [split, seed] = GetParam();
  const SymbolSeries series = RandomSeries(300, 4, seed);
  const std::vector<std::size_t> periods = {3, 7, 24};

  auto prefix = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  auto suffix = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  auto whole = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  ASSERT_TRUE(prefix.ok());
  ASSERT_TRUE(suffix.ok());
  ASSERT_TRUE(whole.ok());
  for (std::size_t i = 0; i < series.size(); ++i) {
    (i < split ? *prefix : *suffix).Append(series[i]);
    whole->Append(series[i]);
  }
  auto merged = OnlinePeriodicityTracker::Merge(*prefix, *suffix);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->size(), series.size());
  for (const std::size_t p : periods) {
    for (SymbolId s = 0; s < 4; ++s) {
      for (std::size_t l = 0; l < p; ++l) {
        EXPECT_EQ(merged->F2Count(p, s, l), whole->F2Count(p, s, l))
            << "split=" << split << " p=" << p << " s=" << int(s)
            << " l=" << l;
      }
    }
  }
  // A merged tracker keeps working: appending more must stay consistent.
  SymbolSeries extended(series.alphabet());
  for (std::size_t i = 0; i < series.size(); ++i) extended.Append(series[i]);
  for (int i = 0; i < 50; ++i) {
    const SymbolId symbol = static_cast<SymbolId>(i % 4);
    merged->Append(symbol);
    whole->Append(symbol);
    extended.Append(symbol);
  }
  for (const std::size_t p : periods) {
    for (SymbolId s = 0; s < 4; ++s) {
      for (std::size_t l = 0; l < p; ++l) {
        EXPECT_EQ(merged->F2Count(p, s, l), whole->F2Count(p, s, l));
        EXPECT_EQ(merged->F2Count(p, s, l), F2Projection(extended, s, p, l));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SplitsAndSeeds, TrackerMergeProperty,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 5, 23, 24, 25,
                                                      150, 299, 300),
                       ::testing::Values<std::uint64_t>(61, 62)));

TEST(OnlineTrackerTest, MergeOfMergedTrackersStaysExact) {
  // Three segments merged as (A + B) + C must equal one sequential pass —
  // i.e. merged trackers are themselves mergeable (associativity in
  // practice).
  const SymbolSeries series = RandomSeries(500, 3, 77);
  const std::vector<std::size_t> periods = {4, 9, 31};
  auto a = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  auto b = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  auto c = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  auto whole = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && whole.ok());
  for (std::size_t i = 0; i < series.size(); ++i) {
    (i < 170 ? *a : (i < 353 ? *b : *c)).Append(series[i]);
    whole->Append(series[i]);
  }
  auto ab = OnlinePeriodicityTracker::Merge(*a, *b);
  ASSERT_TRUE(ab.ok());
  auto abc = OnlinePeriodicityTracker::Merge(*ab, *c);
  ASSERT_TRUE(abc.ok());
  for (const std::size_t p : periods) {
    for (SymbolId s = 0; s < 3; ++s) {
      for (std::size_t l = 0; l < p; ++l) {
        EXPECT_EQ(abc->F2Count(p, s, l), whole->F2Count(p, s, l))
            << "p=" << p << " s=" << int(s) << " l=" << l;
      }
    }
  }
}

TEST(OnlineTrackerTest, MergeRejectsMismatchedConfigurations) {
  auto a = OnlinePeriodicityTracker::Create(Alphabet::Latin(2), {3});
  auto b = OnlinePeriodicityTracker::Create(Alphabet::Latin(3), {3});
  auto c = OnlinePeriodicityTracker::Create(Alphabet::Latin(2), {4});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(OnlinePeriodicityTracker::Merge(*a, *b)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(OnlinePeriodicityTracker::Merge(*a, *c)
                  .status()
                  .IsInvalidArgument());
}

TEST(OnlineTrackerTest, MinPairsInSnapshot) {
  auto tracker = OnlinePeriodicityTracker::Create(Alphabet::Latin(2), {2});
  ASSERT_TRUE(tracker.ok());
  for (int i = 0; i < 6; ++i) tracker->Append(static_cast<SymbolId>(i % 2));
  // n=6, p=2: each phase has 2 pairs, perfect alternation -> confidence 1.
  EXPECT_FALSE(tracker->Snapshot(1.0, /*min_pairs=*/2).summaries().empty());
  EXPECT_TRUE(tracker->Snapshot(1.0, /*min_pairs=*/3).summaries().empty());
}

TEST(OnlineTrackerTest, ZeroThresholdKeepsEveryPhaseWithPairs) {
  // At threshold 0 every (symbol, phase) with at least max(1, min_pairs)
  // projection pairs passes Definition 1, zero F2 included, and the table
  // comes out in canonical order.
  const SymbolSeries series = RandomSeries(20, 3, 5);
  const std::vector<std::size_t> periods = {3, 7};
  auto tracker = OnlinePeriodicityTracker::Create(series.alphabet(), periods);
  ASSERT_TRUE(tracker.ok());
  for (std::size_t i = 0; i < series.size(); ++i) tracker->Append(series[i]);
  for (const std::size_t min_pairs : {0u, 1u, 2u}) {
    std::vector<SymbolPeriodicity> expected;
    for (const std::size_t p : periods) {
      for (std::size_t l = 0; l < p; ++l) {
        const std::uint64_t pairs = ProjectionPairCount(series.size(), p, l);
        if (pairs < std::max<std::size_t>(1, min_pairs)) continue;
        for (SymbolId s = 0; s < 3; ++s) {
          const std::uint64_t f2 = tracker->F2Count(p, s, l);
          expected.push_back(SymbolPeriodicity{
              p, l, s, f2, pairs,
              static_cast<double>(f2) / static_cast<double>(pairs)});
        }
      }
    }
    const PeriodicityTable table = tracker->Snapshot(0.0, min_pairs);
    EXPECT_TRUE(table.IsCanonical());
    EXPECT_EQ(table.entries(), expected) << "min_pairs=" << min_pairs;
    EXPECT_EQ(table.summaries().size(), periods.size());
    EXPECT_TRUE(std::any_of(
        expected.begin(), expected.end(),
        [](const SymbolPeriodicity& entry) { return entry.f2 == 0; }));
  }
}

// --- Windowed tracker ---------------------------------------------------

TEST(WindowedTrackerTest, ValidatesArguments) {
  EXPECT_TRUE(
      WindowedPeriodicityTracker::Create(Alphabet::Latin(2), {5}, 5)
          .status()
          .IsInvalidArgument());  // period must be < window
  EXPECT_TRUE(WindowedPeriodicityTracker::Create(Alphabet::Latin(2), {}, 10)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(WindowedPeriodicityTracker::Create(Alphabet::Latin(2), {1}, 1)
                  .status()
                  .IsInvalidArgument());
}

/// Brute-force reference: F2 pairs inside the window with absolute phases.
std::uint64_t WindowF2(const SymbolSeries& series, std::size_t end,
                       std::size_t window, std::size_t p, SymbolId s,
                       std::size_t phase) {
  const std::size_t start = end > window ? end - window : 0;
  std::uint64_t count = 0;
  for (std::size_t j = start; j + p < end; ++j) {
    if (j % p == phase && series[j] == s && series[j + p] == s) ++count;
  }
  return count;
}

class WindowedTrackerProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(WindowedTrackerProperty, MatchesBruteForceAtEveryStep) {
  const auto [window, seed] = GetParam();
  const SymbolSeries series = RandomSeries(400, 3, seed);
  const std::vector<std::size_t> periods = {2, 5, 7};
  auto tracker = WindowedPeriodicityTracker::Create(series.alphabet(),
                                                    periods, window);
  ASSERT_TRUE(tracker.ok());
  for (std::size_t i = 0; i < series.size(); ++i) {
    tracker->Append(series[i]);
    if (i % 37 != 0 && i + 1 != series.size()) continue;
    for (const std::size_t p : periods) {
      for (SymbolId s = 0; s < 3; ++s) {
        for (std::size_t l = 0; l < p; ++l) {
          EXPECT_EQ(tracker->F2Count(p, s, l),
                    WindowF2(series, i + 1, window, p, s, l))
              << "i=" << i << " p=" << p << " s=" << int(s) << " l=" << l;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    WindowsAndSeeds, WindowedTrackerProperty,
    ::testing::Combine(::testing::Values<std::size_t>(8, 50, 64, 127),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

TEST(WindowedTrackerTest, DetectsOutageThatWholeStreamMasks) {
  // A perfectly periodic symbol that stops at half time: the windowed
  // confidence collapses while the whole-stream confidence stays high.
  SymbolSeries series(Alphabet::Latin(2));
  for (std::size_t i = 0; i < 2000; ++i) {
    const bool fires = i % 10 == 3 && i < 1000;
    series.Append(fires ? SymbolId{0} : SymbolId{1});
  }
  auto whole = OnlinePeriodicityTracker::Create(series.alphabet(), {10});
  auto windowed =
      WindowedPeriodicityTracker::Create(series.alphabet(), {10}, 200);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(windowed.ok());
  for (std::size_t i = 0; i < series.size(); ++i) {
    whole->Append(series[i]);
    windowed->Append(series[i]);
  }
  const std::uint64_t whole_f2 = whole->F2Count(10, 0, 3);
  EXPECT_GT(whole_f2, 90u);  // history keeps the count high
  EXPECT_EQ(windowed->F2Count(10, 0, 3), 0u);  // the window has moved on
}

TEST(WindowedTrackerTest, ZeroThresholdKeepsEveryPhaseWithPairs) {
  // At threshold 0 every (symbol, phase) with at least max(1, min_pairs)
  // pair slots in the window passes Definition 1, zero F2 included, and the
  // table comes out in canonical order. With 40 symbols through a
  // 13-symbol window, phase 5 of period 7 has no slot at all.
  const SymbolSeries series = RandomSeries(40, 3, 6);
  const std::size_t window = 13;
  const std::vector<std::size_t> periods = {2, 5, 7};
  auto tracker = WindowedPeriodicityTracker::Create(series.alphabet(),
                                                    periods, window);
  ASSERT_TRUE(tracker.ok());
  for (std::size_t i = 0; i < series.size(); ++i) tracker->Append(series[i]);
  const std::size_t start = series.size() - window;
  for (const std::size_t min_pairs : {1u, 2u, 3u}) {
    std::vector<SymbolPeriodicity> expected;
    for (const std::size_t p : periods) {
      for (std::size_t l = 0; l < p; ++l) {
        std::uint64_t slots = 0;
        for (std::size_t j = start; j + p < series.size(); ++j) {
          if (j % p == l) ++slots;
        }
        if (slots < std::max<std::size_t>(1, min_pairs)) continue;
        for (SymbolId s = 0; s < 3; ++s) {
          const std::uint64_t f2 = tracker->F2Count(p, s, l);
          expected.push_back(SymbolPeriodicity{
              p, l, s, f2, slots,
              static_cast<double>(f2) / static_cast<double>(slots)});
        }
      }
    }
    const PeriodicityTable table = tracker->Snapshot(0.0, min_pairs);
    EXPECT_TRUE(table.IsCanonical());
    EXPECT_EQ(table.entries(), expected) << "min_pairs=" << min_pairs;
    EXPECT_TRUE(std::any_of(
        expected.begin(), expected.end(),
        [](const SymbolPeriodicity& entry) { return entry.f2 == 0; }));
  }
}

TEST(WindowedTrackerTest, OccupancyAndSize) {
  auto tracker =
      WindowedPeriodicityTracker::Create(Alphabet::Latin(2), {3}, 10);
  ASSERT_TRUE(tracker.ok());
  for (int i = 0; i < 25; ++i) {
    tracker->Append(static_cast<SymbolId>(i % 2));
  }
  EXPECT_EQ(tracker->size(), 25u);
  EXPECT_EQ(tracker->occupancy(), 10u);
  EXPECT_EQ(tracker->window(), 10u);
}

}  // namespace
}  // namespace periodica
