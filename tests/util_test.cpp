#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "util/error.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace dinar {
namespace {

// ---------------------------------------------------------------- error --

TEST(ErrorTest, CheckPassesOnTrue) { EXPECT_NO_THROW(DINAR_CHECK(1 + 1 == 2)); }

TEST(ErrorTest, CheckThrowsOnFalse) {
  EXPECT_THROW(DINAR_CHECK(false), Error);
}

TEST(ErrorTest, CheckMessageIncludesExpressionAndContext) {
  try {
    DINAR_CHECK(2 > 3, "got " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("got 42"), std::string::npos);
  }
}

// ------------------------------------------------------------------ rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng base(7);
  Rng f1 = base.fork(1), f2 = base.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (f1.next_u64() == f2.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(7), b(7);
  EXPECT_EQ(a.fork(3).next_u64(), b.fork(3).next_u64());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.5, 1.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 1.5);
  }
}

TEST(RngTest, UniformIndexBounds) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformIndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.gaussian());
  EXPECT_NEAR(stat.mean(), 0.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 1.0, 0.05);
}

TEST(RngTest, GaussianShiftScale) {
  Rng rng(11);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.add(rng.gaussian(3.0, 0.5));
  EXPECT_NEAR(stat.mean(), 3.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 0.5, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.3, 0.03);
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(17);
  for (double alpha : {0.1, 0.8, 2.0, 10.0}) {
    const std::vector<double> d = rng.dirichlet(alpha, 8);
    ASSERT_EQ(d.size(), 8u);
    double sum = 0.0;
    for (double v : d) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletSmallAlphaIsSkewed) {
  Rng rng(19);
  // With alpha = 0.05 most mass concentrates on few coordinates.
  double max_sum = 0.0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const std::vector<double> d = rng.dirichlet(0.05, 10);
    max_sum += *std::max_element(d.begin(), d.end());
  }
  EXPECT_GT(max_sum / trials, 0.6);
}

TEST(RngTest, DirichletRejectsBadArgs) {
  Rng rng(1);
  EXPECT_THROW(rng.dirichlet(0.0, 3), Error);
  EXPECT_THROW(rng.dirichlet(1.0, 0), Error);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(23);
  const std::vector<std::size_t> p = rng.permutation(100);
  std::set<std::size_t> unique(p.begin(), p.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------------- stats --

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, MergeMatchesCombined) {
  Rng rng(31);
  RunningStat a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.gaussian();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(HistogramTest, CountsAndPmf) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 10u);
  const std::vector<double> pmf = h.pmf();
  for (double p : pmf) EXPECT_DOUBLE_EQ(p, 0.1);
}

TEST(HistogramTest, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.counts().front(), 1u);
  EXPECT_EQ(h.counts().back(), 1u);
}

TEST(HistogramTest, EmptyPmfIsUniform) {
  Histogram h(0.0, 1.0, 5);
  for (double p : h.pmf()) EXPECT_DOUBLE_EQ(p, 0.2);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), Error);
}

TEST(DivergenceTest, KlOfIdenticalIsZero) {
  const std::vector<double> p{0.2, 0.3, 0.5};
  EXPECT_NEAR(kl_divergence(p, p), 0.0, 1e-12);
}

TEST(DivergenceTest, KlIsNonNegative) {
  Rng rng(37);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> p(6), q(6);
    double sp = 0, sq = 0;
    for (int i = 0; i < 6; ++i) {
      p[i] = rng.uniform() + 1e-3;
      q[i] = rng.uniform() + 1e-3;
      sp += p[i];
      sq += q[i];
    }
    for (int i = 0; i < 6; ++i) {
      p[i] /= sp;
      q[i] /= sq;
    }
    EXPECT_GE(kl_divergence(p, q), -1e-12);
  }
}

TEST(DivergenceTest, JsSymmetricAndBounded) {
  Rng rng(41);
  for (int t = 0; t < 20; ++t) {
    std::vector<double> p(8), q(8);
    double sp = 0, sq = 0;
    for (int i = 0; i < 8; ++i) {
      p[i] = rng.uniform() + 1e-4;
      q[i] = rng.uniform() + 1e-4;
      sp += p[i];
      sq += q[i];
    }
    for (int i = 0; i < 8; ++i) {
      p[i] /= sp;
      q[i] /= sq;
    }
    const double js_pq = js_divergence(p, q);
    const double js_qp = js_divergence(q, p);
    EXPECT_NEAR(js_pq, js_qp, 1e-12);
    EXPECT_GE(js_pq, 0.0);
    EXPECT_LE(js_pq, std::log(2.0) + 1e-12);
  }
}

TEST(DivergenceTest, JsMaximalForDisjointSupport) {
  const std::vector<double> p{1.0, 0.0};
  const std::vector<double> q{0.0, 1.0};
  EXPECT_NEAR(js_divergence(p, q), std::log(2.0), 1e-9);
}

TEST(DivergenceTest, JsSamplesSeparatedDistributionsDiverge) {
  Rng rng(43);
  std::vector<float> a, b;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(static_cast<float>(rng.gaussian(0.0, 1.0)));
    b.push_back(static_cast<float>(rng.gaussian(5.0, 1.0)));
  }
  EXPECT_GT(js_divergence_samples(a, b), 0.4);
  EXPECT_LT(js_divergence_samples(a, a), 1e-9);
}

TEST(DivergenceTest, MismatchedDimensionsThrow) {
  EXPECT_THROW(kl_divergence({0.5, 0.5}, {1.0}), Error);
  EXPECT_THROW(js_divergence({0.5, 0.5}, {1.0}), Error);
}

TEST(RocAucTest, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(roc_auc({0.1, 0.2, 0.8, 0.9}, {false, false, true, true}), 1.0);
}

TEST(RocAucTest, InvertedSeparation) {
  EXPECT_DOUBLE_EQ(roc_auc({0.9, 0.8, 0.2, 0.1}, {false, false, true, true}), 0.0);
}

TEST(RocAucTest, AllTiedScoresGiveHalf) {
  EXPECT_DOUBLE_EQ(roc_auc({0.5, 0.5, 0.5, 0.5}, {false, true, false, true}), 0.5);
}

TEST(RocAucTest, SingleClassGivesHalf) {
  EXPECT_DOUBLE_EQ(roc_auc({0.1, 0.9}, {true, true}), 0.5);
}

TEST(RocAucTest, KnownMixedCase) {
  // scores: pos {0.8, 0.4}, neg {0.6, 0.2}: pairs won 3/4.
  EXPECT_DOUBLE_EQ(roc_auc({0.8, 0.4, 0.6, 0.2}, {true, true, false, false}), 0.75);
}

TEST(MeanStddevTest, Basics) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0, 1e-12);
}

// ---------------------------------------------------------------- serde --

TEST(SerdeTest, PodRoundTrip) {
  BinaryWriter w;
  w.write_u8(7);
  w.write_u32(123456);
  w.write_u64(1ULL << 60);
  w.write_i64(-42);
  w.write_f32(1.5f);
  w.write_f64(-2.25);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_EQ(r.read_u32(), 123456u);
  EXPECT_EQ(r.read_u64(), 1ULL << 60);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_f32(), 1.5f);
  EXPECT_EQ(r.read_f64(), -2.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(SerdeTest, StringRoundTrip) {
  BinaryWriter w;
  w.write_string("hello dinar");
  w.write_string("");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_string(), "hello dinar");
  EXPECT_EQ(r.read_string(), "");
}

TEST(SerdeTest, SpanRoundTrip) {
  const std::vector<float> xs{1.0f, -2.0f, 3.5f};
  BinaryWriter w;
  w.write_f32_span(xs.data(), xs.size());
  BinaryReader r(w.buffer());
  std::vector<float> back;
  r.read_f32_span(back);
  EXPECT_EQ(back, xs);
}

TEST(SerdeTest, I64VectorRoundTrip) {
  const std::vector<std::int64_t> v{-1, 0, 1, 1LL << 40};
  BinaryWriter w;
  w.write_i64_vector(v);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.read_i64_vector(), v);
}

TEST(SerdeTest, UnderrunThrows) {
  BinaryWriter w;
  w.write_u8(1);
  BinaryReader r(w.buffer());
  r.read_u8();
  EXPECT_THROW(r.read_u32(), Error);
}

TEST(SerdeTest, CorruptLengthThrows) {
  BinaryWriter w;
  w.write_u64(1'000'000);  // claims a million bytes that are not there
  BinaryReader r(w.buffer());
  std::vector<float> out;
  EXPECT_THROW(r.read_f32_span(out), Error);
}

// A corrupted length prefix must throw before any allocation happens: a
// multi-GB resize on attacker bytes is itself a denial of service.
TEST(SerdeTest, HugeLengthPrefixThrowsBeforeAllocating) {
  const auto with_prefix = [](std::uint64_t n) {
    BinaryWriter w;
    w.write_u64(n);
    w.write_u32(0);  // a few real bytes so the buffer is not empty
    return w.take();
  };

  const std::vector<std::uint8_t> huge = with_prefix(1ULL << 40);
  BinaryReader rs(huge);
  EXPECT_THROW(rs.read_string(), Error);
  BinaryReader rf(huge);
  std::vector<float> floats;
  EXPECT_THROW(rf.read_f32_span(floats), Error);
  EXPECT_TRUE(floats.empty());
  BinaryReader ri(huge);
  EXPECT_THROW(ri.read_i64_vector(), Error);
}

// n * elem_size near 2^64 must not wrap around the bounds check.
TEST(SerdeTest, OverflowingLengthPrefixThrows) {
  BinaryWriter w;
  w.write_u64(0x4000000000000000ULL);  // * 8 bytes/elem wraps to 0
  w.write_u64(0);
  const std::vector<std::uint8_t> bytes = w.take();
  BinaryReader r(bytes);
  EXPECT_THROW(r.read_i64_vector(), Error);
  // The same guard protects the generic byte reads.
  BinaryReader r2(bytes);
  EXPECT_THROW(r2.read_length(sizeof(double)), Error);
}

// ---------------------------------------------------------------- timer --

TEST(TimerTest, CumulativeAccumulates) {
  CumulativeTimer t;
  for (int i = 0; i < 3; ++i) {
    ScopedTimer scope(t);
  }
  EXPECT_EQ(t.intervals(), 3u);
  EXPECT_GE(t.total_seconds(), 0.0);
  t.reset();
  EXPECT_EQ(t.intervals(), 0u);
  EXPECT_EQ(t.total_seconds(), 0.0);
}

TEST(TimerTest, WallTimerMovesForward) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.elapsed_seconds(), 0.0);
}

// ----------------------------------------------------------- threadpool --

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPoolTest, SubmitReturnsUsableFuture) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

// Liveness regression: std::thread::hardware_concurrency() — the default
// constructor argument — may return 0. An unclamped pool would start zero
// workers and every submit()/parallel_for() would block forever.
TEST(ThreadPoolTest, ZeroThreadRequestClampsToOneLiveWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }).get();  // would deadlock with 0 workers
  EXPECT_TRUE(ran.load());
  std::atomic<int> sum{0};
  pool.parallel_for(4, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 6);
}

// ------------------------------------------------------- memory tracker --

TEST(MemoryTrackerTest, TracksLiveAndPeak) {
  MemoryTracker& m = MemoryTracker::instance();
  m.reset_peak();
  const std::uint64_t base = m.live_bytes();
  m.allocate(1000);
  EXPECT_EQ(m.live_bytes(), base + 1000);
  EXPECT_GE(m.peak_bytes(), base + 1000);
  m.release(1000);
  EXPECT_EQ(m.live_bytes(), base);
}

// -------------------------------------------------------------- logging --

TEST(LoggingTest, LevelGate) {
  Logger::instance().set_level(LogLevel::kWarn);
  EXPECT_FALSE(log_enabled(LogLevel::kInfo));
  EXPECT_TRUE(log_enabled(LogLevel::kError));
  Logger::instance().set_level(LogLevel::kInfo);
}

}  // namespace
}  // namespace dinar
