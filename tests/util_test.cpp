#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/flat_fifo.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace mu = mvflow::util;

TEST(FlatFifo, FifoOrderAcrossFillDrainCycles) {
  mu::FlatFifo<int> q;
  int next_push = 0, next_pop = 0;
  for (int cycle = 0; cycle < 100; ++cycle) {
    for (int i = 0; i < 17; ++i) q.push_back(next_push++);
    while (!q.empty()) {
      EXPECT_EQ(q.front(), next_pop++);
      q.pop_front();
    }
  }
  EXPECT_EQ(next_pop, next_push);
}

namespace {

std::vector<int> contents(const mu::FlatFifo<int>& q) {
  return std::vector<int>(q.begin(), q.end());
}

}  // namespace

TEST(FlatFifo, PrependKeepsOrderWithAndWithoutDeadPrefix) {
  // Dead prefix long enough: the range lands in front of the cursor.
  mu::FlatFifo<int> q;
  for (int v : {1, 2, 3, 4}) q.push_back(v);
  q.pop_front();
  q.pop_front();  // two dead slots, live {3, 4}
  const std::vector<int> two{8, 9};
  q.prepend(two.begin(), two.end());
  EXPECT_EQ(contents(q), (std::vector<int>{8, 9, 3, 4}));

  // No dead prefix: one insert at the head.
  mu::FlatFifo<int> r;
  r.push_back(5);
  const std::vector<int> three{1, 2, 3};
  r.prepend(three.begin(), three.end());
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 3, 5}));

  // A dead prefix shorter than the range is kept, and the range goes in
  // right after it.
  r.pop_front();  // one dead slot, live {2, 3, 5}
  r.prepend(two.begin(), two.end());
  EXPECT_EQ(contents(r), (std::vector<int>{8, 9, 2, 3, 5}));
  for (int v : {8, 9, 2, 3, 5}) {
    ASSERT_FALSE(r.empty());
    EXPECT_EQ(r.front(), v);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

namespace {

/// Counts constructed-and-not-yet-destroyed instances, so the tests can
/// observe how many elements (live + dead moved-from slots) a FlatFifo is
/// actually holding storage for.
struct Counted {
  static int live;
  Counted() { ++live; }
  Counted(const Counted&) { ++live; }
  Counted(Counted&&) noexcept { ++live; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() { --live; }
};
int Counted::live = 0;

/// Counts move-constructions and move-assignments, so a test can bound the
/// element moves one FlatFifo operation makes.
struct MoveCounted {
  static long moves;
  int v = 0;
  explicit MoveCounted(int x) : v(x) {}
  MoveCounted(MoveCounted&& o) noexcept : v(o.v) { ++moves; }
  MoveCounted& operator=(MoveCounted&& o) noexcept {
    v = o.v;
    ++moves;
    return *this;
  }
};
long MoveCounted::moves = 0;

}  // namespace

TEST(FlatFifo, PersistentlyNonEmptyQueueStaysBounded) {
  // A queue that never fully drains (e.g. a CQ filled faster than it is
  // polled) must not accumulate O(total pushed) dead slots: pop_front
  // compacts once the dead prefix outweighs the live tail, destroying the
  // moved-from elements it pinned.
  {
    mu::FlatFifo<Counted> q;
    q.push_back(Counted{});
    for (int i = 0; i < 100'000; ++i) {
      q.push_back(Counted{});
      q.pop_front();  // depth stays at 1, queue never empties
      EXPECT_LE(Counted::live, 256) << "dead prefix not being reclaimed";
    }
    EXPECT_EQ(q.size(), 1u);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(FlatFifo, PrependMovesAreLinear) {
  // The retransmission rewind prepends N unacked entries to a queue of L
  // live ones with no dead prefix. One bulk prepend costs O(N + L) moves;
  // a loop of front inserts would cost about N*L + N*N/2 (1.5 M here).
  constexpr int kLive = 1000;
  constexpr int kRewound = 1000;
  mu::FlatFifo<MoveCounted> q;
  for (int i = 0; i < kLive; ++i) q.emplace_back(kRewound + i);
  std::vector<MoveCounted> rewound;
  rewound.reserve(kRewound);
  for (int i = 0; i < kRewound; ++i) rewound.emplace_back(i);

  MoveCounted::moves = 0;
  q.prepend(std::make_move_iterator(rewound.begin()),
            std::make_move_iterator(rewound.end()));
  EXPECT_LE(MoveCounted::moves, 4L * (kLive + kRewound));

  ASSERT_EQ(q.size(), static_cast<std::size_t>(kLive + kRewound));
  int expect = 0;
  bool in_order = true;
  for (const MoveCounted& m : q) in_order = in_order && m.v == expect++;
  EXPECT_TRUE(in_order);
}

TEST(Check, CheckThrowsLogicError) {
  EXPECT_NO_THROW(mu::check(true));
  EXPECT_THROW(mu::check(false, "boom"), std::logic_error);
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_NO_THROW(mu::require(true));
  EXPECT_THROW(mu::require(false, "bad"), std::invalid_argument);
}

TEST(Rng, SplitMixIsDeterministic) {
  mu::SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroDeterministicPerSeed) {
  mu::Xoshiro256 a(7), b(7), c(8);
  bool all_same = true;
  for (int i = 0; i < 64; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    if (va != c()) all_same = false;
  }
  EXPECT_FALSE(all_same) << "different seeds must give different streams";
}

TEST(Rng, UniformInUnitInterval) {
  mu::Xoshiro256 rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, BelowStaysInRange) {
  mu::Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u) << "1000 draws should hit every value in [0,10)";
}

TEST(RunningStats, MeanMinMaxAndSum) {
  mu::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Histogram, BucketsAndBoundaries) {
  mu::Histogram h(0.0, 10.0, 10);
  h.add(-1.0);   // underflow
  h.add(0.0);    // bucket 0
  h.add(9.999);  // bucket 9
  h.add(10.0);   // overflow (hi is exclusive)
  h.add(5.0);    // bucket 5
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
}

TEST(Histogram, QuantileApproximation) {
  mu::Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
}

TEST(Histogram, QuantileEmptyReturnsLoForAllQ) {
  const mu::Histogram h(10.0, 20.0, 5);
  EXPECT_EQ(h.quantile(0.0), 10.0);
  EXPECT_EQ(h.quantile(0.5), 10.0);
  EXPECT_EQ(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileSingleBucketMidpointAtExtremes) {
  mu::Histogram h(0.0, 100.0, 10);
  h.add(42.0);  // lands in [40, 50): midpoint 45
  EXPECT_EQ(h.quantile(0.0), 45.0);
  EXPECT_EQ(h.quantile(0.5), 45.0);
  EXPECT_EQ(h.quantile(1.0), 45.0);
}

TEST(Histogram, QuantileUnderflowOnly) {
  mu::Histogram h(0.0, 100.0, 10);
  h.add(-5.0);
  // All mass below the range: q=0 pins to lo, and q=1 has no occupied
  // bucket or overflow to report, so it falls back to lo as well.
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(Histogram, QuantileOverflowOnly) {
  mu::Histogram h(0.0, 100.0, 10);
  h.add(250.0);
  EXPECT_EQ(h.quantile(0.0), 100.0);
  EXPECT_EQ(h.quantile(1.0), 100.0);
}

TEST(Histogram, QuantileMixedExtremesPinToBounds) {
  mu::Histogram h(0.0, 100.0, 10);
  h.add(-1.0);   // underflow
  h.add(55.0);   // in range
  h.add(300.0);  // overflow
  EXPECT_EQ(h.quantile(0.0), 0.0);    // underflow present -> lo
  EXPECT_EQ(h.quantile(1.0), 100.0);  // overflow present -> hi
  EXPECT_EQ(h.quantile(0.5), 55.0);   // midpoint of [50, 60)
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(mu::Histogram(5.0, 5.0, 10), std::invalid_argument);
  EXPECT_THROW(mu::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Table, AlignsAndFormats) {
  mu::Table t({"name", "value"});
  t.add("latency", 12.5);
  t.add("count", std::size_t{42});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("latency"), std::string::npos);
  EXPECT_NE(s.find("12.500"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, RejectsArityMismatch) {
  mu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, ScientificForExtremes) {
  EXPECT_EQ(mu::Table::format_cell(1.5e9), "1.500e+09");
  EXPECT_EQ(mu::Table::format_cell(0.0), "0.000");
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=5", "--verbose", "pos1", "--rate=2.5"};
  mu::Options o(5, argv);
  EXPECT_EQ(o.get_int("n", 0), 5);
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(o.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(o.get_or("missing", "dflt"), "dflt");
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, ParsesShortOptions) {
  const char* argv[] = {"prog", "-j4", "-x=7", "-v", "-n", "9"};
  mu::Options o(6, argv);
  EXPECT_EQ(o.get_int("j", 0), 4);   // glued value
  EXPECT_EQ(o.get_int("x", 0), 7);   // '=' separator
  EXPECT_TRUE(o.get_bool("v", false));  // bare flag
  EXPECT_EQ(o.get_int("n", 0), 9);   // space-separated value
  EXPECT_TRUE(o.positional().empty());
}

TEST(Options, ShortOptionsLeaveNegativeNumbersPositional) {
  const char* argv[] = {"prog", "-5", "-j", "-2"};
  mu::Options o(4, argv);
  // "-5" is a positional, and bare "-j" followed by "-2" stays a flag
  // (the lookahead refuses dash-leading values).
  EXPECT_TRUE(o.get_bool("j", false));
  ASSERT_EQ(o.positional().size(), 2u);
  EXPECT_EQ(o.positional()[0], "-5");
  EXPECT_EQ(o.positional()[1], "-2");
}

/// The message of the std::invalid_argument that `read` throws, or "" when
/// it throws none.
template <typename F>
std::string rejection(F&& read) {
  try {
    read();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Options, RejectsValuesThatDoNotParseInFull) {
  const char* argv[] = {"prog", "--reps=10x", "--iters=abc", "--rate=1.5e",
                        "--ondemand=ture", "-j"};
  mu::Options o(6, argv);
  const auto npos = std::string::npos;
  EXPECT_NE(rejection([&] { (void)o.get_int("reps", 1); })
                .find("--reps: '10x' is not an integer"),
            npos);
  EXPECT_NE(rejection([&] { (void)o.get_int("iters", 1); })
                .find("--iters: 'abc' is not an integer"),
            npos);
  EXPECT_NE(rejection([&] { (void)o.get_double("rate", 1.0); })
                .find("--rate: '1.5e' is not a number"),
            npos);
  EXPECT_NE(rejection([&] { (void)o.get_bool("ondemand", true); })
                .find("--ondemand: 'ture' is not a boolean"),
            npos);
  // A bare short flag holds "true", which is no worker count.
  EXPECT_NE(rejection([&] { (void)o.get_int("j", 0); })
                .find("-j: 'true' is not an integer"),
            npos);
}

TEST(Options, WellFormedValuesParseAsBefore) {
  const char* argv[] = {"prog",     "--a=-7",   "--b=+3",  "--c=1e3",
                        "--d=0.25", "--e=false", "--f=off", "--g=yes",
                        "-j", "4"};
  mu::Options o(10, argv);
  EXPECT_EQ(o.get_int("a", 0), -7);
  EXPECT_EQ(o.get_int("b", 0), 3);
  EXPECT_DOUBLE_EQ(o.get_double("c", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(o.get_double("d", 0.0), 0.25);
  EXPECT_FALSE(o.get_bool("e", true));
  EXPECT_FALSE(o.get_bool("f", true));
  EXPECT_TRUE(o.get_bool("g", false));
  EXPECT_EQ(o.get_int("j", 0), 4);
  EXPECT_EQ(o.get_int("missing", 11), 11);
}

TEST(Options, TracksUnusedKeys) {
  const char* argv[] = {"prog", "--used=1", "--typo=2"};
  mu::Options o(3, argv);
  (void)o.get_int("used", 0);
  const auto unused = o.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}
