// Unit and property tests for the flow-control state machines, in
// isolation from the MPI device.
#include <gtest/gtest.h>

#include "flowctl/flowctl.hpp"
#include "util/rng.hpp"

using namespace mvflow::flowctl;

TEST(FlowctlScheme, ParseAndPrintRoundTrip) {
  for (Scheme s : {Scheme::hardware, Scheme::user_static, Scheme::user_dynamic}) {
    const auto parsed = parse_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_scheme("bogus").has_value());
  EXPECT_EQ(parse_scheme("hw"), Scheme::hardware);
}

TEST(FlowctlConfig, RejectsBadValues) {
  Config cfg;
  cfg.prepost = 0;
  EXPECT_THROW(ConnectionFlow{cfg}, std::invalid_argument);
  cfg = Config{};
  cfg.max_prepost = cfg.prepost - 1;
  EXPECT_THROW(ConnectionFlow{cfg}, std::invalid_argument);
}

TEST(FlowctlStatic, CreditsStartAtPrepost) {
  Config cfg;
  cfg.scheme = Scheme::user_static;
  cfg.prepost = 7;
  ConnectionFlow f(cfg);
  EXPECT_EQ(f.credits(), 7);
  EXPECT_EQ(f.current_posted(), 7);
  EXPECT_EQ(f.initial_posted(), 7);
}

TEST(FlowctlStatic, AcquireExhaustsThenFails) {
  Config cfg;
  cfg.prepost = 3;
  ConnectionFlow f(cfg);
  EXPECT_TRUE(f.try_acquire_credit());
  EXPECT_TRUE(f.try_acquire_credit());
  EXPECT_TRUE(f.try_acquire_credit());
  EXPECT_EQ(f.credits(), 0);
  EXPECT_FALSE(f.try_acquire_credit());
  EXPECT_EQ(f.counters().credited_sent, 3u);
  f.add_credits(2);
  EXPECT_TRUE(f.try_acquire_credit());
  EXPECT_EQ(f.credits(), 1);
}

TEST(FlowctlHardware, NeverBlocksAndKeepsNoState) {
  Config cfg;
  cfg.scheme = Scheme::hardware;
  cfg.prepost = 1;
  ConnectionFlow f(cfg);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(f.try_acquire_credit());
  EXPECT_EQ(f.credits(), 1) << "hardware scheme consumes no credits";
  EXPECT_FALSE(f.on_credited_repost()) << "hardware scheme never sends ECMs";
  EXPECT_EQ(f.take_return_credits(), 0);
  EXPECT_EQ(f.on_backlogged_flag(), 0);
  EXPECT_EQ(f.counters().credited_sent, 1000u);
}

TEST(FlowctlStatic, EcmThresholdSuppressesUntilReached) {
  Config cfg;
  cfg.prepost = 10;
  cfg.ecm_threshold = 5;
  ConnectionFlow f(cfg);
  EXPECT_FALSE(f.on_credited_repost());  // 1
  EXPECT_FALSE(f.on_credited_repost());  // 2
  EXPECT_FALSE(f.on_credited_repost());  // 3
  EXPECT_FALSE(f.on_credited_repost());  // 4
  EXPECT_TRUE(f.on_credited_repost());   // 5 -> fire
  EXPECT_EQ(f.take_return_credits(), 5);
  EXPECT_EQ(f.pending_return_credits(), 0);
}

TEST(FlowctlStatic, PiggybackDrainsAccumulatorBeforeThreshold) {
  Config cfg;
  cfg.prepost = 10;
  cfg.ecm_threshold = 5;
  ConnectionFlow f(cfg);
  f.on_credited_repost();
  f.on_credited_repost();
  EXPECT_EQ(f.take_return_credits(), 2);  // an outgoing message carries them
  EXPECT_FALSE(f.on_credited_repost()) << "accumulator restarted";
}

TEST(FlowctlStatic, EffectiveThresholdCappedByPoolSize) {
  // With a pool of 1 and threshold 5, a strict threshold would suppress
  // credit return forever and deadlock a one-way pattern.
  Config cfg;
  cfg.prepost = 1;
  cfg.ecm_threshold = 5;
  ConnectionFlow f(cfg);
  EXPECT_TRUE(f.on_credited_repost()) << "must fire at pool size";
  EXPECT_EQ(f.take_return_credits(), 1);
}

TEST(FlowctlDynamic, GrowsLinearlyOnBacklogFlag) {
  Config cfg;
  cfg.scheme = Scheme::user_dynamic;
  cfg.prepost = 1;
  cfg.growth_step = 2;
  ConnectionFlow f(cfg);
  EXPECT_EQ(f.current_posted(), 1);
  EXPECT_EQ(f.on_backlogged_flag(), 2);
  EXPECT_EQ(f.current_posted(), 3);
  EXPECT_EQ(f.on_backlogged_flag(), 2);
  EXPECT_EQ(f.current_posted(), 5);
  EXPECT_EQ(f.counters().growth_events, 2u);
  EXPECT_EQ(f.counters().max_posted, 5);
  // New buffers become returnable credits immediately.
  EXPECT_EQ(f.pending_return_credits(), 4);
}

TEST(FlowctlDynamic, ExponentialGrowthDoubles) {
  Config cfg;
  cfg.scheme = Scheme::user_dynamic;
  cfg.prepost = 2;
  cfg.exponential_growth = true;
  ConnectionFlow f(cfg);
  EXPECT_EQ(f.on_backlogged_flag(), 2);  // 2 -> 4
  EXPECT_EQ(f.on_backlogged_flag(), 4);  // 4 -> 8
  EXPECT_EQ(f.current_posted(), 8);
}

TEST(FlowctlDynamic, GrowthStopsAtCap) {
  Config cfg;
  cfg.scheme = Scheme::user_dynamic;
  cfg.prepost = 1;
  cfg.growth_step = 4;
  cfg.max_prepost = 6;
  ConnectionFlow f(cfg);
  EXPECT_EQ(f.on_backlogged_flag(), 4);  // 1 -> 5
  EXPECT_EQ(f.on_backlogged_flag(), 1);  // clipped: 5 -> 6
  EXPECT_EQ(f.on_backlogged_flag(), 0);  // at cap
  EXPECT_EQ(f.current_posted(), 6);
}

TEST(FlowctlStatic, StaticNeverGrows) {
  Config cfg;
  cfg.scheme = Scheme::user_static;
  cfg.prepost = 4;
  ConnectionFlow f(cfg);
  EXPECT_EQ(f.on_backlogged_flag(), 0);
  EXPECT_EQ(f.current_posted(), 4);
  EXPECT_EQ(f.counters().max_posted, 4);
}

// Property: under any interleaving of sends, reposts, piggyback transfers
// and growth, credits are conserved:
//   sender credits + in-flight credited + receiver accumulated == pool size.
TEST(FlowctlProperty, CreditConservationUnderRandomTraffic) {
  mvflow::util::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    Config cfg;
    cfg.scheme = (trial % 2 == 0) ? Scheme::user_static : Scheme::user_dynamic;
    cfg.prepost = 1 + static_cast<int>(rng.below(16));
    cfg.ecm_threshold = 1 + static_cast<int>(rng.below(8));
    cfg.growth_step = 1 + static_cast<int>(rng.below(4));
    ConnectionFlow sender(cfg);   // sender role toward peer
    ConnectionFlow receiver(cfg); // receiver role at peer
    int in_flight = 0;   // credited messages sent, not yet processed
    int in_transit = 0;  // credits taken from receiver, not yet delivered

    auto invariant = [&] {
      return sender.credits() + in_flight + in_transit +
                 receiver.pending_return_credits() ==
             receiver.current_posted();
    };
    ASSERT_TRUE(invariant());

    for (int step = 0; step < 2000; ++step) {
      switch (rng.below(4)) {
        case 0:  // try to send a credited message
          if (sender.try_acquire_credit()) ++in_flight;
          break;
        case 1:  // receiver processes + reposts one message
          if (in_flight > 0) {
            --in_flight;
            receiver.on_credited_repost();
          }
          break;
        case 2: {  // credits travel back (piggyback or ECM)
          const int c = receiver.take_return_credits();
          in_transit += c;
          break;
        }
        case 3:  // credit message arrives at sender
          if (in_transit > 0) {
            sender.add_credits(in_transit);
            in_transit = 0;
          }
          break;
      }
      // Occasionally the dynamic receiver grows.
      if (cfg.scheme == Scheme::user_dynamic && rng.below(37) == 0) {
        receiver.on_backlogged_flag();
      }
      ASSERT_TRUE(invariant()) << "trial " << trial << " step " << step;
    }
  }
}
