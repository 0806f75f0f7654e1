// Concurrency stress and property tests for transaction trees: invariants
// under many concurrent trees, randomized tree shapes versus a sequential
// oracle (parameterized sweeps), opacity with read-only observers.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "util/failpoint.hpp"
#include "util/xoshiro.hpp"

namespace {

using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::TxCtx;
using txf::core::TxFuture;
using txf::stm::VBox;

TEST(CoreStress, CounterWithFuturesUnderConcurrency) {
  Runtime rt(Config{.pool_threads = 2});
  VBox<long> counter(0);
  constexpr int kThreads = 3;
  constexpr int kIter = 120;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIter; ++i) {
        atomically(rt, [&](TxCtx& ctx) {
          auto f = ctx.submit(
              [&](TxCtx& c) { return counter.get(c) + 1; });
          counter.put(ctx, f.get(ctx));
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.peek_committed(), static_cast<long>(kThreads) * kIter);
}

TEST(CoreStress, BankTransferInvariantWithFutures) {
  Runtime rt(Config{.pool_threads = 2});
  constexpr int kAccounts = 10;
  constexpr long kInitial = 1000;
  std::deque<VBox<long>> accounts;
  for (int i = 0; i < kAccounts; ++i) accounts.emplace_back(kInitial);

  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};
  std::thread auditor([&] {
    while (!stop.load()) {
      const long total = atomically(rt, [&](TxCtx& ctx) {
        // Audit with two parallel futures summing halves of the accounts.
        auto lo = ctx.submit([&](TxCtx& c) {
          long s = 0;
          for (int i = 0; i < kAccounts / 2; ++i) s += accounts[i].get(c);
          return s;
        });
        long hi = 0;
        for (int i = kAccounts / 2; i < kAccounts; ++i)
          hi += accounts[i].get(ctx);
        return lo.get(ctx) + hi;
      });
      if (total != kAccounts * kInitial) violations.fetch_add(1);
    }
  });

  std::vector<std::thread> movers;
  for (int m = 0; m < 2; ++m) {
    movers.emplace_back([&, m] {
      txf::util::Xoshiro256 rng(7 + m);
      for (int k = 0; k < 400; ++k) {
        const auto from = rng.next_bounded(kAccounts);
        const auto to = rng.next_bounded(kAccounts);
        if (from == to) continue;
        atomically(rt, [&](TxCtx& ctx) {
          const long amount = 1 + static_cast<long>(k % 7);
          accounts[from].put(ctx, accounts[from].get(ctx) - amount);
          accounts[to].put(ctx, accounts[to].get(ctx) + amount);
        });
      }
    });
  }
  for (auto& t : movers) t.join();
  stop.store(true);
  auditor.join();

  EXPECT_EQ(violations.load(), 0);
  long total = 0;
  for (auto& a : accounts) total += a.peek_committed();
  EXPECT_EQ(total, kAccounts * kInitial);
}

// ---------------------------------------------------------------------
// Property sweep: random programs with nested futures must produce exactly
// the state the sequential oracle produces, across seeds, both on the
// default (eager) write path and in fallback mode.
// ---------------------------------------------------------------------

struct SweepParam {
  std::uint64_t seed;
  // Fallback mode (Alg. 1's tree-private store): the core.subtxn.start
  // failpoint fails the first attempt's first future start with an
  // inter-tree conflict, so the retry runs as a fallback tree. The
  // failpoint is disarmed as that retry begins, so the fallback attempt
  // runs its futures in parallel rather than escalating to serial mode.
  bool fallback;
};

class RandomTreeProperty : public ::testing::TestWithParam<SweepParam> {};

// A small deterministic "program" built from the rng: a sequence of ops
// over kBoxes boxes with probabilistic future spawns (depth-limited).
constexpr int kBoxes = 8;

void run_ops(TxCtx& ctx, std::deque<VBox<long>>& boxes,
             txf::util::Xoshiro256 rng, int depth, int ops) {
  std::vector<TxFuture<long>> pending;
  for (int i = 0; i < ops; ++i) {
    const auto choice = rng.next_bounded(10);
    const auto b1 = rng.next_bounded(kBoxes);
    const auto b2 = rng.next_bounded(kBoxes);
    if (choice < 4) {
      boxes[b1].put(ctx, boxes[b2].get(ctx) + static_cast<long>(i) + 1);
    } else if (choice < 7) {
      boxes[b1].put(ctx, boxes[b1].get(ctx) * 3 + 1);
    } else if (depth < 2) {
      // Spawn a future running a smaller random program.
      const std::uint64_t sub_seed = rng.next();
      pending.push_back(ctx.submit([&boxes, sub_seed, depth](TxCtx& c) {
        txf::util::Xoshiro256 sub_rng(sub_seed);
        run_ops(c, boxes, sub_rng, depth + 1, 3);
        return 0L;
      }));
    } else {
      boxes[b1].put(ctx, boxes[b1].get(ctx) - 1);
    }
  }
  for (auto& f : pending) f.get(ctx);
}

// Sequential oracle: same program, futures replaced by inline calls. We get
// it by running the engine in serial mode, which by construction executes
// futures synchronously at their submit points.
TEST_P(RandomTreeProperty, MatchesSequentialOracle) {
  const SweepParam param = GetParam();

  auto run = [&](bool serial) {
    Config cfg;
    cfg.pool_threads = 2;
    const bool force_fallback = param.fallback && !serial;
    if (force_fallback) {
      cfg.chaos.add("core.subtxn.start", txf::util::fp::Action::kFail, 1);
    }
    Runtime rt(cfg);
    std::deque<VBox<long>> boxes;
    for (int i = 0; i < kBoxes; ++i) boxes.emplace_back(100 + i);
    bool ran_fallback = false;
    atomically(rt, [&](TxCtx& ctx) {
      if (serial) ctx.tree().set_serial();
      if (force_fallback && ctx.tree().in_fallback()) {
        ran_fallback = true;
        txf::util::fp::Controller::instance().disarm();
      }
      txf::util::Xoshiro256 rng(param.seed);
      run_ops(ctx, boxes, rng, 0, 10);
    });
    if (force_fallback) {
      EXPECT_GT(rt.stats().fallback_restarts.load(), 0u);
      EXPECT_TRUE(ran_fallback);
    }
    std::vector<long> out;
    for (auto& b : boxes) out.push_back(b.peek_committed());
    return out;
  };

  const std::vector<long> parallel = run(false);
  const std::vector<long> sequential = run(true);
  EXPECT_EQ(parallel, sequential)
      << "seed=" << param.seed << " fallback=" << param.fallback;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomTreeProperty,
    ::testing::Values(SweepParam{1, false}, SweepParam{2, false},
                      SweepParam{3, false}, SweepParam{4, false},
                      SweepParam{5, false}, SweepParam{6, false},
                      SweepParam{7, false}, SweepParam{8, false},
                      SweepParam{1, true}, SweepParam{2, true},
                      SweepParam{3, true}, SweepParam{4, true},
                      SweepParam{5, true}, SweepParam{6, true},
                      SweepParam{7, true}, SweepParam{8, true}));

TEST(CoreStress, ManyConcurrentTreesDisjointData) {
  // Scalability smoke: disjoint working sets never conflict.
  Runtime rt(Config{.pool_threads = 2});
  rt.stats().reset();
  constexpr int kThreads = 4;
  std::deque<VBox<long>> boxes;
  for (int i = 0; i < kThreads; ++i) boxes.emplace_back(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        atomically(rt, [&](TxCtx& ctx) {
          auto f = ctx.submit([&, t](TxCtx& c) {
            boxes[t].put(c, boxes[t].get(c) + 1);
            return 0;
          });
          f.get(ctx);
          boxes[t].put(ctx, boxes[t].get(ctx) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(boxes[t].peek_committed(), 100);
  EXPECT_EQ(rt.stats().top_aborts.load(), 0u);
  EXPECT_EQ(rt.stats().fallback_restarts.load(), 0u);
}

}  // namespace
