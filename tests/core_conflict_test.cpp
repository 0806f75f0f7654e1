// Conflict handling: future re-execution, continuation conflicts with a
// whole-tree restart, inter-tree write-write conflicts (eager lock +
// fallback), and top-level validation conflicts between trees.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "util/failpoint.hpp"

namespace {

using txf::core::atomically;
using txf::core::Config;
using txf::core::Runtime;
using txf::core::TxCtx;
using txf::stm::VBox;

TEST(Conflict, FutureMissingPredecessorWriteReexecutes) {
  // f2 reads what f1 wrote; f2 is serialized after f1 but may run first.
  // Force that race: f2 runs to completion before f1 commits, so f2 must
  // be re-executed (not the whole tree).
  Runtime rt(Config{.pool_threads = 2});
  rt.stats().reset();
  VBox<int> x(1);
  std::atomic<bool> f2_done{false};
  const int result = atomically(rt, [&](TxCtx& ctx) {
    auto f1 = ctx.submit([&](TxCtx& c) {
      // Wait until f2 finished executing once with the stale value.
      int spins = 0;
      while (!f2_done.load(std::memory_order_acquire) && spins++ < 100000)
        std::this_thread::yield();
      x.put(c, 10);
      return 0;
    });
    auto f2 = ctx.submit([&](TxCtx& c) {
      const int v = x.get(c);
      f2_done.store(true, std::memory_order_release);
      return v * 2;
    });
    f1.get(ctx);
    return f2.get(ctx);
  });
  // Strong ordering: f2 sees f1's write no matter the physical schedule.
  EXPECT_EQ(result, 20);
  EXPECT_EQ(x.peek_committed(), 10);
  EXPECT_GE(rt.stats().future_reexecutions.load() +
                rt.stats().tree_restarts.load() +
                rt.stats().serial_fallbacks.load(),
            1u);
}

TEST(Conflict, ContinuationMissReRunsToSequentialResult) {
  // The continuation reads x before its future writes it: intra-tree
  // conflict on the continuation -> tree restart (no FCC) -> eventually the
  // sequential result.
  Runtime rt(Config{.pool_threads = 2});
  rt.stats().reset();
  VBox<int> x(0);
  std::atomic<int> executions{0};
  const int seen = atomically(rt, [&](TxCtx& ctx) {
    executions.fetch_add(1);
    auto f = ctx.submit([&](TxCtx& c) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      x.put(c, 42);
      return 0;
    });
    const int v = x.get(ctx);  // races ahead of the future
    f.get(ctx);
    return v;
  });
  // Sequential semantics: the continuation's read follows the future.
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(x.peek_committed(), 42);
  EXPECT_GT(executions.load(), 1);  // at least one restart happened
}

TEST(Conflict, InterTreeWriteWriteEagerlyDetected) {
  // Two trees write the same box from sub-transactions; the second one to
  // arrive finds the tentative head locked and restarts in fallback mode.
  Runtime rt(Config{.pool_threads = 2});
  rt.stats().reset();
  VBox<int> hot(0);
  std::barrier sync(2);
  auto worker = [&](int id) {
    atomically(rt, [&](TxCtx& ctx) {
      auto f = ctx.submit([&, id](TxCtx& c) {
        // Rendezvous first (only on the eager attempt), then race to take
        // the tentative-head lock; the loser restarts in fallback mode and
        // skips the barrier.
        if (!c.tree().in_fallback()) sync.arrive_and_wait();
        hot.put(c, id);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return 0;
      });
      f.get(ctx);
    });
  };
  std::thread t1(worker, 1);
  std::thread t2(worker, 2);
  t1.join();
  t2.join();
  // Both eventually commit; a loser (if the race materialized) went
  // through the fallback path.
  EXPECT_EQ(rt.stats().top_commits.load(), 2u);
  const int final_val = hot.peek_committed();
  EXPECT_TRUE(final_val == 1 || final_val == 2);
}

TEST(Conflict, FallbackModeCommitsBothBlindWriters) {
  // The core.subtxn.start failpoint fails each tree's first future start
  // with an inter-tree conflict, so both trees restart in fallback mode
  // (Alg. 1). There every sub-transaction write goes to the tree-private
  // store and takes no box lock, so two blind writers of one box both
  // commit without a further restart.
  Config cfg;
  cfg.pool_threads = 2;
  cfg.scheduling = txf::core::SchedulingMode::kAlwaysParallel;
  cfg.chaos.add("core.subtxn.start", txf::util::fp::Action::kFail, 1);
  Runtime rt(cfg);
  rt.stats().reset();
  VBox<int> hot(0);
  std::atomic<int> fallback_commits{0};
  auto worker = [&](int id) {
    atomically(rt, [&](TxCtx& ctx) {
      const bool fallback = ctx.tree().in_fallback();
      if (fallback) {
        // Disarm only once both trees have taken the forced restart.
        for (int spins = 0; rt.stats().fallback_restarts.load() < 2 &&
                            spins < 2000000;
             ++spins) {
          std::this_thread::yield();
        }
        txf::util::fp::Controller::instance().disarm();
      }
      auto f = ctx.submit([&, id](TxCtx& c) {
        hot.put(c, id);
        return 0;
      });
      f.get(ctx);
      if (fallback) fallback_commits.fetch_add(1);
    });
  };
  std::thread t1(worker, 1);
  std::thread t2(worker, 2);
  t1.join();
  t2.join();
  const int v = hot.peek_committed();
  EXPECT_TRUE(v == 1 || v == 2);
  EXPECT_EQ(rt.stats().top_commits.load(), 2u);
  EXPECT_EQ(rt.stats().fallback_restarts.load(), 2u);
  EXPECT_EQ(fallback_commits.load(), 2);
  EXPECT_EQ(rt.stats().serial_fallbacks.load(), 0u);
}

TEST(Conflict, NestedContinuationMissReRunsToSequentialResult) {
  // The mid-level continuation may read x before its nested future writes
  // it; strong ordering still demands it sees the write.
  Runtime rt(Config{.pool_threads = 2});
  VBox<int> x(0);
  const int v = atomically(rt, [&](TxCtx& ctx) {
    auto outer = ctx.submit([&](TxCtx& mid) {
      auto inner = mid.submit([&](TxCtx& in) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        x.put(in, 5);
        return 0;
      });
      const int seen = x.get(mid);  // may race ahead of `inner`
      inner.get(mid);
      return seen;
    });
    return outer.get(ctx);
  });
  EXPECT_EQ(v, 5);
  EXPECT_EQ(x.peek_committed(), 5);
}

TEST(Conflict, ConcurrentTreesWithContinuationConflicts) {
  // Each continuation reads the box its own future increments (an
  // intra-tree conflict), while two trees race on that same box.
  Runtime rt(Config{.pool_threads = 2});
  VBox<long> counter(0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        atomically(rt, [&](TxCtx& ctx) {
          auto f = ctx.submit([&](TxCtx& c) {
            counter.put(c, counter.get(c) + 1);
            return 0;
          });
          (void)counter.get(ctx);  // likely conflicts with own future
          f.get(ctx);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.peek_committed(), 80);
}

TEST(Conflict, TopLevelReadWriteConflictRetries) {
  // Tree A reads x (in a future), tree B commits a new x before A's top
  // commit: A must abort at the commit queue and retry.
  Runtime rt(Config{.pool_threads = 2});
  rt.stats().reset();
  VBox<int> x(0);
  VBox<int> y(0);
  std::atomic<bool> a_read{false};
  std::atomic<bool> b_committed{false};

  std::thread b([&] {
    while (!a_read.load(std::memory_order_acquire)) std::this_thread::yield();
    atomically(rt, [&](TxCtx& ctx) { x.put(ctx, 99); });
    b_committed.store(true, std::memory_order_release);
  });

  atomically(rt, [&](TxCtx& ctx) {
    auto f = ctx.submit([&](TxCtx& c) {
      const int v = x.get(c);
      a_read.store(true, std::memory_order_release);
      // Stall until B committed so our top-level validation must fail the
      // first time around.
      int spins = 0;
      while (!b_committed.load(std::memory_order_acquire) &&
             spins++ < 1000000)
        std::this_thread::yield();
      return v;
    });
    y.put(ctx, f.get(ctx) + 1);
  });
  b.join();
  EXPECT_GE(rt.stats().top_aborts.load(), 1u);
  // After retry, A read the committed 99.
  EXPECT_EQ(y.peek_committed(), 100);
}

TEST(Conflict, CascadeAbortDiscardsFutureWrites) {
  // A tree that aborts at top level must leave no trace of its futures'
  // writes.
  Runtime rt(Config{.pool_threads = 2});
  VBox<int> x(0);
  VBox<int> observed(0);
  std::atomic<bool> first_attempt{true};
  std::atomic<bool> reader_done{false};

  std::thread noise([&] {
    // Wait for A's future to have written tentatively, then commit a
    // conflicting x to force A's top-level abort.
    while (!reader_done.load(std::memory_order_acquire))
      std::this_thread::yield();
    atomically(rt, [&](TxCtx& ctx) { x.put(ctx, 7); });
  });

  atomically(rt, [&](TxCtx& ctx) {
    auto f = ctx.submit([&](TxCtx& c) {
      const int v = x.get(c);
      observed.put(c, v + 1);  // tentative write, discarded on abort
      if (first_attempt.exchange(false)) {
        reader_done.store(true, std::memory_order_release);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      return v;
    });
    f.get(ctx);
  });
  noise.join();
  // Final state is consistent with some serial order; the key property is
  // the tentative write from the aborted attempt never leaked a stale +1.
  const int xv = x.peek_committed();
  const int ov = observed.peek_committed();
  EXPECT_TRUE(ov == xv + 1 || (ov == 1 && xv == 7) || ov == 0)
      << "x=" << xv << " observed=" << ov;
}

}  // namespace
