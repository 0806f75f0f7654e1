// Parameterized consistency sweeps: the Vacation and TPC-C workloads must
// pass their audits on the default engine and in fallback mode (Alg. 1's
// tree-private store), across futures fan-out and concurrency.
#include <gtest/gtest.h>

#include <thread>

#include "util/failpoint.hpp"
#include "workloads/tpcc/tpcc.hpp"
#include "workloads/vacation/vacation.hpp"

namespace {

using txf::core::Config;
using txf::core::Runtime;
using txf::core::SchedulingMode;
using txf::util::Xoshiro256;
namespace vac = txf::workloads::vacation;
namespace tpcc = txf::workloads::tpcc;

struct EngineParam {
  // Drive trees into fallback mode: the core.subtxn.start failpoint fires
  // on every 5th future start, which fails the tree with an inter-tree
  // conflict, and the retry re-runs it with all sub-transaction writes in
  // the tree-private store. Futures always run in parallel there, so their
  // writes really go through that store instead of the root write set.
  bool fallback;
  std::size_t jobs;
};

std::string param_name(const ::testing::TestParamInfo<EngineParam>& info) {
  const EngineParam& p = info.param;
  return std::string(p.fallback ? "Fallback" : "Default") + "J" +
         std::to_string(p.jobs);
}

Config make_config(const EngineParam& p) {
  Config cfg;
  cfg.pool_threads = 3;
  if (p.fallback) {
    cfg.scheduling = SchedulingMode::kAlwaysParallel;
    cfg.chaos.add("core.subtxn.start", txf::util::fp::Action::kFail, 5);
  }
  return cfg;
}

// Fallback rows must actually have restarted trees in fallback mode.
void expect_fallback_exercised(Runtime& rt, const EngineParam& p) {
  if (p.fallback) EXPECT_GT(rt.stats().fallback_restarts.load(), 0u);
}

class EngineSweep : public ::testing::TestWithParam<EngineParam> {};

class VacationSweep : public EngineSweep {};

TEST_P(VacationSweep, ConcurrentMixPassesAudit) {
  Runtime rt(make_config(GetParam()));
  vac::VacationParams p;
  p.relations = 128;
  p.customers = 64;
  p.query_window = 24;
  p.jobs = GetParam().jobs;
  vac::VacationDB db(p);
  Xoshiro256 seed(1);
  db.populate(rt, seed);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(30 + t);
      for (int i = 0; i < 15; ++i) {
        const auto roll = rng.next_bounded(10);
        if (roll < 8) {
          db.make_reservation(rt, rng);
        } else if (roll < 9) {
          db.delete_customer(rt, rng);
        } else {
          db.update_tables(rt, rng);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(db.audit(rt));
  expect_fallback_exercised(rt, GetParam());
}

class TpccSweep : public EngineSweep {};

TEST_P(TpccSweep, ConcurrentMixPassesAudit) {
  Runtime rt(make_config(GetParam()));
  tpcc::TpccParams p;
  p.customers_per_district = 16;
  p.items = 128;
  p.jobs = GetParam().jobs;
  p.analytics_pct = 20;
  tpcc::TpccDB db(p);
  Xoshiro256 seed(2);
  db.populate(rt, seed);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(60 + t);
      for (int i = 0; i < 15; ++i) db.run_mix(rt, rng);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(db.audit(rt));
  expect_fallback_exercised(rt, GetParam());
}

const EngineParam kParams[] = {
    {false, 1},
    {false, 3},
    {true, 3},  // jobs=1 runs no futures, so it cannot reach fallback mode
};

INSTANTIATE_TEST_SUITE_P(Engine, VacationSweep, ::testing::ValuesIn(kParams),
                         param_name);
INSTANTIATE_TEST_SUITE_P(Engine, TpccSweep, ::testing::ValuesIn(kParams),
                         param_name);

}  // namespace
