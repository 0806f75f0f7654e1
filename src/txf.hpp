// Umbrella header: everything a txfutures application needs.
//
//   #include "txf.hpp"
//
//   txf::core::Runtime rt;
//   txf::stm::VBox<long> x(0);
//   txf::core::atomically(rt, [&](txf::core::TxCtx& ctx) {
//     auto f = ctx.submit([&](txf::core::TxCtx& c) { return x.get(c); });
//     x.put(ctx, f.get(ctx) + 1);
//   });
//
// Where to look:
//   core/config.hpp   every engine knob (scheduling modes, contention
//                     manager, chaos plans)
//   core/api.hpp      atomically / TxCtx::submit / TxFuture / retry_now
//   core/runtime.hpp  Runtime: pool + STM env + stats, one per process
//                     region of shared state
//   stm/vbox.hpp      VBox<T> and its lifetime contract (one Runtime per
//                     box, trivially-copyable payloads <= 8 bytes)
//   containers/       TxMap, TxVector, TxList, TxQueue, TxCounter
//
// docs/ARCHITECTURE.md is the module tour; DESIGN.md the algorithm spec;
// docs/OBSERVABILITY.md the metric/trace inventory.
#pragma once

#include "containers/tx_counter.hpp"
#include "containers/tx_list.hpp"
#include "containers/tx_map.hpp"
#include "containers/tx_queue.hpp"
#include "containers/tx_vector.hpp"
#include "core/api.hpp"
#include "core/config.hpp"
#include "core/runtime.hpp"
#include "stm/transaction.hpp"
#include "stm/vbox.hpp"
