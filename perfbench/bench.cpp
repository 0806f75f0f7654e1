// perfbench — the repository benchmark: one process per run, three
// workloads driven only through the library's public functions.
//
//   vacation  closed loop, STAMP Vacation profile calls (paper Fig. 6a-c)
//   tpcc      closed loop, TPC-C profile calls drawn with run_mix's weights
//             (paper Fig. 6d-f)
//   kv_open   open loop through server::Server::run, a steady phase at
//             about 40% of capacity and an overload phase at about 2x
//
// Layers are measured from outside: each public call is timed, and the
// process-wide metrics registry is framed (snapshot_json, parsed by
// derive.hpp) around the measured windows. Nothing inside src/ is
// instrumented for the benchmark.
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1 the
// measured window alternates untraced and traced slices: traced slices
// record one span per public call (kept in memory, written to --trace-out
// at exit) and the per-layer metrics come from them and from the registry
// frames taken at the slice boundaries; the untraced slices give the
// reference for obs.trace_overhead_share.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "core/runtime.hpp"
#include "derive.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"
#include "util/timing.hpp"
#include "util/xoshiro.hpp"
#include "workloads/tpcc/tpcc.hpp"
#include "workloads/vacation/vacation.hpp"

namespace {

using namespace txf;
using perfbench::Frame;
using perfbench::Ratio;

// ---- fixed benchmark shape (see NOTES.md for the reasons) ---------------

constexpr std::size_t kClients = 2;        // closed-loop client threads
constexpr std::size_t kPoolThreads = 2;    // Runtime future pool
constexpr int kEpochs = 3;                 // fresh Runtime + database each
constexpr int kSetupsPerEpoch = 10;        // setup_s is the median of all
constexpr double kWarmupS = 1.0;           // per epoch, before measuring
constexpr double kSliceS = 1.0;            // nominal measured slice length
constexpr std::uint64_t kSloNs = 10'000'000;  // p99 <= 10 ms

constexpr double kKvSteadyRate = 80'000.0;     // ~40% of capacity
constexpr double kKvOverloadRate = 400'000.0;  // ~2x capacity
constexpr double kKvWarmupS = 1.0;
constexpr int kKvSteadyRuns = 5;
constexpr int kKvOverloadRuns = 3;
constexpr int kKvSamplePeriodMs = 50;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "vacation|tpcc|kv_open --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (flag == "--trace-out") {
        o.trace_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (o.workload != "vacation" && o.workload != "tpcc" &&
      o.workload != "kv_open")
    usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds >= 1.0 && o.seconds <= 60.0))
    usage("--seconds must be in [1, 60]");
  return o;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL + stream);
  return sm.next();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Frame frame_now() {
  return perfbench::parse_frame(metrics::snapshot_json());
}

double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // base / sample count, printed on the text line only
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ratio_note(const Ratio& r) {
  return "(" + fmt(r.num) + "/" + fmt(r.den) + ")";
}

class Checks {
 public:
  /// `output` checks decide the JSON `correct` field; every failed check
  /// counts in check_failures.
  void add(const std::string& name, bool ok, const std::string& detail,
           bool output) {
    std::printf("check %s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
                detail.empty() ? "" : ": ", detail.c_str());
    if (ok) return;
    ++failures_;
    if (output) output_ok_ = false;
  }
  int failures() const { return failures_; }
  bool output_ok() const { return output_ok_; }

 private:
  int failures_ = 0;
  bool output_ok_ = true;
};

// ---- spans (traced runs only) ----------------------------------------------

struct SpanRec {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint32_t name;
  std::uint32_t tid;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// In-memory span store: one log and one id sequence per thread (index 0 =
/// main thread), so a client records a span with a push_back and no
/// synchronisation. Only the main thread interns names; a kv_open sampler
/// thread only appends frames.
class Tracer {
 public:
  static constexpr unsigned kTidBits = 4;

  explicit Tracer(std::size_t threads)
      : logs_(threads + 1), seq_(threads + 1, 0) {
    if (threads + 1 > (std::size_t{1} << kTidBits))
      throw std::invalid_argument("Tracer: too many threads");
  }

  std::uint32_t intern(const std::string& name) {
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end())
      return static_cast<std::uint32_t>(it - names_.begin());
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  /// Unique across threads: the thread index in the low bits.
  std::uint64_t next_id(std::uint32_t tid) {
    return (++seq_[tid] << kTidBits) | tid;
  }
  std::vector<SpanRec>& log(std::uint32_t tid) { return logs_[tid]; }
  const std::vector<std::vector<SpanRec>>& logs() const { return logs_; }

  void frame(const std::string& label, const Frame& f) {
    frames_.push_back({label, util::now_ns(), f});
  }

  /// Writes every span as [id, parent, name index, thread, start_ns, dur_ns]
  /// (start relative to the earliest record) and the registry frames taken
  /// at the same boundaries — compact, since a 30 s TPC-C run records about
  /// a million spans.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write trace to %s\n",
                   path.c_str());
      return;
    }
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const auto& log : logs_)
      for (const SpanRec& s : log) t0 = std::min(t0, s.start_ns);
    for (const auto& f : frames_) t0 = std::min(t0, f.t_ns);
    out << "{\"columns\": [\"id\", \"parent\", \"name\", \"tid\", "
           "\"start_ns\", \"dur_ns\"],\n\"names\": [";
    for (std::size_t i = 0; i < names_.size(); ++i)
      out << (i ? ", " : "") << "\"" << names_[i] << "\"";
    out << "],\n\"spans\": [";
    bool first = true;
    for (const auto& log : logs_) {
      for (const SpanRec& s : log) {
        out << (first ? "\n[" : ",\n[") << s.id << "," << s.parent << ","
            << s.name << "," << s.tid << "," << s.start_ns - t0 << ","
            << s.end_ns - s.start_ns << "]";
        first = false;
      }
    }
    out << "\n],\n\"frames\": [";
    first = true;
    for (const auto& f : frames_) {
      out << (first ? "" : ",") << "\n{\"label\": \"" << f.label
          << "\", \"t_ns\": " << f.t_ns - t0 << ", \"metrics\": {";
      bool mfirst = true;
      for (const auto& [n, m] : f.frame) {
        out << (mfirst ? "" : ", ") << "\"" << n << "\": " << m.value;
        mfirst = false;
      }
      out << "}}";
      first = false;
    }
    out << "\n]}\n";
  }

 private:
  struct FrameRec {
    std::string label;
    std::uint64_t t_ns;
    Frame frame;
  };
  std::vector<std::string> names_;
  std::vector<std::vector<SpanRec>> logs_;
  std::vector<std::uint64_t> seq_;
  std::vector<FrameRec> frames_;
};

/// Signals and joins a set of threads when it goes out of scope, so an
/// exception on the main thread never destroys a joinable std::thread.
class Joiner {
 public:
  Joiner(std::vector<std::thread>& threads, std::function<void()> stop)
      : threads_(threads), stop_(std::move(stop)) {}
  ~Joiner() { join(); }
  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

  void join() {
    stop_();
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }

 private:
  std::vector<std::thread>& threads_;
  std::function<void()> stop_;
};

/// Times `fn` and, when a tracer is given, records it as a span.
template <typename Fn>
std::uint64_t timed_span(Tracer* tr, const std::string& name,
                         std::uint64_t parent, Fn&& fn,
                         std::uint64_t* id_out = nullptr) {
  const std::uint64_t id = tr ? tr->next_id(0) : 0;
  if (id_out) *id_out = id;
  const std::uint64_t t0 = util::now_ns();
  fn();
  const std::uint64_t t1 = util::now_ns();
  if (tr) tr->log(0).push_back({id, parent, tr->intern(name), 0, t0, t1});
  return t1 - t0;
}

// ---- per-layer metrics from a registry delta --------------------------------

std::vector<Metric> engine_layer_metrics(const Frame& d, const Frame& end,
                                         double client_thread_ns) {
  using perfbench::count_of;
  std::vector<Metric> out;
  auto ratio = [&](const std::string& name, Ratio r, const std::string& unit,
                   double scale = 1.0) {
    out.push_back({name, r.value() * scale, unit, ratio_note(r)});
  };
  const double commits = count_of(d, "tx.commits");
  const double aborts = count_of(d, "tx.attempt_aborts");

  // core
  ratio("core.attempts_per_commit", {commits + aborts, commits}, "ratio");
  for (const char* cause :
       {"read_validation", "write_write", "tree_order", "deadline"}) {
    ratio(std::string("core.abort.") + cause + "_per_kcommit",
          {count_of(d, std::string("tx.abort.cause.") + cause), commits},
          "1/kcommit", 1000.0);
  }
  ratio("core.cm.backoff_share",
        {count_of(d, "cm.backoff_ns"), client_thread_ns}, "ratio");
  ratio("core.cm.serial_fallbacks_per_kcommit",
        {count_of(d, "cm.serial_irrevocable"), commits}, "1/kcommit", 1000.0);
  const double futures = count_of(d, "core.futures_submitted");
  ratio("core.futures_per_commit", {futures, commits}, "ratio");
  const double par = count_of(d, "core.adaptive.parallel_decisions");
  const double inl = count_of(d, "core.adaptive.inline_decisions");
  const double ord = count_of(d, "core.adaptive.ordered_decisions");
  const double decisions = par + inl + ord;
  ratio("core.adaptive.parallel_share", {par, decisions}, "ratio");
  ratio("core.adaptive.inline_share", {inl, decisions}, "ratio");
  ratio("core.adaptive.ordered_share", {ord, decisions}, "ratio");
  ratio("core.adaptive.probes_per_kfuture",
        {count_of(d, "core.adaptive.probes"), futures}, "1/kfuture", 1000.0);
  ratio("core.future_reexec_share",
        {count_of(d, "core.future_reexecutions"), futures}, "ratio");

  // stm
  const double hits = count_of(d, "stm.read.home_hits");
  const double walks = count_of(d, "stm.read.list_walks");
  ratio("stm.read.reads_per_commit", {hits + walks, commits}, "ratio");
  ratio("stm.read.home_hit_share", {hits, hits + walks}, "ratio");
  ratio("stm.read.walk_steps_per_walk",
        {count_of(d, "stm.read.walk_steps"), walks}, "ratio");
  const double single = count_of(d, "stm.commit.committed");
  const double multi = count_of(d, "stm.shard.multi_commits");
  const double multi_aborts = count_of(d, "stm.shard.multi_aborts");
  ratio("stm.commit.single_stripe_share", {single, single + multi}, "ratio");
  ratio("stm.shard.footprint_mean",
        perfbench::hist_mean(d, "stm.shard.multi_footprint"), "stripes");
  ratio("stm.shard.multi_abort_share", {multi_aborts, multi + multi_aborts},
        "ratio");
  ratio("stm.commit.prevalidation_shed_share",
        {count_of(d, "stm.commit.prevalidation_sheds"),
         single + count_of(d, "stm.commit.aborted")},
        "ratio");
  ratio("stm.commit.batch_size_mean",
        {count_of(d, "stm.commit.batched_requests"),
         count_of(d, "stm.commit.batches")},
        "requests");
  ratio("stm.commit.dwell_us_mean",
        {count_of(d, "stm.commit.dwell_ns"),
         count_of(d, "stm.commit.dwell_samples")},
        "us", 1e-3);
  for (const char* stage : {"prevalidate", "assign", "writeback"}) {
    const perfbench::Percentile p = perfbench::hist_quantile(
        d, std::string("stm.commit.stage.") + stage + "_ns", 0.5);
    out.push_back({std::string("stm.commit.stage.") + stage + "_p50_ns",
                   p.value, "ns", "n=" + std::to_string(p.n)});
  }

  // containers
  const double scans = count_of(d, "core.btree.scans");
  ratio("containers.btree.scans_per_kcommit", {scans, commits}, "1/kcommit",
        1000.0);
  ratio("containers.btree.splits_per_kcommit",
        {count_of(d, "core.btree.splits"), commits}, "1/kcommit", 1000.0);
  ratio("containers.btree.scan_split_share",
        {count_of(d, "core.btree.scan.splits"), scans}, "ratio");
  ratio("containers.btree.leaf_flush_mean",
        perfbench::hist_mean(d, "core.btree.leaf_flush.size"), "ops");
  out.push_back({"containers.btree.nodes_live",
                 count_of(end, "core.btree.nodes_live"), "count", "at end"});

  // sched
  const double tasks = count_of(d, "sched.executed");
  ratio("sched.tasks_per_commit", {tasks, commits}, "ratio");
  ratio("sched.steal_share", {count_of(d, "sched.steals"), tasks}, "ratio");
  ratio("sched.parks_per_ktask", {count_of(d, "sched.parks"), tasks}, "1/ktask",
        1000.0);
  return out;
}

// ---- closed-loop workloads ---------------------------------------------

/// One closed-loop workload: a Runtime, its database, and the profile calls
/// a client draws from.
class ClosedWorkload {
 public:
  virtual ~ClosedWorkload() = default;
  virtual const std::vector<std::string>& profiles() const = 0;
  virtual std::string params() const = 0;
  virtual void make_runtime() = 0;
  virtual void populate(util::Xoshiro256& rng) = 0;
  /// Destroys the database, then the Runtime (VBox <-> StmEnv lifetime).
  virtual void teardown() = 0;
  virtual int pick(util::Xoshiro256& rng) const = 0;
  virtual void call(int profile, util::Xoshiro256& rng) = 0;
  virtual core::Runtime& runtime() = 0;
  virtual void check(util::Xoshiro256& rng, Checks& checks) = 0;
};

core::Config engine_config() {
  core::Config cfg;  // the program's defaults, sized to the host
  cfg.pool_threads = kPoolThreads;
  return cfg;
}

/// The Runtime and database lifetime both closed-loop workloads share.
template <typename DB, typename Params>
class DbWorkload : public ClosedWorkload {
 public:
  void make_runtime() override {
    rt_ = std::make_unique<core::Runtime>(engine_config());
  }
  void populate(util::Xoshiro256& rng) override {
    db_ = std::make_unique<DB>(p_);
    db_->populate(*rt_, rng);
  }
  void teardown() override {
    db_.reset();
    rt_.reset();
  }
  core::Runtime& runtime() override { return *rt_; }

 protected:
  Params p_;
  std::unique_ptr<core::Runtime> rt_;
  std::unique_ptr<DB> db_;
};

class VacationWorkload final
    : public DbWorkload<workloads::vacation::VacationDB,
                        workloads::vacation::VacationParams> {
 public:
  VacationWorkload() {
    p_.relations = 2048;
    p_.customers = 1024;
    p_.query_window = 128;
    p_.jobs = 2;
  }
  const std::vector<std::string>& profiles() const override { return names_; }
  std::string params() const override {
    return "relations=" + std::to_string(p_.relations) +
           " customers=" + std::to_string(p_.customers) +
           " query_window=" + std::to_string(p_.query_window) +
           " jobs=" + std::to_string(p_.jobs) +
           " update_ops=" + std::to_string(p_.update_ops) +
           " mix=80/10/10 clients=2 pool_threads=2";
  }
  int pick(util::Xoshiro256& rng) const override {
    const auto r = rng.next_bounded(100);
    return r < 80 ? 0 : r < 90 ? 1 : 2;
  }
  void call(int profile, util::Xoshiro256& rng) override {
    switch (profile) {
      case 0: db_->make_reservation(*rt_, rng); break;
      case 1: db_->delete_customer(*rt_, rng); break;
      default: db_->update_tables(*rt_, rng); break;
    }
  }
  void check(util::Xoshiro256&, Checks& checks) override {
    checks.add("vacation.audit", db_->audit(*rt_),
               "used <= total and every holding refers to a live item", true);
  }

 private:
  std::vector<std::string> names_{"make_reservation", "delete_customer",
                                  "update_tables"};
};

class TpccWorkload final
    : public DbWorkload<workloads::tpcc::TpccDB, workloads::tpcc::TpccParams> {
 public:
  TpccWorkload() {
    p_.warehouses = 1;
    p_.customers_per_district = 256;
    p_.items = 1024;
    p_.jobs = 2;
    p_.analytics_pct = 15;
  }
  const std::vector<std::string>& profiles() const override { return names_; }
  std::string params() const override {
    return "warehouses=" + std::to_string(p_.warehouses) +
           " districts=" + std::to_string(p_.districts) +
           " customers_per_district=" +
           std::to_string(p_.customers_per_district) +
           " items=" + std::to_string(p_.items) +
           " jobs=" + std::to_string(p_.jobs) + " mix=analytics" +
           std::to_string(p_.analytics_pct) +
           ",then new_order45/payment43/order_status4/delivery4/"
           "stock_level4 clients=2 pool_threads=2";
  }
  /// run_mix's weights, drawn here so each profile call is timed alone.
  int pick(util::Xoshiro256& rng) const override {
    if (rng.next_bounded(100) < static_cast<std::uint64_t>(p_.analytics_pct))
      return 5;
    const auto r = rng.next_bounded(100);
    return r < 45 ? 0 : r < 88 ? 1 : r < 92 ? 2 : r < 96 ? 3 : 4;
  }
  void call(int profile, util::Xoshiro256& rng) override {
    switch (profile) {
      case 0: db_->new_order(*rt_, rng); break;
      case 1: db_->payment(*rt_, rng); break;
      case 2: db_->order_status(*rt_, rng); break;
      case 3: db_->delivery(*rt_, rng); break;
      case 4: db_->stock_level(*rt_, rng); break;
      default: db_->warehouse_analytics(*rt_, rng); break;
    }
  }
  void check(util::Xoshiro256& rng, Checks& checks) override {
    checks.add("tpcc.audit", db_->audit(*rt_),
               "warehouse YTD == sum of district YTDs; orders below "
               "next_o_id exist",
               true);
    for (int k = 0; k < 4; ++k) {
      const int d = static_cast<int>(rng.next_bounded(
          static_cast<std::uint64_t>(p_.districts)));
      const int threshold = 10 + static_cast<int>(rng.next_bounded(11));
      const long got = db_->stock_level_at(*rt_, 0, d, threshold);
      const long want = db_->stock_level_reference(*rt_, 0, d, threshold);
      checks.add("tpcc.stock_level.d" + std::to_string(d) + ".t" +
                     std::to_string(threshold),
                 got == want,
                 "scan " + std::to_string(got) + " vs reference " +
                     std::to_string(want),
                 true);
    }
  }

 private:
  std::vector<std::string> names_{"new_order",    "payment",
                                  "order_status", "delivery",
                                  "stock_level",  "warehouse_analytics"};
};

/// What one run produced.
struct Result {
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;
};

/// Per-client accumulator for one slice of the measured window.
struct SliceAcc {
  std::vector<double> lat_us;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  std::uint64_t within_slo = 0;
};

/// Boundaries of one measured slice.
struct SliceInfo {
  std::uint64_t start_ns = 0, end_ns = 0;
  double start_cpu = 0.0, end_cpu = 0.0;
  Frame start, end;
};

void run_closed(ClosedWorkload& wl, const Options& o, Tracer* tr,
                Result& res) {
  const std::vector<std::string>& profiles = wl.profiles();
  const int per_epoch = std::max(
      1, static_cast<int>(std::lround(o.seconds / kEpochs / kSliceS)));
  const int n_slices = kEpochs * per_epoch;
  const double slice_s = o.seconds / n_slices;
  std::printf("params %s epochs=%d setups_per_epoch=%d warmup_s=%g "
              "slices=%d slo_ms=%g\n",
              wl.params().c_str(), kEpochs, kSetupsPerEpoch, kWarmupS,
              n_slices, static_cast<double>(kSloNs) / 1e6);

  const std::uint64_t root = tr ? tr->next_id(0) : 0;
  const std::uint64_t run_t0 = util::now_ns();
  std::vector<std::vector<SliceAcc>> acc(kClients,
                                         std::vector<SliceAcc>(n_slices));
  std::vector<SliceInfo> slices(n_slices);
  std::vector<std::uint64_t> slice_span(n_slices, 0);
  std::vector<std::uint32_t> profile_name(profiles.size(), 0);
  if (tr) {
    for (std::size_t p = 0; p < profiles.size(); ++p)
      profile_name[p] = tr->intern("workloads." + profiles[p]);
    for (int g = 0; g < n_slices; ++g) slice_span[g] = tr->next_id(0);
  }
  auto traced = [&](int slice) { return tr != nullptr && slice % 2 == 1; };
  std::vector<double> setup_s;
  double ebr_pending = 0.0;

  // Each epoch builds a fresh Runtime and database (several times; set-up
  // is short, so its median needs many samples), warms up, and measures
  // its share of the slices. Fresh epochs bound TPC-C's ever-growing order
  // arena and re-sample the heap layout the commit-stripe hash depends on.
  for (int e = 0; e < kEpochs; ++e) {
    for (int r = 0; r < kSetupsPerEpoch; ++r) {
      if (e > 0 || r > 0) wl.teardown();
      util::Xoshiro256 rng(mix_seed(o.seed, 100 + e));
      std::uint64_t setup_id = 0;
      const std::uint64_t ns = timed_span(
          tr, "setup", root,
          [&] {
            timed_span(tr, "core.runtime", setup_id,
                       [&] { wl.make_runtime(); });
            timed_span(tr, "workloads.populate", setup_id,
                       [&] { wl.populate(rng); });
          },
          &setup_id);
      setup_s.push_back(ns_to_s(ns));
    }
    if (tr) tr->frame("epoch." + std::to_string(e) + ".setup", frame_now());

    // phase: -1 = warm-up, g = measured slice g, n_slices = stop.
    std::atomic<int> phase{-1};
    auto client = [&](std::size_t c) {
      util::Xoshiro256 rng(mix_seed(o.seed, 10 * (e + 1) + c));
      const auto tid = static_cast<std::uint32_t>(c + 1);
      for (;;) {
        const int slice = phase.load(std::memory_order_acquire);
        if (slice >= n_slices) break;
        const int p = wl.pick(rng);
        bool ok = true;
        const std::uint64_t t0 = util::now_ns();
        try {
          wl.call(p, rng);
        } catch (...) {
          ok = false;
        }
        const std::uint64_t t1 = util::now_ns();
        if (slice < 0) continue;
        SliceAcc& a = acc[c][slice];
        ++a.calls;
        if (!ok) {
          ++a.failed;
          continue;
        }
        a.lat_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        if (t1 - t0 <= kSloNs) ++a.within_slo;
        if (traced(slice))
          tr->log(tid).push_back({tr->next_id(tid), slice_span[slice],
                                  profile_name[p], tid, t0, t1});
      }
    };
    std::vector<std::thread> clients;
    Joiner joiner(clients, [&] {
      phase.store(n_slices, std::memory_order_release);
    });
    for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);

    const std::uint64_t warm_t0 = util::now_ns();
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
    if (tr)
      tr->log(0).push_back({tr->next_id(0), root, tr->intern("warmup"), 0,
                            warm_t0, util::now_ns()});

    using clock = std::chrono::steady_clock;
    const int first = e * per_epoch;
    Frame f = frame_now();
    double cpu = cpu_seconds();
    std::uint64_t at = util::now_ns();
    const auto start = clock::now();
    phase.store(first, std::memory_order_release);
    for (int i = 0; i < per_epoch; ++i) {
      const int g = first + i;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<clock::duration>(
                      std::chrono::duration<double>(slice_s * (i + 1))));
      phase.store(i + 1 < per_epoch ? g + 1 : n_slices,
                  std::memory_order_release);
      SliceInfo& si = slices[g];
      si.start_ns = at;
      si.start_cpu = cpu;
      si.start = std::move(f);
      si.end_ns = at = util::now_ns();
      si.end = f = frame_now();
      si.end_cpu = cpu = cpu_seconds();
      if (tr) {
        tr->log(0).push_back(
            {slice_span[g], root,
             tr->intern(traced(g) ? "window.traced" : "window.untraced"), 0,
             si.start_ns, si.end_ns});
        tr->frame("slice." + std::to_string(g), si.end);
      }
    }
    joiner.join();
    ebr_pending =
        static_cast<double>(wl.runtime().env().epochs().pending_count());
    util::Xoshiro256 check_rng(mix_seed(o.seed, 200 + e));
    wl.check(check_rng, res.checks);
  }
  wl.teardown();
  if (tr)
    tr->log(0).push_back(
        {root, 0, tr->intern("run"), 0, run_t0, util::now_ns()});

  // ---- end-to-end, from the untraced slices ----
  std::vector<double> tput, goodput, p50, p99, traced_tput;
  std::size_t samples = 0;
  std::uint64_t e2e_calls = 0, e2e_failed = 0, e2e_within = 0;
  double e2e_cpu = 0.0, traced_ns = 0.0;
  Frame e2e_delta, layer_delta;
  for (int g = 0; g < n_slices; ++g) {
    const SliceInfo& si = slices[g];
    const double dur = ns_to_s(si.end_ns - si.start_ns);
    std::vector<double> lat;
    std::uint64_t calls = 0, failed = 0, within = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      const SliceAcc& a = acc[c][g];
      lat.insert(lat.end(), a.lat_us.begin(), a.lat_us.end());
      calls += a.calls;
      failed += a.failed;
      within += a.within_slo;
    }
    res.attempted += calls;
    res.failed += failed;
    const Frame d = perfbench::delta(si.end, si.start);
    if (traced(g)) {
      traced_tput.push_back(static_cast<double>(calls - failed) / dur);
      perfbench::accumulate(layer_delta, d);
      traced_ns += static_cast<double>(si.end_ns - si.start_ns);
      continue;
    }
    tput.push_back(static_cast<double>(calls - failed) / dur);
    goodput.push_back(static_cast<double>(within) / dur);
    samples += lat.size();
    p50.push_back(perfbench::percentile(lat, 0.50).value);
    p99.push_back(perfbench::percentile(lat, 0.99).value);
    e2e_calls += calls;
    e2e_failed += failed;
    e2e_within += within;
    e2e_cpu += si.end_cpu - si.start_cpu;
    perfbench::accumulate(e2e_delta, d);
  }
  const std::string slices_note =
      "median of " + std::to_string(tput.size()) + " slices";
  const double commits = perfbench::count_of(e2e_delta, "tx.commits");
  const double aborts = perfbench::count_of(e2e_delta, "tx.attempt_aborts");
  const Ratio abort_share{aborts, commits + aborts};
  const Ratio cpu_per_op{e2e_cpu * 1e6,
                         static_cast<double>(e2e_calls - e2e_failed)};
  const Ratio failed_share{static_cast<double>(e2e_failed),
                           static_cast<double>(e2e_calls)};
  const Ratio slo_miss{static_cast<double>(e2e_calls - e2e_within),
                       static_cast<double>(e2e_calls)};
  res.e2e = {
      {"setup_s", perfbench::median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"throughput_tps", perfbench::median(tput), "1/s", slices_note},
      {"p50_us", perfbench::median(p50), "us",
       slices_note + ", n=" + std::to_string(samples)},
      {"p99_us", perfbench::median(p99), "us",
       slices_note + ", n=" + std::to_string(samples)},
      {"abort_share", abort_share.value(), "ratio", ratio_note(abort_share)},
      {"goodput_rps", perfbench::median(goodput), "1/s",
       slices_note + ", calls within the SLO"},
      {"cpu_us_per_op", cpu_per_op.value(), "us", ratio_note(cpu_per_op)},
      {"rss_mb", peak_rss_mb(), "MB", "peak"},
      {"failed_share", failed_share.value(), "ratio", ratio_note(failed_share)},
      {"slo_miss_share", slo_miss.value(), "ratio", ratio_note(slo_miss)},
  };
  if (!tr) return;

  // ---- per-layer, from the traced slices ----
  std::vector<std::vector<double>> by_profile(profiles.size());
  for (const auto& log : tr->logs()) {
    for (const SpanRec& s : log) {
      if (s.tid == 0) continue;  // client threads only
      for (std::size_t p = 0; p < profiles.size(); ++p)
        if (s.name == profile_name[p])
          by_profile[p].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                                  1e3);
    }
  }
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const perfbench::Percentile a = perfbench::percentile(by_profile[p], 0.50);
    const perfbench::Percentile b = perfbench::percentile(by_profile[p], 0.99);
    res.layers.push_back({"workloads." + profiles[p] + ".p50_us", a.value,
                          "us", "n=" + std::to_string(a.n)});
    res.layers.push_back({"workloads." + profiles[p] + ".p99_us", b.value,
                          "us", "n=" + std::to_string(b.n)});
  }
  for (Metric& m : engine_layer_metrics(layer_delta, slices.back().end,
                                        traced_ns * kClients))
    res.layers.push_back(std::move(m));
  res.layers.push_back({"util.ebr.pending_end", ebr_pending, "count",
                        "Runtime EBR backlog at the last window end"});
  const double untraced = perfbench::median(tput);
  res.layers.push_back(
      {"obs.trace_overhead_share",
       untraced > 0 ? 1.0 - perfbench::median(traced_tput) / untraced : 0.0,
       "ratio", "1 - traced/untraced throughput_tps"});
}

// ---- open-loop KV service ----------------------------------------------

server::ServerConfig kv_config() {
  server::ServerConfig c;  // the service's defaults, with this shape:
  c.load.keyspace = std::uint64_t{1} << 18;
  c.load.zipf_theta = 0.9;
  c.load.mix_read = 55;
  c.load.mix_write = 20;
  c.load.mix_rmw = 15;
  c.load.mix_multi = 5;
  c.load.mix_scan = 5;
  c.op_span = 16;
  c.workers = 2;
  c.pool_threads = kPoolThreads;
  c.admission.slo_p99_ns = kSloNs;
  c.tx_deadline_us = 100'000;  // txf_server's deployed default
  c.status_interval_s = 0.0;   // no status lines on stderr
  return c;
}

/// Registry frames sampled while a Server::run is in flight (its Runtime
/// unregisters its metrics when run() returns).
struct KvSample {
  bool have_base = false;
  bool have_last = false;
  Frame base, last;
  std::uint64_t base_ns = 0, last_ns = 0;
  double base_cpu = 0.0, last_cpu = 0.0;
};

struct KvRun {
  bool overload = false;
  bool traced = false;
  double wall_s = 0.0;
  server::Report rep;
  KvSample sample;
};

KvRun kv_run(const Options& o, int index, bool overload, bool traced,
             double duration_s, Tracer* tr, std::uint64_t root) {
  KvRun run;
  run.overload = overload;
  run.traced = traced;
  server::ServerConfig cfg = kv_config();
  cfg.load.rate_hz = overload ? kKvOverloadRate : kKvSteadyRate;
  cfg.load.seed = mix_seed(o.seed, 1000 + static_cast<std::uint64_t>(index));
  cfg.duration_s = duration_s;

  std::atomic<bool> stop{false};
  Tracer* frame_log = traced ? tr : nullptr;
  std::vector<std::thread> sampler;
  Joiner joiner(sampler,
                [&] { stop.store(true, std::memory_order_release); });
  sampler.emplace_back([&] {
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kKvSamplePeriodMs));
      Frame f = frame_now();
      if (perfbench::count_of(f, "server.admitted") <= 0) continue;
      KvSample& s = run.sample;
      const std::uint64_t now = util::now_ns();
      const double c = cpu_seconds();
      if (frame_log) frame_log->frame("kv.run" + std::to_string(index), f);
      if (!s.have_base) {
        s.have_base = true;
        s.base = std::move(f);
        s.base_ns = now;
        s.base_cpu = c;
      } else {
        s.have_last = true;
        s.last = std::move(f);
        s.last_ns = now;
        s.last_cpu = c;
      }
    }
  });
  const std::string name = std::string("server.run.") +
                           (overload ? "overload" : "steady") +
                           (traced ? ".traced" : "");
  const std::uint64_t ns = timed_span(traced ? tr : nullptr, name, root, [&] {
    run.rep = server::Server(cfg).run();
  });
  joiner.join();
  run.wall_s = ns_to_s(ns);
  return run;
}

void kv_checks(const KvRun& r, int index, Checks& checks) {
  const server::Report& rep = r.rep;
  const std::string tag = "kv_open.run" + std::to_string(index);
  // The server's own verdict, with its first failed check.
  checks.add(tag + ".report", rep.ok,
             rep.ok ? "" : rep.failure + " (max chain " +
                               std::to_string(rep.max_version_list) +
                               ", after trim " +
                               std::to_string(rep.max_version_list_trimmed) +
                               ", ebr pending " +
                               std::to_string(rep.ebr_pending_final) + ")",
             false);
  // The output-correctness identities the verdict rests on, re-derived from
  // the report so each one shows even when an earlier check failed first.
  // Revoked backlog counts in both admitted and shed, so every offered
  // request is either shed or completed.
  std::string broken;
  bool stripes_ok = rep.stripe_clock.size() == rep.stripe_committed.size();
  std::uint64_t stripe_sum = 0;
  for (std::size_t s = 0; stripes_ok && s < rep.stripe_clock.size(); ++s) {
    stripes_ok = rep.stripe_clock[s] == rep.stripe_committed[s];
    stripe_sum += rep.stripe_committed[s];
  }
  if (!stripes_ok) broken += " stripe-clock!=stripe-committed";
  if (stripes_ok && rep.clock != stripe_sum) broken += " clock!=committed";
  if (rep.cause_sum_minus_deadline != rep.attempt_aborts)
    broken += " abort-accounting";
  if (rep.watchdog_stalls != 0) broken += " watchdog-stall";
  if (rep.failure == "request execution threw") broken += " request-threw";
  if (rep.completed + rep.shed != rep.offered) broken += " lost-requests";
  if (!broken.empty())
    checks.add(tag + ".identities", false, "violated:" + broken, true);
}

/// Offered requests neither shed nor completed.
std::uint64_t kv_lost(const server::Report& rep) {
  const std::uint64_t done = rep.completed + rep.shed;
  return rep.offered > done ? rep.offered - done : 0;
}

void run_kv(const Options& o, Tracer* tr, Result& res) {
  std::printf(
      "params keyspace=262144 zipf_theta=0.9 mix=55/20/15/5/5 "
      "(read/write/rmw/multi/scan) op_span=16 workers=2 pool_threads=2 "
      "slo_p99_ms=10 admission=on steady_rate=%g x%d overload_rate=%g x%d "
      "warmup_s=%g\n",
      kKvSteadyRate, kKvSteadyRuns, kKvOverloadRate, kKvOverloadRuns,
      kKvWarmupS);
  const std::uint64_t root = tr ? tr->next_id(0) : 0;
  const std::uint64_t run_t0 = util::now_ns();

  // Warm-up run: first-touch page faults and CPU ramp, not measured.
  KvRun warm = kv_run(o, 0, false, false, kKvWarmupS, nullptr, root);
  kv_checks(warm, 0, res.checks);

  // Plan: untraced runs give the end-to-end numbers — five short steady
  // runs (a steady p99 is the first number a host stall moves, so it takes
  // the median of several) and three overload runs, half of the time each.
  // A traced run pairs one untraced and one traced run per phase.
  struct Planned {
    bool overload;
    bool traced;
    double seconds;
  };
  std::vector<Planned> plan;
  if (tr) {
    const double q = o.seconds / 4;
    plan = {{false, false, q}, {false, true, q}, {true, false, q},
            {true, true, q}};
  } else {
    for (int k = 0; k < kKvSteadyRuns; ++k)
      plan.push_back({false, false, o.seconds / 2 / kKvSteadyRuns});
    for (int k = 0; k < kKvOverloadRuns; ++k)
      plan.push_back({true, false, o.seconds / 2 / kKvOverloadRuns});
  }
  std::vector<KvRun> runs;
  for (std::size_t k = 0; k < plan.size(); ++k) {
    runs.push_back(kv_run(o, static_cast<int>(k + 1), plan[k].overload,
                          plan[k].traced, plan[k].seconds, tr, root));
    kv_checks(runs.back(), static_cast<int>(k + 1), res.checks);
  }
  if (tr)
    tr->log(0).push_back(
        {root, 0, tr->intern("run"), 0, run_t0, util::now_ns()});

  std::vector<double> setup_s, p50, p99, tput, goodput;
  std::size_t samples = 0;
  double steady_offered = 0, steady_missed = 0, all_offered = 0,
         all_refused = 0, cpu = 0, completed = 0;
  Frame e2e_delta, layer_delta;
  double layer_worker_ns = 0;
  const double workers = kv_config().workers;
  std::vector<double> traced_goodput, untraced_goodput;
  const server::Report* steady_traced = nullptr;
  const server::Report* overload_traced = nullptr;
  double max_chain = 0, ebr_end = 0;
  for (const KvRun& r : runs) {
    const server::Report& rep = r.rep;
    res.attempted += rep.offered;
    res.failed += kv_lost(rep);
    max_chain = std::max(max_chain, static_cast<double>(rep.max_version_list));
    ebr_end = std::max(ebr_end, static_cast<double>(rep.ebr_pending_final));
    const double good =
        static_cast<double>(rep.completed -
                            std::min(rep.completed, rep.slo_misses)) /
        rep.duration_s;
    if (r.overload)
      (r.traced ? traced_goodput : untraced_goodput).push_back(good);
    const KvSample& s = r.sample;
    if (r.traced) {
      if (r.overload) overload_traced = &rep; else steady_traced = &rep;
      if (s.have_last) {
        perfbench::accumulate(layer_delta, perfbench::delta(s.last, s.base));
        layer_worker_ns += static_cast<double>(s.last_ns - s.base_ns) * workers;
      }
      continue;
    }
    setup_s.push_back(r.wall_s - rep.duration_s);
    all_offered += static_cast<double>(rep.offered);
    all_refused += static_cast<double>(rep.shed + kv_lost(rep));
    if (s.have_last) {
      perfbench::accumulate(e2e_delta, perfbench::delta(s.last, s.base));
      cpu += s.last_cpu - s.base_cpu;
      completed += perfbench::count_of(s.last, "server.completed") -
                   perfbench::count_of(s.base, "server.completed");
    }
    if (r.overload) {
      tput.push_back(static_cast<double>(rep.completed) / rep.duration_s);
      goodput.push_back(good);
    } else {
      p50.push_back(static_cast<double>(rep.p50_ns) / 1e3);
      p99.push_back(static_cast<double>(rep.p99_ns) / 1e3);
      samples += rep.completed;
      steady_offered += static_cast<double>(rep.offered);
      steady_missed +=
          static_cast<double>(rep.shed + kv_lost(rep) + rep.slo_misses);
    }
  }
  const double commits = perfbench::count_of(e2e_delta, "tx.commits");
  const double aborts = perfbench::count_of(e2e_delta, "tx.attempt_aborts");
  const Ratio abort_share{aborts, commits + aborts};
  const Ratio cpu_per_op{cpu * 1e6, completed};
  const std::string steady_note =
      "steady phase, median of " + std::to_string(p50.size()) +
      " runs, n=" + std::to_string(samples) + ", from scheduled time";
  const std::string overload_note =
      "overload phase, median of " + std::to_string(tput.size()) + " runs";
  res.e2e = {
      {"setup_s", perfbench::median(setup_s), "s",
       "Server::run wall minus traffic, median of " +
           std::to_string(setup_s.size()) + " runs"},
      {"throughput_tps", perfbench::median(tput), "1/s",
       overload_note + ", completed requests"},
      {"p50_us", perfbench::median(p50), "us", steady_note},
      {"p99_us", perfbench::median(p99), "us", steady_note},
      {"abort_share", abort_share.value(), "ratio", ratio_note(abort_share)},
      {"goodput_rps", perfbench::median(goodput), "1/s",
       overload_note + ", completed within the SLO"},
      {"cpu_us_per_op", cpu_per_op.value(), "us",
       ratio_note(cpu_per_op) + " over sampled traffic"},
      {"rss_mb", peak_rss_mb(), "MB", "peak"},
  };
  const Ratio failed_share{all_refused, all_offered};
  const Ratio slo_miss{steady_missed, steady_offered};
  res.e2e.push_back({"failed_share", failed_share.value(), "ratio",
                     ratio_note(failed_share) + " shed or lost, all phases"});
  res.e2e.push_back({"slo_miss_share", slo_miss.value(), "ratio",
                     ratio_note(slo_miss) + " steady phase"});
  if (!tr) return;

  res.layers = engine_layer_metrics(layer_delta, runs.back().sample.last,
                                    layer_worker_ns);
  res.layers.push_back({"stm.version_list.max", max_chain, "versions",
                        "longest chain before the final trim, all runs"});
  res.layers.push_back({"util.ebr.pending_end", ebr_end, "count",
                        "after the server's shutdown drain"});
  static const char* kClassNames[] = {"read", "write", "rmw", "multi", "scan"};
  for (std::size_t c = 0; c < server::kRequestClassCount; ++c) {
    const auto& cs = steady_traced->per_class[c];
    res.layers.push_back({std::string("server.class.") + kClassNames[c] +
                              ".p99_us",
                          static_cast<double>(cs.p99_ns) / 1e3, "us",
                          "steady, n=" + std::to_string(cs.completed)});
  }
  const server::Report& ov = *overload_traced;
  const Ratio shed{static_cast<double>(ov.shed),
                   static_cast<double>(ov.offered)};
  const Ratio limit{ov.final_rate_limit,
                    static_cast<double>(ov.offered) / ov.duration_s};
  res.layers.push_back({"server.shed_share", shed.value(), "ratio",
                        ratio_note(shed) + " overload"});
  res.layers.push_back({"server.overload_ticks",
                        static_cast<double>(ov.overload_ticks), "count",
                        "overload"});
  res.layers.push_back({"server.max_shed_level",
                        static_cast<double>(ov.max_shed_level), "level",
                        "overload"});
  res.layers.push_back({"server.rate_limit_over_offered", limit.value(),
                        "ratio", ratio_note(limit) + " overload, final"});
  const double untraced = perfbench::median(untraced_goodput);
  res.layers.push_back(
      {"obs.trace_overhead_share",
       untraced > 0 ? 1.0 - perfbench::median(traced_goodput) / untraced : 0.0,
       "ratio", "1 - traced/untraced goodput_rps"});
}

// ---- per-layer metrics a workload does not exercise ----------------------

/// Every per-layer metric is printed for every workload; a layer the
/// workload never reaches reads 0 (e.g. server.* on tpcc).
void complete_layers(Result& res) {
  std::vector<Metric> want;
  // Vacation is outside the gated set (NOTES.md, Variance); a vacation run
  // prints its own profiles in addition.
  const TpccWorkload tpcc;
  for (const std::string& p : tpcc.profiles()) {
    want.push_back({"workloads." + p + ".p50_us", 0, "us", "not run"});
    want.push_back({"workloads." + p + ".p99_us", 0, "us", "not run"});
  }
  want.push_back({"stm.version_list.max", 0, "versions",
                  "not observable through this workload's public API"});
  for (const char* c : {"read", "write", "rmw", "multi", "scan"})
    want.push_back({std::string("server.class.") + c + ".p99_us", 0, "us",
                    "no server"});
  want.push_back({"server.shed_share", 0, "ratio", "no server"});
  want.push_back({"server.overload_ticks", 0, "count", "no server"});
  want.push_back({"server.max_shed_level", 0, "level", "no server"});
  want.push_back({"server.rate_limit_over_offered", 0, "ratio", "no server"});
  for (Metric& m : want) {
    const bool have =
        std::any_of(res.layers.begin(), res.layers.end(),
                    [&](const Metric& x) { return x.name == m.name; });
    if (!have) res.layers.push_back(std::move(m));
  }
}

void print_metric(const Metric& m) {
  std::printf("metric %-42s %s %s%s%s\n", m.name.c_str(), fmt(m.value).c_str(),
              m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, std::thread::hardware_concurrency());
  std::unique_ptr<Tracer> tracer;
  if (o.trace) tracer = std::make_unique<Tracer>(kClients);

  Result res;
  try {
    if (o.workload == "kv_open") {
      run_kv(o, tracer.get(), res);
    } else {
      std::unique_ptr<ClosedWorkload> wl;
      if (o.workload == "vacation")
        wl = std::make_unique<VacationWorkload>();
      else
        wl = std::make_unique<TpccWorkload>();
      run_closed(*wl, o, tracer.get(), res);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 1;
  }

  const double check_failures = res.checks.failures();
  res.e2e.push_back({"check_failures", check_failures, "count",
                     "failed end-of-run checks (see check lines)"});
  for (const Metric& m : res.e2e) print_metric(m);
  if (o.trace) {
    complete_layers(res);
    res.layers.push_back({"check_failures", check_failures, "count", ""});
    res.layers.push_back(*std::find_if(
        res.e2e.begin(), res.e2e.end(),
        [](const Metric& m) { return m.name == "failed_share"; }));
    res.layers.push_back(*std::find_if(
        res.e2e.begin(), res.e2e.end(),
        [](const Metric& m) { return m.name == "slo_miss_share"; }));
    for (const Metric& m : res.layers) print_metric(m);
    if (!o.trace_out.empty()) tracer->write(o.trace_out);
  }

  // The result line: end-to-end metrics untraced, per-layer metrics traced.
  // p99_us stays on the text lines only: on a shared 4-vCPU KVM host a
  // steady-phase p99 swings several-fold between runs (NOTES.md, Variance).
  static const char* kE2e[] = {"setup_s",     "throughput_tps", "p50_us",
                               "abort_share", "goodput_rps",    "cpu_us_per_op",
                               "rss_mb"};
  std::string json = "{\"correct\": ";
  json += res.checks.output_ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const Metric& m) {
    json += (first ? "" : ", ");
    json += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (o.trace) {
    for (const Metric& m : res.layers) emit(m);
  } else {
    for (const char* name : kE2e)
      for (const Metric& m : res.e2e)
        if (m.name == name) emit(m);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
