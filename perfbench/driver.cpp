// Host-clock end-to-end benchmark driver (perfbench/README.md).
//
//   imr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--scale full|tiny] [--out-dir <dir>]
//
// One process, one driver thread. Every input (graphs, partitioner seeds,
// the session's update script, the reference outputs) is generated from
// --seed before any timing starts. The run is then a sequence of
// self-contained ROUNDS, each of which
//
//   1. builds a fresh Cluster and loads the input            (set-up, timed)
//   2. runs the timed phase: one engine run, or the session's whole update
//      script                                                 (job, timed)
//   3. verifies the output against the references             (untimed)
//   4. tears the cluster down                                 (untimed)
//
// until --seconds of rounds have been measured (after one warm-up round).
// Every end-to-end metric is a median over the measured rounds, on the HOST
// clock. Model-clock numbers (RunReport virtual times) appear only as model.*
// per-layer diagnostics of the traced run.
//
// With --trace 1 the rounds alternate between traced (TraceRecorder armed)
// and untraced; the per-layer metrics come from the traced rounds, and
// trace_overhead_ratio is traced job_s over untraced job_s.
//
// The last line of stdout is one JSON object: the run record (workload,
// seed, input sizes, rounds, failures) with "metrics" holding the metrics of
// the chosen mode, each {"value", "unit"}.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/sssp.h"
#include "cluster/cluster.h"
#include "common/arena.h"
#include "graph/generator.h"
#include "graph/partition.h"
#include "imapreduce/engine.h"
#include "mapreduce/engine.h"
#include "mapreduce/iterative_driver.h"
#include "metrics/metrics.h"
#include "metrics/trace.h"

namespace {

using imr::Bytes;
using imr::Cluster;
using imr::ClusterConfig;
using imr::Graph;
using imr::IterJobConf;
using imr::IterativeDriver;
using imr::IterativeEngine;
using imr::JobSession;
using imr::MetricsRegistry;
using imr::Partitioner;
using imr::RunReport;
using imr::StaticDelta;
using imr::TraceRecorder;
using imr::TrafficCategory;

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

constexpr int kWorkers = 4;
constexpr int kTasks = 4;
constexpr int kSsspMaxIterations = 500;
constexpr int kWarmupRounds = 2;
constexpr double kWarmupSeconds = 1.5;
// Relative tolerance of PageRank output against the sequential reference:
// the engines sum rank shares in a different order than the reference.
constexpr double kPageRankRelTol = 1e-9;

enum class Workload { kPagerankBulk, kPagerankAggSpill, kSsspSession,
                      kPagerankMr };

std::optional<Workload> parse_workload(const std::string& s) {
  if (s == "pagerank-bulk") return Workload::kPagerankBulk;
  if (s == "pagerank-agg-spill") return Workload::kPagerankAggSpill;
  if (s == "sssp-session") return Workload::kSsspSession;
  if (s == "pagerank-mr") return Workload::kPagerankMr;
  return std::nullopt;
}

// Input sizes. "full" is what BENCHMARK.json measures; "tiny" is the smoke
// test's size.
struct Sizes {
  uint32_t pagerank_nodes;     // log-normal graph of pagerank-bulk / -mr
  int pagerank_iterations;     // fixed iterations, all PageRank workloads
  uint32_t grid_side;          // grid graph of pagerank-agg-spill
  int64_t task_memory_bytes;   // per-task budget of pagerank-agg-spill
  int agg_buffer_records;      // shuffle batch of pagerank-agg-spill
  uint32_t sssp_nodes;         // log-normal graph of sssp-session
  int session_updates;         // apply_update calls per round
  int edits_per_update;        // weight halvings per update batch
};

constexpr Sizes kFullSizes{
    20000, 10, 150, 3 * static_cast<int64_t>(imr::RecordArena::kBlockBytes),
    256,   8000, 150, 3};
constexpr Sizes kTinySizes{1500, 3, 40, 4096, 64, 600, 4, 2};

struct Options {
  Workload workload = Workload::kPagerankBulk;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scale = "full";
  std::string out_dir;
};

// ---------------------------------------------------------------- inputs --

struct Inputs {
  Sizes sizes{};
  Graph graph;           // the job's input graph (session: the initial one)
  uint64_t partition_seed = 0;
  int64_t edge_cut = 0;  // of the workload's partitioning of `graph`
  // PageRank workloads: the sequential reference ranks.
  std::vector<double> pagerank_reference;
  // sssp-session: the pre-generated update script, the graph it ends at,
  // the reference distances over that graph, and a cold run's final state.
  uint32_t sssp_source = 0;  // the highest out-degree node
  std::vector<StaticDelta> script;
  std::size_t script_ops = 0;
  Graph final_graph;
  std::vector<double> sssp_reference;
  std::map<Bytes, Bytes> cold_state;
};

ClusterConfig cluster_config(uint64_t seed) {
  ClusterConfig config;
  config.num_workers = kWorkers;
  config.seed = seed;
  return config;
}

// One update batch: `edits` distinct weight halvings. Halving only lowers
// distances, so every batch is refining and the session stays incremental.
void halve_weights(Graph& g, int edits, std::mt19937_64& rng) {
  const uint32_t n = g.num_nodes();
  for (int done = 0; done < edits;) {
    auto& edges = g.adj[rng() % n];
    if (edges.empty()) continue;
    imr::WEdge& e = edges[rng() % edges.size()];
    if (e.weight <= 1e-9) continue;
    e.weight *= 0.5;
    ++done;
  }
}

IterJobConf sssp_session_conf() {
  IterJobConf conf = imr::Sssp::imapreduce("in", "out", kSsspMaxIterations);
  conf.num_tasks = kTasks;
  conf.workset_mode = true;
  conf.distance_threshold = -1.0;
  return conf;
}

std::map<Bytes, Bytes> read_state(Cluster& cluster, const std::string& path) {
  std::map<Bytes, Bytes> state;
  for (const auto& part : imr::resolve_input_paths(cluster.dfs(), path)) {
    for (const imr::KV& kv : cluster.dfs().read_all(part, -1, nullptr)) {
      state[kv.key] = kv.value;
    }
  }
  return state;
}

std::shared_ptr<const Partitioner> make_partitioner(Workload w,
                                                    const Inputs& in) {
  if (w == Workload::kPagerankAggSpill) {
    return imr::make_bfs_partitioner(in.graph, kTasks, in.partition_seed);
  }
  return imr::make_hash_partitioner(kTasks);
}

Inputs make_inputs(const Options& opt) {
  Inputs in;
  in.sizes = opt.scale == "tiny" ? kTinySizes : kFullSizes;
  const Sizes& s = in.sizes;
  std::mt19937_64 rng(opt.seed);
  in.partition_seed = rng();
  switch (opt.workload) {
    case Workload::kPagerankBulk:
    case Workload::kPagerankMr: {
      imr::LogNormalGraphSpec spec;
      spec.num_nodes = s.pagerank_nodes;
      spec.weighted = false;
      spec.seed = rng();
      in.graph = imr::generate_lognormal_graph(spec);
      break;
    }
    case Workload::kPagerankAggSpill: {
      imr::GridGraphSpec spec;
      spec.rows = s.grid_side;
      spec.cols = s.grid_side;
      spec.weighted = false;
      spec.seed = rng();
      in.graph = imr::generate_grid_graph(spec);
      break;
    }
    case Workload::kSsspSession: {
      imr::LogNormalGraphSpec spec;
      spec.num_nodes = s.sssp_nodes;
      spec.degree_mu = 1.2;
      spec.weighted = true;
      spec.seed = rng();
      in.graph = imr::generate_lognormal_graph(spec);
      break;
    }
  }
  in.edge_cut = imr::edge_cut(in.graph, *make_partitioner(opt.workload, in));

  if (opt.workload == Workload::kSsspSession) {
    for (uint32_t u = 0; u < in.graph.num_nodes(); ++u) {
      if (in.graph.adj[u].size() > in.graph.adj[in.sssp_source].size()) {
        in.sssp_source = u;
      }
    }
    Graph g = in.graph;
    for (int u = 0; u < s.session_updates; ++u) {
      Graph next = g;
      halve_weights(next, s.edits_per_update, rng);
      in.script.push_back(imr::Sssp::static_delta(g, next));
      in.script_ops += in.script.back().size();
      g = std::move(next);
    }
    in.final_graph = std::move(g);
    in.sssp_reference =
        imr::Sssp::reference(in.final_graph, in.sssp_source, -1);
    Cluster cold(cluster_config(opt.seed));
    imr::Sssp::setup(cold, in.final_graph, in.sssp_source, "in");
    IterativeEngine engine(cold);
    const RunReport report = engine.run(sssp_session_conf());
    if (!report.converged) {
      throw std::runtime_error("cold SSSP run over the final graph did not "
                               "converge");
    }
    in.cold_state = read_state(cold, "out");
  } else {
    in.pagerank_reference =
        imr::PageRank::reference(in.graph, s.pagerank_iterations);
  }
  return in;
}

// ---------------------------------------------------------- measurement --

struct Usage {
  double cpu_s = 0;
  int64_t vol_ctx = 0;
  int64_t invol_ctx = 0;
  int64_t minor_faults = 0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                       ru.ru_stime.tv_usec);
  u.vol_ctx = ru.ru_nvcsw;
  u.invol_ctx = ru.ru_nivcsw;
  u.minor_faults = ru.ru_minflt;
  return u;
}

// CPU time the hypervisor gave to other guests ("steal"), and all CPU time,
// summed over every CPU of this machine, in clock ticks (/proc/stat). Both
// stay 0 where /proc/stat is unreadable.
struct CpuTicks {
  int64_t steal = 0;
  int64_t total = 0;
};

CpuTicks cpu_ticks_now() {
  CpuTicks t;
  std::ifstream is("/proc/stat");
  std::string label;
  is >> label;
  for (int field = 0; field < 8 && is; ++field) {
    int64_t v = 0;
    is >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double maxrss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The process's resident-set high-water mark (VmHWM) in MB, and its reset:
// writing "5" to /proc/self/clear_refs lowers VmHWM to the current RSS, so
// each round can read its own peak.
double rss_hwm_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return maxrss_mb();
}

void reset_rss_hwm() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Public registry counters, snapshotted around the timed phase.
struct Counters {
  std::array<int64_t, imr::kNumTrafficCategories> bytes{};
  std::array<int64_t, imr::kNumTrafficCategories> transfers{};
  std::array<int64_t, imr::kNumTrafficCategories> remote{};
  std::map<std::string, int64_t> named;

  static Counters of(const MetricsRegistry& m) {
    Counters c;
    for (int i = 0; i < imr::kNumTrafficCategories; ++i) {
      const auto cat = static_cast<TrafficCategory>(i);
      c.bytes[i] = m.traffic_bytes(cat);
      c.transfers[i] = m.traffic_transfers(cat);
      c.remote[i] = m.traffic_remote_bytes(cat);
    }
    c.named = m.named_counters();
    return c;
  }
  int64_t count(const std::string& name) const {
    auto it = named.find(name);
    return it == named.end() ? 0 : it->second;
  }
};

// One host span recorded by the driver around a public call.
struct HostSpan {
  std::string name;
  std::string parent;
  int round = 0;
  double start_s = 0;
  double end_s = 0;
};

class HostSpans {
 public:
  explicit HostSpans(Clock::time_point origin) : origin_(origin) {}

  // Runs `fn`, records it as span `name` under `parent`, returns seconds.
  template <class Fn>
  double time(const char* name, const char* parent, int round, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    add(name, parent, round, t0, t1);
    return seconds_between(t0, t1);
  }
  void add(const char* name, const char* parent, int round,
           Clock::time_point t0, Clock::time_point t1) {
    spans_.push_back({name, parent, round, seconds_between(origin_, t0),
                      seconds_between(origin_, t1)});
  }
  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (const HostSpan& s : spans_) {
      os << "{\"name\": \"" << s.name << "\", \"parent\": \"" << s.parent
         << "\", \"round\": " << s.round << ", \"start_s\": " << s.start_s
         << ", \"end_s\": " << s.end_s << "}\n";
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
};

// Model-clock self time per span name over every track of the recorder:
// span duration minus the part covered by its child spans. Nesting is by
// event order within a track (trace.h), so a stack per track suffices.
std::map<std::string, double> model_self_seconds(
    const std::vector<TraceRecorder::TrackSnapshot>& tracks,
    int64_t* dropped) {
  struct Frame {
    const char* name;
    int64_t begin_ns;
    int64_t child_ns;
  };
  std::map<std::string, double> self;
  *dropped = 0;
  for (const auto& track : tracks) {
    *dropped += track.dropped;
    std::vector<Frame> stack;
    for (const imr::TraceEvent& e : track.events) {
      if (e.type == imr::TraceEventType::kSpanBegin) {
        stack.push_back({e.name, e.ts_ns, 0});
      } else if (e.type == imr::TraceEventType::kSpanEnd && !stack.empty()) {
        const Frame f = stack.back();
        stack.pop_back();
        const int64_t dur = e.ts_ns - f.begin_ns;
        self[f.name] += 1e-9 * static_cast<double>(dur - f.child_ns);
        if (!stack.empty()) stack.back().child_ns += dur;
      }
    }
  }
  return self;
}

// Model-clock spans reported as model.<span>.self_s.
constexpr const char* kModelSpans[] = {
    "map_iter",  "map_iter_frontier", "reduce_iter", "sort",
    "combine",   "shuffle_flush",     "join_index_build", "dfs_read",
    "dfs_write", "spill_write",       "checkpoint",  "session_update"};

// ---------------------------------------------------------------- rounds --

struct RoundResult {
  bool traced = false;
  bool ok = false;
  std::string failure;
  double setup_s = 0;
  double job_s = 0;
  double cpu_s = 0;
  double steal_ratio = 0;  // share of CPU time stolen during set-up + job
  double peak_rss_mb = 0;  // resident-set peak of set-up + job
  std::vector<double> update_ms;  // sssp-session: one per apply_update
  std::map<std::string, double> layer;
};

bool pagerank_matches(const std::vector<double>& got,
                      const std::vector<double>& want, std::string* why) {
  if (got.size() != want.size()) {
    *why = "pagerank output has the wrong node count";
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - want[i]) <=
          kPageRankRelTol * std::fabs(want[i]) + 1e-15)) {
      *why = "pagerank rank of node " + std::to_string(i) +
             " differs from the reference";
      return false;
    }
  }
  return true;
}

class Bench {
 public:
  Bench(const Options& opt, const Inputs& in, HostSpans& spans)
      : opt_(opt), in_(in), spans_(spans) {}

  RoundResult run_round(int round, bool traced);

 private:
  void fill_layer(RoundResult& r, Cluster& cluster, const Counters& before,
                  const Counters& after, const Usage& u0, const Usage& u1,
                  const std::vector<RunReport>& reports);

  const Options& opt_;
  const Inputs& in_;
  HostSpans& spans_;
};

RoundResult Bench::run_round(int round, bool traced) {
  RoundResult r;
  r.traced = traced;
  TraceRecorder& recorder = TraceRecorder::instance();
  if (traced) {
    recorder.enable(1u << 17);
  } else {
    recorder.disable();
  }
  const Workload w = opt_.workload;
  const Sizes& s = in_.sizes;
  reset_rss_hwm();
  const CpuTicks k0 = cpu_ticks_now();
  const auto t_round = Clock::now();
  try {
    // ---- set-up: cluster, input load, partitioner, engine/session ----
    std::unique_ptr<Cluster> cluster;
    std::shared_ptr<const Partitioner> partitioner;
    std::optional<IterativeEngine> engine;
    std::optional<IterativeDriver> driver;
    std::optional<JobSession> session;
    IterJobConf conf;
    r.layer["cluster.build_s"] =
        spans_.time("cluster.build", "setup", round, [&] {
          cluster = std::make_unique<Cluster>(cluster_config(opt_.seed));
        });
    r.layer["algorithms.load_s"] =
        spans_.time("algorithms.load", "setup", round, [&] {
          if (w == Workload::kSsspSession) {
            imr::Sssp::setup(*cluster, in_.graph, in_.sssp_source, "in");
          } else {
            imr::PageRank::setup(*cluster, in_.graph, "in");
          }
        });
    r.layer["graph.partition_s"] =
        spans_.time("graph.partition", "setup", round,
                    [&] { partitioner = make_partitioner(w, in_); });
    std::vector<RunReport> reports;
    r.layer["engine.open_s"] =
        spans_.time("engine.open", "setup", round, [&] {
          switch (w) {
            case Workload::kPagerankBulk:
            case Workload::kPagerankAggSpill:
              conf = imr::PageRank::imapreduce("in", "out",
                                               in_.graph.num_nodes(),
                                               s.pagerank_iterations);
              conf.num_tasks = kTasks;
              conf.partitioner = partitioner;
              if (w == Workload::kPagerankAggSpill) {
                conf.aggregated_shuffle = true;
                conf.buffer_records = s.agg_buffer_records;
                conf.max_task_memory_bytes = s.task_memory_bytes;
              }
              engine.emplace(*cluster);
              break;
            case Workload::kSsspSession:
              conf = sssp_session_conf();
              conf.partitioner = partitioner;
              engine.emplace(*cluster);
              session.emplace(engine->open_session(conf));
              break;
            case Workload::kPagerankMr:
              driver.emplace(*cluster);
              break;
          }
        });
    const auto t_job = Clock::now();
    r.setup_s = seconds_between(t_round, t_job);
    spans_.add("setup", "round", round, t_round, t_job);

    // ---- timed phase ----
    const Counters before = Counters::of(cluster->metrics());
    const Usage u0 = usage_now();
    const auto t0 = Clock::now();
    switch (w) {
      case Workload::kPagerankBulk:
      case Workload::kPagerankAggSpill:
        reports.push_back(engine->run(conf));
        break;
      case Workload::kSsspSession:
        for (std::size_t i = 0; i < in_.script.size(); ++i) {
          const auto tu = Clock::now();
          reports.push_back(session->apply_update(in_.script[i]));
          const auto tv = Clock::now();
          r.update_ms.push_back(1e3 * seconds_between(tu, tv));
          spans_.add("session.apply_update", "job", round, tu, tv);
        }
        break;
      case Workload::kPagerankMr: {
        imr::IterativeSpec spec = imr::PageRank::baseline(
            "in", "work", in_.graph.num_nodes(), s.pagerank_iterations);
        spec.num_map_tasks = kTasks;
        spec.num_reduce_tasks = kTasks;
        reports.push_back(driver->run(spec));
        break;
      }
    }
    const auto t1 = Clock::now();
    const CpuTicks k1 = cpu_ticks_now();
    const Usage u1 = usage_now();
    r.steal_ratio = k1.total > k0.total
                        ? static_cast<double>(k1.steal - k0.steal) /
                              static_cast<double>(k1.total - k0.total)
                        : 0.0;
    const Counters after = Counters::of(cluster->metrics());
    r.peak_rss_mb = rss_hwm_mb();
    r.job_s = seconds_between(t0, t1);
    r.cpu_s = u1.cpu_s - u0.cpu_s;
    spans_.add("job", "round", round, t0, t1);
    if (w != Workload::kSsspSession) r.update_ms.push_back(1e3 * r.job_s);
    fill_layer(r, *cluster, before, after, u0, u1, reports);

    // ---- verification (untimed) ----
    const auto tv0 = Clock::now();
    std::string why;
    bool ok = true;
    for (const RunReport& rep : reports) {
      if (w == Workload::kSsspSession && !rep.converged) {
        ok = false;
        why = "a session epoch did not reconverge";
      }
    }
    if (ok && w == Workload::kSsspSession) {
      session->close();
      const auto state = read_state(*cluster, "out");
      const auto dist = imr::Sssp::read_result_imr(
          *cluster, "out", in_.final_graph.num_nodes());
      if (state != in_.cold_state) {
        ok = false;
        why = "session state differs from a cold run over the final graph";
      } else if (dist != in_.sssp_reference) {
        ok = false;
        why = "sssp distances differ from Sssp::reference";
      }
    } else if (ok) {
      const auto ranks =
          w == Workload::kPagerankMr
              ? imr::PageRank::read_result_mr(*cluster, driver->final_output(),
                                              in_.graph.num_nodes())
              : imr::PageRank::read_result_imr(*cluster, "out",
                                               in_.graph.num_nodes());
      ok = pagerank_matches(ranks, in_.pagerank_reference, &why);
    }
    if (ok && w == Workload::kPagerankAggSpill) {
      const int64_t open = after.count("imr_spill_bytes_written") -
                           after.count("imr_spill_bytes_read") -
                           after.count("imr_spill_bytes_dropped");
      if (open != 0 || !cluster->dfs().list("spill/").empty()) {
        ok = false;
        why = "spill ledger left " + std::to_string(open) +
              " bytes open or runs under spill/";
      }
    }
    r.ok = ok;
    r.failure = why;
    const auto tv1 = Clock::now();
    spans_.add("verify", "round", round, tv0, tv1);

    // ---- teardown (untimed) ----
    session.reset();
    engine.reset();
    driver.reset();
    cluster.reset();
    // Hand the round's freed heap back to the OS so every round starts from
    // the same allocator state and its resident-set peak measures that
    // round's footprint, not fragmentation left by earlier rounds.
    malloc_trim(0);
    spans_.add("teardown", "round", round, tv1, Clock::now());
  } catch (const std::exception& e) {
    r.ok = false;
    r.failure = std::string("exception: ") + e.what();
  }
  spans_.add("round", "", round, t_round, Clock::now());

  if (traced) {
    recorder.disable();
    int64_t dropped = 0;
    const auto self = model_self_seconds(recorder.snapshot(), &dropped);
    for (const char* name : kModelSpans) {
      auto it = self.find(name);
      r.layer[std::string("model.") + name + ".self_s"] =
          it == self.end() ? 0.0 : it->second;
    }
    r.layer["trace_dropped_events"] = static_cast<double>(dropped);
    if (!opt_.out_dir.empty() && round == 1) {
      recorder.export_to_file(opt_.out_dir + "/" + opt_.workload_name +
                              "-seed" + std::to_string(opt_.seed) +
                              ".model_trace.json");
    }
    recorder.reset();
  }
  return r;
}

void Bench::fill_layer(RoundResult& r, Cluster& cluster,
                       const Counters& before, const Counters& after,
                       const Usage& u0, const Usage& u1,
                       const std::vector<RunReport>& reports) {
  auto& L = r.layer;
  auto diff = [&](const std::string& name) {
    return static_cast<double>(after.count(name) - before.count(name));
  };
  auto cat = [](TrafficCategory c) { return static_cast<int>(c); };
  auto traffic = [&](TrafficCategory c) {
    return static_cast<double>(after.bytes[cat(c)] - before.bytes[cat(c)]);
  };
  L["engine.run_s"] = r.job_s;
  L["imapreduce.iterations"] = diff("imr_iterations");
  L["imapreduce.map_input_records"] = diff("imr_map_input_records");
  L["imapreduce.records_per_s"] = diff("imr_map_input_records") / r.job_s;
  const std::pair<const char*, TrafficCategory> channels[] = {
      {"shuffle", TrafficCategory::kShuffle},
      {"reduce_to_map", TrafficCategory::kReduceToMap},
      {"shuffle_agg", TrafficCategory::kShuffleAgg},
      {"control", TrafficCategory::kControl}};
  for (const auto& [name, c] : channels) {
    L[std::string("net.") + name + ".bytes"] = traffic(c);
    L[std::string("net.") + name + ".transfers"] = static_cast<double>(
        after.transfers[cat(c)] - before.transfers[cat(c)]);
  }
  double remote = 0;
  for (int i = 0; i < imr::kNumTrafficCategories; ++i) {
    remote += static_cast<double>(after.remote[i] - before.remote[i]);
  }
  L["net.remote_bytes"] = remote;
  double shuffled = 0, shuffled_remote = 0;
  for (TrafficCategory c :
       {TrafficCategory::kShuffle, TrafficCategory::kShuffleAgg}) {
    shuffled += traffic(c);
    shuffled_remote +=
        static_cast<double>(after.remote[cat(c)] - before.remote[cat(c)]);
  }
  L["net.locality_ratio"] =
      shuffled > 0 ? (shuffled - shuffled_remote) / shuffled : 0.0;
  L["graph.edge_cut"] = static_cast<double>(in_.edge_cut);

  L["dfs.spill_bytes"] = diff("imr_spill_bytes_written");
  L["dfs.spill_runs"] = diff("imr_spill_runs_written");
  const double hwm = static_cast<double>(cluster.metrics().gauge("imr_arena_hwm"));
  L["common.arena_hwm_bytes"] = hwm;
  const bool budgeted = opt_.workload == Workload::kPagerankAggSpill;
  L["common.arena_hwm_to_budget"] =
      budgeted ? hwm / static_cast<double>(in_.sizes.task_memory_bytes) : 0.0;
  L["dfs.read_bytes"] = traffic(TrafficCategory::kDfsRead);
  L["dfs.write_bytes"] = traffic(TrafficCategory::kDfsWrite);
  L["dfs.checkpoint_bytes"] = traffic(TrafficCategory::kCheckpoint);
  double live = 0;
  for (const std::string& path : cluster.dfs().list("")) {
    live += static_cast<double>(cluster.dfs().file_bytes(path));
  }
  L["dfs.live_bytes"] = live;
  L["mapreduce.jobs"] = diff("jobs_submitted");
  L["imapreduce.session_epochs"] = diff("imr_session_epochs");
  L["imapreduce.delta_ops_applied"] = diff("imr_delta_ops_applied");

  L["process.cores_busy"] = r.cpu_s / r.job_s;
  L["process.vol_ctx_switches"] = static_cast<double>(u1.vol_ctx - u0.vol_ctx);
  L["process.invol_ctx_switches"] =
      static_cast<double>(u1.invol_ctx - u0.invol_ctx);
  L["process.minor_faults"] =
      static_cast<double>(u1.minor_faults - u0.minor_faults);

  double model_ms = 0, model_init_ms = 0;
  for (const RunReport& rep : reports) {
    model_ms += rep.total_wall_ms;
    model_init_ms += rep.init_wall_ms;
  }
  L["model.job_s"] = model_ms / 1e3;
  L["model.init_s"] = model_init_ms / 1e3;
}

// --------------------------------------------------------------- summary --

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// The rounds the hypervisor disturbed least. On a shared VM, host
// contention ("steal") stretches wall time by far more than the stolen share
// itself, since every barrier waits for the descheduled CPU, and it comes in
// episodes, some longer than a run. So each kind of round (traced / untraced) is
// ranked by its stolen share, and the medians use the rounds stolen from no
// more than kQuietSteal, or, when fewer than a quarter of the rounds (or
// kMinRoundsUsed) are that quiet, the least-stolen quarter. The rank uses
// the hypervisor's accounting, never the round's own timings.
constexpr double kQuietSteal = 0.01;
constexpr std::size_t kMinRoundsUsed = 5;

std::vector<const RoundResult*> least_stolen(
    const std::vector<RoundResult>& rounds) {
  std::vector<const RoundResult*> kept;
  for (bool traced : {false, true}) {
    std::vector<const RoundResult*> kind;
    for (const RoundResult& r : rounds) {
      if (r.traced == traced) kind.push_back(&r);
    }
    std::stable_sort(kind.begin(), kind.end(),
                     [](const RoundResult* a, const RoundResult* b) {
                       return a->steal_ratio < b->steal_ratio;
                     });
    std::size_t keep =
        std::min(kind.size(), std::max(kMinRoundsUsed, (kind.size() + 3) / 4));
    while (keep < kind.size() && kind[keep]->steal_ratio <= kQuietSteal) {
      ++keep;
    }
    kept.insert(kept.end(), kind.begin(), kind.begin() + keep);
  }
  return kept;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

// Units of the per-layer metrics, by name (model.* spans are model_s).
std::string layer_unit(const std::string& name) {
  if (name.rfind("model.", 0) == 0) return "model_s";
  auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_per_s")) return "1/s";
  if (ends_with("_ms")) return "ms";
  if (ends_with("_s")) return "s";
  if (ends_with("bytes")) return "bytes";
  if (ends_with("ratio") || ends_with("_to_budget") ||
      name == "process.cores_busy") {
    return "ratio";
  }
  return "count";
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s", i ? ", " : "");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}");
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "imr_perfbench: %s\nusage: imr_perfbench --workload "
               "pagerank-bulk|pagerank-agg-spill|sssp-session|pagerank-mr "
               "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
               "[--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      auto w = parse_workload(value);
      if (!w) return usage_error("unknown workload");
      opt.workload = *w;
      opt.workload_name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") return usage_error("bad scale");
      opt.scale = value;
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage_error("unknown flag");
    }
  }
  if (!have_workload || argc % 2 == 0) return usage_error("bad arguments");
  if (!(opt.seconds > 0)) return usage_error("--seconds must be > 0");

  const auto t_start = Clock::now();
  Inputs in;
  try {
    in = make_inputs(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "imr_perfbench: input generation failed: %s\n",
                 e.what());
    return 1;
  }
  const double gen_s = seconds_between(t_start, Clock::now());

  HostSpans spans(Clock::now());
  Bench bench(opt, in, spans);
  int attempted = 0, failed = 0;
  std::vector<std::string> failures;
  std::vector<RoundResult> measured;
  auto account = [&](const RoundResult& r) {
    ++attempted;
    if (!r.ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(r.failure);
    }
  };
  // Warm-up: verified and counted, but excluded from the medians (lazy
  // process-level set-up and first-touch costs are paid once, not per job).
  const auto t_warm = Clock::now();
  for (int i = 0; i < kWarmupRounds ||
                  seconds_between(t_warm, Clock::now()) < kWarmupSeconds;
       ++i) {
    account(bench.run_round(0, false));
  }
  const auto t_measure = Clock::now();
  for (int round = 1;; ++round) {
    const bool traced = opt.trace && round % 2 == 1;
    RoundResult r = bench.run_round(round, traced);
    account(r);
    if (r.ok) measured.push_back(std::move(r));
    const bool enough = measured.size() >= (opt.trace ? 2u : 1u);
    if (enough && seconds_between(t_measure, Clock::now()) >= opt.seconds) {
      break;
    }
  }
  if (!opt.out_dir.empty() && opt.trace) {
    spans.write_jsonl(opt.out_dir + "/" + opt.workload_name + "-seed" +
                      std::to_string(opt.seed) + ".host_spans.jsonl");
  }

  // ---- reduce rounds to medians ----
  std::vector<double> setup, job, cpu, updates, traced_job, untraced_job;
  std::vector<double> steal_all, steal_used, rss;
  std::map<std::string, std::vector<double>> layer;
  for (const RoundResult& r : measured) {
    if (opt.trace == r.traced) steal_all.push_back(r.steal_ratio);
  }
  for (const RoundResult* rp : least_stolen(measured)) {
    const RoundResult& r = *rp;
    (r.traced ? traced_job : untraced_job).push_back(r.job_s);
    if (opt.trace != r.traced) continue;
    steal_used.push_back(r.steal_ratio);
    rss.push_back(r.peak_rss_mb);
    setup.push_back(r.setup_s);
    job.push_back(r.job_s);
    cpu.push_back(r.cpu_s);
    updates.insert(updates.end(), r.update_ms.begin(), r.update_ms.end());
    for (const auto& [name, v] : r.layer) layer[name].push_back(v);
  }
  std::vector<Metric> metrics;
  std::vector<Metric> diagnostics;
  diagnostics.push_back({"input_generation_s", "s", gen_s});
  diagnostics.push_back({"process.maxrss_at_exit_mb", "MB", maxrss_mb()});
  diagnostics.push_back({"rounds", "count",
                         static_cast<double>(steal_all.size())});
  diagnostics.push_back({"rounds_used", "count",
                         static_cast<double>(job.size())});
  diagnostics.push_back({"steal_ratio_median_all", "ratio",
                         median(steal_all)});
  diagnostics.push_back({"steal_ratio_max_used", "ratio",
                         steal_used.empty() ? 0.0 : *std::max_element(
                             steal_used.begin(), steal_used.end())});
  diagnostics.push_back({"update_samples", "count",
                         static_cast<double>(updates.size())});
  diagnostics.push_back({"imapreduce.update_p90_ms", "ms",
                         quantile(updates, 0.9)});
  if (!opt.trace) {
    metrics.push_back({"setup_s", "s", median(setup)});
    metrics.push_back({"job_s", "s", median(job)});
    metrics.push_back({"cpu_s", "s", median(cpu)});
    metrics.push_back({"peak_rss_mb", "MB", median(rss)});
    metrics.push_back({"update_p50_ms", "ms", median(updates)});
  } else {
    for (const auto& [name, values] : layer) {
      metrics.push_back({name, layer_unit(name), median(values)});
    }
    metrics.push_back({"imapreduce.update_p90_ms", "ms",
                       quantile(updates, 0.9)});
    const double base = median(untraced_job);
    metrics.push_back({"trace_overhead_ratio", "ratio",
                       base > 0 ? median(traced_job) / base : 0.0});
  }

  const Sizes& s = in.sizes;
  std::printf("{\"workload\": ");
  print_json_string(opt.workload_name);
  std::printf(", \"seed\": %llu, \"trace\": %d, \"scale\": ",
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  print_json_string(opt.scale);
  std::printf(
      ", \"inputs\": {\"nodes\": %u, \"edges\": %llu, \"edge_cut\": %lld, "
      "\"workers\": %d, \"tasks\": %d, \"pagerank_iterations\": %d, "
      "\"task_memory_bytes\": %lld, \"buffer_records\": %d, "
      "\"sssp_source\": %u, \"session_updates\": %zu, "
      "\"session_delta_ops\": %zu}",
      in.graph.num_nodes(),
      static_cast<unsigned long long>(in.graph.num_edges()),
      static_cast<long long>(in.edge_cut), kWorkers, kTasks,
      s.pagerank_iterations,
      static_cast<long long>(opt.workload == Workload::kPagerankAggSpill
                                 ? s.task_memory_bytes
                                 : 0),
      opt.workload == Workload::kPagerankAggSpill ? s.agg_buffer_records
                                                  : IterJobConf{}.buffer_records,
      in.sssp_source, in.script.size(), in.script_ops);
  std::printf(", \"attempted\": %d, \"failed\": %d, \"failures\": [",
              attempted, failed);
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::printf("%s", i ? ", " : "");
    print_json_string(failures[i]);
  }
  std::printf("], ");
  print_metrics("metrics", metrics);
  std::printf(", ");
  print_metrics("diagnostics", diagnostics);
  // Every measured round of the mode, in order: the raw data behind the
  // medians.
  std::printf(", \"rounds\": {\"fields\": [\"setup_s\", \"job_s\", "
              "\"cpu_s\", \"peak_rss_mb\", \"steal_ratio\"], \"values\": [");
  bool first = true;
  for (const RoundResult& r : measured) {
    if (r.traced != opt.trace) continue;
    std::printf("%s[%.6g, %.6g, %.6g, %.6g, %.4g]", first ? "" : ", ",
                r.setup_s, r.job_s, r.cpu_s, r.peak_rss_mb, r.steal_ratio);
    first = false;
  }
  std::printf("]}}\n");
  return 0;
}
