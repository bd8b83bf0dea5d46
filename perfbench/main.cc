// mdsbench: the repository benchmark. Runs one named workload against
// embedded mdsd servers (and an mdsc coordinator for `sharded`) over
// loopback, measures through the public QueryClient, checks a seeded
// sample of replies against a brute-force oracle, and prints its metrics.
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics of a traced run. See README.md in this directory.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/kdtree.h"
#include "deploy.h"
#include "oracle.h"
#include "sdss/catalog.h"
#include "server/client.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;       ///< result file
  std::string data_dir;  ///< where dataset files are written
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && a->seconds > 0;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1";
    } else if (key == "--out") {
      a->out = val;
    } else if (key == "--data-dir") {
      a->data_dir = val;
    } else if (key == "--source-digest") {
      a->source_digest = val;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && !a->data_dir.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Metrics in print order, each with its unit.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string s = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i) s += ", ";
      s += JsonString(e.name) + ": {\"value\": " + JsonNumber(e.value) +
           ", \"unit\": " + JsonString(e.unit) + "}";
    }
    return s + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-36s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Admin connection sending Reload of the served file at a fixed cadence
/// while the measured clients run (the spill workload's writes).
class Reloader {
 public:
  Reloader(uint16_t port, std::string path) {
    thread_ = std::thread([this, port, path = std::move(path)] {
      auto client = mds::QueryClient::Connect("127.0.0.1", port);
      auto next = Clock::now() + kPeriod / 2;
      while (!stop_.load()) {
        if (Clock::now() < next) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        next += kPeriod;
        ++attempted_;
        if (!client.ok()) {
          ++failed_;
          continue;
        }
        mds::QueryOptions slow;
        slow.deadline_ms = 60000;
        const auto t0 = Clock::now();
        auto reply = client->Reload(path, slow);
        const double us = ElapsedNs(t0, Clock::now()) / 1e3;
        if (!reply.ok() || reply->new_epoch != reply->old_epoch + 1) {
          ++failed_;
        } else {
          latencies_us_.push_back(us);
        }
      }
    });
  }
  /// Stops and joins; the counters are stable afterwards.
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  ~Reloader() { Stop(); }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<double>& latencies_us() const { return latencies_us_; }

 private:
  static constexpr std::chrono::milliseconds kPeriod{500};
  std::atomic<bool> stop_{false};
  uint64_t attempted_ = 0, failed_ = 0;
  std::vector<double> latencies_us_;
  std::thread thread_;
};

/// Summed counters of the serving processes at one instant.
struct StatsPoint {
  mds::protocol::ServerStatsSnapshot front;     ///< front end
  mds::protocol::ServerStatsSnapshot backends;  ///< summed over mdsd
  uint64_t shard_requests = 0, failovers = 0, hedges = 0;
};

StatsPoint TakeStats(const Deployment& d) {
  StatsPoint p;
  for (const auto& s : d.servers()) {
    const auto st = s->Stats();
    p.backends.replies_ok += st.replies_ok;
    p.backends.cache_hits += st.cache_hits;
    p.backends.cache_misses += st.cache_misses;
    p.backends.cache_evictions += st.cache_evictions;
    p.backends.cache_bytes += st.cache_bytes;
    // The slab pool is one per process: every server reports the same
    // counters, so they are taken once.
    p.backends.slab_allocations = st.slab_allocations;
    p.backends.slab_recycles = st.slab_recycles;
    p.backends.reply_tail_copies += st.reply_tail_copies;
  }
  if (d.coordinator()) {
    p.front = d.coordinator()->Stats();
    for (const auto& shard : p.front.shards) {
      p.shard_requests += shard.requests;
      p.failovers += shard.failovers;
      p.hedges += shard.hedges_fired;
    }
  } else {
    p.front = d.servers()[0]->Stats();
  }
  return p;
}

struct Verification {
  uint64_t checked = 0;
  uint64_t mismatched = 0;
};

/// Checks every sampled reply against the oracle and, when a reference
/// single server is given, byte-compares it with that server's reply.
Verification Verify(const Plan& plan, const std::vector<SampledReply>& samples,
                    const Oracle& oracle, mds::QueryClient* reference) {
  Verification v;
  for (const SampledReply& s : samples) {
    ++v.checked;
    std::string diff = oracle.Check(plan, s);
    if (diff.empty() && reference != nullptr) {
      const Request& req = plan.pool[s.request];
      SampledReply single;
      single.request = s.request;
      mds::Status st = mds::Status::OK();
      if (req.op == kKnn) {
        auto r = reference->Knn(req.point(), kKnnK);
        st = r.status();
        if (r.ok()) single.neighbors = r->neighbors;
      } else if (req.op == kRows) {
        auto r = reference->BoxQuery(req.box(), kRowsLimit);
        st = r.status();
        if (r.ok()) {
          single.row_count = r->row_count;
          single.objids = r->objids;
        }
      } else {
        auto r = reference->PointCount(req.box());
        st = r.status();
        if (r.ok()) single.row_count = *r;
      }
      diff = st.ok() ? CompareReplies(s, single)
                     : "reference server: " + st.ToString();
      if (!diff.empty()) diff = "vs single server: " + diff;
    }
    if (!diff.empty()) {
      if (v.mismatched < 8) std::printf("ORACLE MISMATCH: %s\n", diff.c_str());
      ++v.mismatched;
    }
  }
  return v;
}

void PrintLatency(const char* label, const LatencySummary& s) {
  std::printf(
      "  %-6s n=%-8zu mean=%.1fus p50=%.1fus p99=%.1fus  highest supported: "
      "p%g=%.1fus\n",
      label, s.n, s.mean_us, s.p50_us, s.p99_us, s.top_pct, s.top_us);
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const HostInfo host = MeasureHost(args.source_digest);
  const int pinned_cpu = PinToOneCpu();
  const ProcSample proc_start = ReadProc();
  std::printf(
      "host: nproc=%u effective_parallelism=%.2f pinned_cpu=%d simd=%s "
      "build=%s sha=%s src=%s\n      %s\n",
      host.nproc, host.effective_parallelism, pinned_cpu,
      host.simd_tier.c_str(),
      host.build_type.c_str(), host.git_sha.c_str(),
      host.source_digest.c_str(), host.compiler.c_str());
  std::printf("workload %s seed %llu, %.0f s, trace %d\n",
              spec.name.c_str(), (unsigned long long)args.seed, args.seconds,
              args.trace ? 1 : 0);

  std::filesystem::create_directories(args.data_dir);
  const std::string data_path = args.data_dir + "/" + spec.name + "-" +
                                std::to_string(getpid()) + ".mds";
  struct FileCleanup {
    std::string path;
    ~FileCleanup() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
      std::filesystem::remove(path + ".trace", ec);
    }
  } cleanup{data_path};

  // Set-up, repeated so setup_s is a median. Each deployment is torn down
  // before the next is timed; the last one serves the run.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  size_t spill_pages = 0;
  for (int i = 0; i < setups; ++i) {
    dep.reset();
    double untimed = 0;
    const auto t0 = Clock::now();
    auto started = Deployment::Start(spec, data_path, &spill_pages, &untimed);
    const double s = ElapsedS(t0, Clock::now()) - untimed;
    if (!started.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   started.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(s);
    dep = std::move(*started);
  }
  std::printf("setup: %d x, median %.3f s\n", setups, Median(setup_s));

  // The oracle and, for sharded, the single-server reference: built after
  // set-up timing, from the same catalogue.
  std::shared_ptr<const mds::ServedDataset> reference_data;
  std::unique_ptr<mds::QueryServer> reference_server;
  if (spec.sharded) {
    mds::DatasetConfig config;
    config.num_rows = kDatasetRows;
    config.seed = kDatasetSeed;
    auto built = mds::ServedDataset::Build(config);
    if (!built.ok()) {
      std::fprintf(stderr, "reference build failed\n");
      return 1;
    }
    reference_data =
        std::make_shared<const mds::ServedDataset>(std::move(*built));
    reference_server = std::make_unique<mds::QueryServer>(
        reference_data, EmbeddedServerConfig());
    if (!reference_server->Start().ok()) return 1;
  } else {
    reference_data = dep->datasets()[0];
  }
  const Oracle oracle(*reference_data);
  const Plan plan =
      MakePlan(spec, args.seed, reference_data->points(), args.seconds);

  uint64_t attempted = plan.warmup.size();
  uint64_t failed = RunWarmup(dep->port(), plan);

  Cursors cursors;
  std::unique_ptr<Reloader> reloader;
  if (spec.spill) reloader = std::make_unique<Reloader>(dep->port(), data_path);
  const StatsPoint stats_before = TakeStats(*dep);
  // Untraced window (the whole run, or the first half of a traced run),
  // then the traced half.
  LoadResult run = RunClosedLoop(dep->port(), plan,
                                 args.trace ? args.seconds / 2 : args.seconds,
                                 args.seed, false, &cursors);
  LoadResult traced;
  if (args.trace) {
    traced = RunClosedLoop(dep->port(), plan, args.seconds / 2, args.seed,
                           true, &cursors);
  }
  if (reloader) reloader->Stop();
  const StatsPoint stats_after = TakeStats(*dep);

  std::vector<SampledReply> samples = std::move(run.samples);
  for (auto& s : traced.samples) samples.push_back(std::move(s));
  std::unique_ptr<mds::QueryClient> reference_client;
  if (reference_server) {
    auto c = mds::QueryClient::Connect("127.0.0.1", reference_server->port());
    if (!c.ok()) return 1;
    reference_client = std::make_unique<mds::QueryClient>(std::move(*c));
  }
  const Verification verify =
      Verify(plan, samples, oracle, reference_client.get());
  reference_client.reset();

  attempted += run.attempted + traced.attempted;
  failed += run.failed + traced.failed + verify.mismatched;
  if (reloader) {
    attempted += reloader->attempted();
    failed += reloader->failed();
  }
  for (const auto& e : run.errors) std::printf("error: %s\n", e.c_str());
  for (const auto& e : traced.errors) std::printf("error: %s\n", e.c_str());
  std::printf("oracle: %llu sampled replies checked, %llu mismatched\n",
              (unsigned long long)verify.checked,
              (unsigned long long)verify.mismatched);

  const double throughput = Ratio(run.ok, run.wall_s);
  std::vector<int64_t> all_ns;
  std::array<LatencySummary, kNumOps> per_op;
  for (size_t op = 0; op < kNumOps; ++op) {
    all_ns.insert(all_ns.end(), run.latency_ns[op].begin(),
                  run.latency_ns[op].end());
    per_op[op] = Summarize(&run.latency_ns[op]);
  }
  const LatencySummary all = Summarize(&all_ns);
  std::printf("window: %.2f s, %llu ok, %llu failed (%llu shed), %.1f req/s\n",
              run.wall_s, (unsigned long long)run.ok,
              (unsigned long long)run.failed,
              (unsigned long long)run.rejected, throughput);
  std::printf("  ok per %.0f s slice:", kSliceS);
  for (uint64_t n : run.ok_per_slice) std::printf(" %llu", (unsigned long long)n);
  std::printf("\n");
  PrintLatency("all", all);
  for (size_t op = 0; op < kNumOps; ++op) {
    PrintLatency(OpName(static_cast<Op>(op)), per_op[op]);
  }
  const double reload_us =
      reloader && !reloader->latencies_us().empty()
          ? Median(reloader->latencies_us())
          : 0.0;
  if (reloader) {
    std::printf("reloads: %llu sent, %llu failed, median %.0f us\n",
                (unsigned long long)reloader->attempted(),
                (unsigned long long)reloader->failed(), reload_us);
  }

  Metrics metrics;
  bool reconciled = true;
  if (!args.trace) {
    const double rss_mb = ReadProc().vm_hwm_mb;
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("throughput_rps", throughput, "req/s");
    metrics.Add("p50_us", all.p50_us, "us");
    metrics.Add("p99_us", all.p99_us, "us");
    for (size_t op = 0; op < kNumOps; ++op) {
      const std::string name = OpName(static_cast<Op>(op));
      metrics.Add(name + ".p50_us", per_op[op].p50_us, "us");
      metrics.Add(name + ".p99_us", per_op[op].p99_us, "us");
    }
    metrics.Add("ok_frac", 1.0 - Ratio(failed, attempted), "ratio");
    metrics.Add("rss_peak_mb", rss_mb, "MB");
  } else {
    // --- traced run: layer replay, dataset phases, wire counters --------
    std::vector<const mds::ServedDataset*> legs;
    for (const auto& ds : dep->datasets()) legs.push_back(ds.get());
    const size_t replay_n = spec.hot ? 20000 : 300;
    const auto r0 = Clock::now();
    const ReplayResult rp = Replay(plan, legs, spec.hot, replay_n);
    std::printf("replay: %llu requests in %.2f s\n",
                (unsigned long long)rp.requests, ElapsedS(r0, Clock::now()));

    LegTiming legt;
    if (dep->coordinator()) {
      std::vector<uint16_t> shard_ports;
      for (const auto& s : dep->servers()) shard_ports.push_back(s->port());
      legt = TimeCoordinatorLegs(plan, dep->port(), shard_ports, 200);
    }

    // Dataset phases, each through its public entry point.
    double generate_s = 0, kdtree_s = 0, build_s = 0, write_s = 0, load_s = 0;
    {
      mds::CatalogConfig cc;
      cc.num_objects = kDatasetRows;
      cc.seed = kDatasetSeed;
      auto t0 = Clock::now();
      mds::Catalog catalog = mds::GenerateCatalog(cc);
      generate_s = ElapsedS(t0, Clock::now());
      t0 = Clock::now();
      auto tree = mds::KdTreeIndex::Build(&catalog.colors);
      kdtree_s = ElapsedS(t0, Clock::now());
      if (!tree.ok()) return 1;
    }
    {
      mds::DatasetConfig config;
      config.num_rows = kDatasetRows;
      config.seed = kDatasetSeed;
      auto t0 = Clock::now();
      auto built = mds::ServedDataset::Build(config);
      build_s = ElapsedS(t0, Clock::now());
      if (!built.ok()) return 1;
    }
    {
      mds::DatasetFileOptions file;
      file.dataset.num_rows = kDatasetRows;
      file.dataset.seed = kDatasetSeed;
      const std::string path = data_path + ".trace";
      auto t0 = Clock::now();
      if (!mds::WriteDatasetFile(file, path).ok()) return 1;
      write_s = ElapsedS(t0, Clock::now());
      mds::ServedDataset::LoadOptions load;
      if (spill_pages) load.pool_pages = spill_pages;
      t0 = Clock::now();
      auto loaded = mds::ServedDataset::Load(path, load);
      load_s = ElapsedS(t0, Clock::now());
      if (!loaded.ok()) return 1;
    }

    // Reconciliation: the spans partition each replayed request, and the
    // front end is what the wire latency leaves over the replayed layers.
    double self_sum = 0;
    for (double v : rp.self_ns) self_sum += v;
    const double req_n = std::max<double>(1, rp.requests);
    const double layers_us = rp.root_ns / req_n / 1e3;
    const double residual_us = all.mean_us - layers_us;
    const bool spans_partition =
        std::fabs(self_sum - rp.root_ns) <= 1e-6 * rp.root_ns + 1;
    reconciled = spans_partition && residual_us >= 0;
    std::printf("\nself time per replayed request (%llu requests, %zu spans)\n",
                (unsigned long long)rp.requests, rp.spans.size());
    std::printf("  %-44s %12s %10s\n", "layer", "us/request", "of wire");
    for (size_t l = 0; l < kNumLayers; ++l) {
      const double us = rp.self_ns[l] / req_n / 1e3;
      std::printf("  %-44s %12.3f %9.1f%%\n", LayerName(static_cast<Layer>(l)),
                  us, 100 * Ratio(us, all.mean_us));
    }
    std::printf("  %-44s %12.3f %9.1f%%\n", "server front end (residual)",
                residual_us, 100 * Ratio(residual_us, all.mean_us));
    std::printf(
        "reconciliation: layers %.3f us + residual %.3f us = untraced mean "
        "%.3f us; spans partition requests: %s; residual >= 0: %s\n",
        layers_us, residual_us, all.mean_us, spans_partition ? "yes" : "NO",
        residual_us >= 0 ? "yes" : "NO");
    double traced_ns = 0;
    for (const WireSpan& s : traced.spans) traced_ns += s.end_ns - s.start_ns;
    std::printf("traced window: %zu client spans, mean %.3f us\n",
                traced.spans.size(),
                Ratio(traced_ns, traced.spans.size()) / 1e3);

    const auto& fa = stats_after.front;
    const auto& fb = stats_before.front;
    const auto& ba = stats_after.backends;
    const auto& bb = stats_before.backends;
    const double front_ops = static_cast<double>(fa.replies_ok - fb.replies_ok);
    const double backend_ops =
        static_cast<double>(ba.replies_ok - bb.replies_ok);
    const double box_n = std::max<double>(1, rp.box_executions);
    const double knn_n = std::max<double>(1, rp.knn_executions);
    const double traced_rps = Ratio(traced.ok, traced.wall_s);

    // Encode, decode and lookup spans are leaves, so their self time is
    // their whole duration (request and reply sides together).
    metrics.Add("protocol.encode_ns", rp.self_ns[kLayerEncode] / req_n, "ns");
    metrics.Add("protocol.decode_ns", rp.self_ns[kLayerDecode] / req_n, "ns");
    metrics.Add("cache.lookup_ns",
                Ratio(rp.self_ns[kLayerCacheLookup], rp.lookups), "ns");
    metrics.Add("cache.hit_ratio",
                Ratio(ba.cache_hits - bb.cache_hits,
                      (ba.cache_hits - bb.cache_hits) +
                          (ba.cache_misses - bb.cache_misses)),
                "ratio");
    metrics.Add("cache.evictions", ba.cache_evictions - bb.cache_evictions,
                "count");
    metrics.Add("cache.bytes", ba.cache_bytes, "bytes");
    metrics.Add("planner.choose_us", rp.choose_ns / box_n / 1e3, "us");
    metrics.Add("planner.kd_share", rp.kd_chosen / box_n, "ratio");
    metrics.Add("planner.regret", rp.box_executions ? rp.regret_sum / box_n : 1,
                "ratio");
    metrics.Add("scan.exec_us", rp.exec_ns / box_n / 1e3, "us");
    metrics.Add("scan.rows_scanned_per_op", rp.rows_scanned / box_n, "rows");
    metrics.Add("scan.rows_emitted_per_scanned",
                Ratio(rp.rows_emitted, rp.rows_scanned), "ratio");
    metrics.Add("scan.pages_fetched_per_op", rp.pages_fetched / box_n,
                "pages");
    metrics.Add("scan.ranges_partial_per_op", rp.ranges_partial / box_n,
                "ranges");
    metrics.Add("pool.logical_reads", rp.pool_logical, "count");
    metrics.Add("pool.physical_reads", rp.pool_physical, "count");
    metrics.Add("pool.hit_ratio",
                rp.pool_logical ? 1 - Ratio(rp.pool_physical, rp.pool_logical)
                                : 1,
                "ratio");
    metrics.Add("pool.checksums_verified", rp.pool_checksums, "count");
    metrics.Add("knn.search_us", rp.knn_ns / knn_n / 1e3, "us");
    metrics.Add("knn.leaves_examined_per_op", rp.leaves_examined / knn_n,
                "leaves");
    metrics.Add("knn.points_examined_per_op", rp.points_examined / knn_n,
                "points");
    metrics.Add("knn.top_k_pruned_per_op", rp.top_k_pruned / knn_n,
                "points");
    metrics.Add("simd.distance_evals_per_op", rp.distance_evals / knn_n,
                "evals");
    metrics.Add("dataset.generate_s", generate_s, "s");
    metrics.Add("dataset.kdtree_build_s", kdtree_s, "s");
    metrics.Add("dataset.build_s", build_s, "s");
    metrics.Add("dataset.write_s", write_s, "s");
    metrics.Add("dataset.load_s", load_s, "s");
    metrics.Add("reload.us", reload_us, "us");
    metrics.Add("frontend.residual_us", residual_us, "us");
    metrics.Add("frontend.bytes_out_per_op",
                Ratio(fa.bytes_out - fb.bytes_out, front_ops), "bytes");
    metrics.Add("frontend.in_flight_peak", fa.in_flight_peak, "count");
    metrics.Add("frontend.rejected",
                (fa.rejected_overload - fb.rejected_overload) +
                    (fa.rejected_draining - fb.rejected_draining),
                "count");
    metrics.Add("slab.allocations_per_op",
                Ratio(ba.slab_allocations - bb.slab_allocations, backend_ops),
                "count");
    metrics.Add("slab.recycle_ratio",
                Ratio(ba.slab_recycles - bb.slab_recycles,
                      ba.slab_allocations - bb.slab_allocations),
                "ratio");
    metrics.Add("slab.tail_copies_per_op",
                Ratio(ba.reply_tail_copies - bb.reply_tail_copies,
                      backend_ops),
                "count");
    metrics.Add("coord.legs_per_op",
                Ratio(stats_after.shard_requests - stats_before.shard_requests,
                      dep->coordinator() ? front_ops : 0),
                "count");
    metrics.Add("coord.leg_us", legt.leg_us, "us");
    metrics.Add("coord.merge_us", legt.merge_us, "us");
    metrics.Add("coord.failovers", stats_after.failovers - stats_before.failovers,
                "count");
    metrics.Add("coord.hedges_fired", stats_after.hedges - stats_before.hedges,
                "count");
    // Process deltas are filled in after teardown, below.
    metrics.Add("trace.overhead_frac", 1.0 - Ratio(traced_rps, throughput),
                "ratio");
  }

  dep.reset();
  reference_server.reset();
  const ProcSample proc_end = ReadProc();
  if (args.trace) {
    metrics.Add("proc.threads_delta", proc_end.threads - proc_start.threads,
                "count");
    metrics.Add("proc.fds_delta", proc_end.fds - proc_start.fds, "count");
  }
  std::printf("\nmetrics (%s):\n", args.trace ? "per layer" : "end to end");
  metrics.Print();

  const bool correct = verify.mismatched == 0 && verify.checked > 0;
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics.Json() + "}";

  if (!args.out.empty()) {
    std::ofstream f(args.out);
    f << "{\"workload\": " << JsonString(spec.name)
      << ", \"seed\": " << args.seed << ", \"seconds\": "
      << JsonNumber(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
      << ",\n \"host\": {\"nproc\": " << host.nproc
      << ", \"effective_parallelism\": "
      << JsonNumber(host.effective_parallelism)
      << ", \"pinned_cpu\": " << pinned_cpu
      << ", \"simd_tier\": " << JsonString(host.simd_tier)
      << ", \"compiler\": " << JsonString(host.compiler)
      << ", \"build_type\": " << JsonString(host.build_type)
      << ", \"git_sha\": " << JsonString(host.git_sha)
      << ", \"source_digest\": " << JsonString(host.source_digest) << "},\n"
      << " \"samples\": {";
    for (size_t op = 0; op < kNumOps; ++op) {
      f << (op ? ", " : "") << JsonString(OpName(static_cast<Op>(op)))
        << ": {\"n\": " << per_op[op].n << ", \"highest_supported_pct\": "
        << JsonNumber(per_op[op].top_pct) << ", \"at_us\": "
        << JsonNumber(per_op[op].top_us) << "}";
    }
    f << "},\n \"oracle_checked\": " << verify.checked
      << ", \"oracle_mismatched\": " << verify.mismatched
      << ",\n \"result\": " << result << "}\n";
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  if (!correct) return 3;
  if (!reconciled) {
    std::fprintf(stderr, "trace reconciliation failed\n");
    return 4;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mdsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR [--out FILE] "
                 "[--source-digest HEX]\n");
    return 2;
  }
  return perfbench::Run(args);
}
