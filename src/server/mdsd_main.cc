// mdsd — the mds query server binary.
//
//   mdsd [--port=N] [--n=ROWS] [--workers=N] [--max-in-flight=N]
//        [--seed=N] [--quick] [--port-file=PATH]
//        [--cache-bytes=N] [--no-cache]
//        [--io-threads=N]
//        [--shard-index=I --shard-count=N]
//        [--load=FILE]
//
// With --shard-count=N > 1 the process serves only the shard-index-th of N
// kd-subtree slices of the catalog (same --n and --seed on every shard);
// an mdsc coordinator (mdsc_main.cc) fans client requests out across the
// shards and merges the replies.
//
// By default, serves a synthetic SDSS color catalog over the loopback wire
// protocol (src/server/protocol.h); with --load=FILE it instead serves a
// dataset file built offline by `mdsctl build`, mmap'd read-only so
// startup skips the build entirely. --port=0 (the default) binds an
// ephemeral port and prints it; --port-file additionally writes the bound
// port to PATH so scripts (CI smoke job) can find the server without
// parsing stdout. SIGTERM/SIGINT trigger a graceful drain: in-flight
// queries complete and reply, new requests are rejected with a retryable
// status, then the process exits 0. SIGHUP (or a kReload wire request)
// hot-swaps the dataset: the new generation is loaded and validated while
// queries keep executing against the old one, then swapped in with an
// epoch bump that invalidates the response cache wholesale.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "server/server.h"

namespace {

// Signal handling: the handlers only set flags; the main thread polls
// them and runs the (non-async-signal-safe) drain or reload.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;
void HandleSignal(int) { g_stop = 1; }
void HandleHup(int) { g_reload = 1; }

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    value->clear();
    return true;
  }
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  mds::DatasetConfig dataset_config;
  mds::ServerConfig server_config;
  // The library default is cache-off (embedded tests want every request to
  // execute); the binary default is cache-on at 64 MiB.
  server_config.cache_bytes = 64u << 20;
  std::string port_file;
  std::string load_path;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--port", &v)) {
      server_config.port = static_cast<uint16_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--n", &v)) {
      dataset_config.num_rows = std::stoull(v);
    } else if (ParseFlag(argv[i], "--workers", &v)) {
      server_config.num_workers = static_cast<unsigned>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--max-in-flight", &v)) {
      server_config.max_in_flight = std::stoull(v);
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      dataset_config.seed = std::stoull(v);
    } else if (ParseFlag(argv[i], "--quick", &v)) {
      dataset_config.num_rows = 100000;
    } else if (ParseFlag(argv[i], "--port-file", &v)) {
      port_file = v;
    } else if (ParseFlag(argv[i], "--cache-bytes", &v)) {
      server_config.cache_bytes = std::stoull(v);
    } else if (ParseFlag(argv[i], "--no-cache", &v)) {
      server_config.cache_bytes = 0;
    } else if (ParseFlag(argv[i], "--io-threads", &v)) {
      server_config.io_threads = static_cast<unsigned>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--shard-index", &v)) {
      dataset_config.shard_index = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--shard-count", &v)) {
      dataset_config.shard_count = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--load", &v)) {
      load_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: mdsd [--port=N] [--n=ROWS] [--workers=N] "
                   "[--max-in-flight=N] [--seed=N] [--quick] "
                   "[--port-file=PATH] [--cache-bytes=N] [--no-cache] "
                   "[--io-threads=N] "
                   "[--shard-index=I --shard-count=N] [--load=FILE]\n");
      return 2;
    }
  }

  mds::Result<mds::ServedDataset> dataset =
      mds::Status::Internal("dataset not initialized");
  if (!load_path.empty()) {
    std::fprintf(stderr, "mdsd: loading dataset file %s\n",
                 load_path.c_str());
    dataset = mds::ServedDataset::Load(load_path);
  } else {
    std::fprintf(stderr, "mdsd: building dataset (%llu rows, seed %llu)\n",
                 static_cast<unsigned long long>(dataset_config.num_rows),
                 static_cast<unsigned long long>(dataset_config.seed));
    dataset = mds::ServedDataset::Build(dataset_config);
  }
  if (!dataset.ok()) {
    std::fprintf(stderr, "mdsd: dataset build failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  auto served =
      std::make_shared<const mds::ServedDataset>(std::move(*dataset));

  mds::QueryServer server(served, server_config);

  // Reload handler, invoked by kReload requests and SIGHUP (serialized by
  // the server). Non-empty path: load that file. Empty path: reload the
  // current source — the last loaded file, or a fresh synthetic build with
  // the startup config (a no-op generation with byte-identical replies).
  auto last_path = std::make_shared<std::string>(load_path);
  server.SetReloadHandler(
      [dataset_config, last_path](const std::string& path)
          -> mds::Result<std::shared_ptr<mds::ServedDataset>> {
        const std::string target = path.empty() ? *last_path : path;
        mds::Result<mds::ServedDataset> next =
            target.empty() ? mds::ServedDataset::Build(dataset_config)
                           : mds::ServedDataset::Load(target);
        if (!next.ok()) return next.status();
        if (!path.empty()) *last_path = path;
        return std::make_shared<mds::ServedDataset>(std::move(*next));
      });

  mds::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "mdsd: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGHUP, HandleHup);

  if (served->shard_count() > 1) {
    std::printf("mdsd: serving shard %u/%u, %llu rows on 127.0.0.1:%u\n",
                static_cast<unsigned>(served->shard_index()),
                static_cast<unsigned>(served->shard_count()),
                static_cast<unsigned long long>(served->num_rows()),
                static_cast<unsigned>(server.port()));
  } else {
    std::printf("mdsd: serving %llu rows on 127.0.0.1:%u\n",
                static_cast<unsigned long long>(served->num_rows()),
                static_cast<unsigned>(server.port()));
  }
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "mdsd: cannot write port file %s\n",
                   port_file.c_str());
      server.Shutdown();
      return 1;
    }
  }

  // Park until a signal arrives; the server's own threads do all the work.
  // SIGHUP wakes the park to run a reload of the current source on this
  // thread — queries keep executing against the old generation until the
  // swap.
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) {
    sigsuspend(&mask);  // returns on any delivered signal
    if (g_reload != 0 && g_stop == 0) {
      g_reload = 0;
      std::fprintf(stderr, "mdsd: SIGHUP received, reloading dataset\n");
      auto reloaded = server.Reload("");
      if (reloaded.ok()) {
        std::fprintf(
            stderr, "mdsd: reloaded, epoch %llu -> %llu (%llu rows)\n",
            static_cast<unsigned long long>(reloaded->old_epoch),
            static_cast<unsigned long long>(reloaded->new_epoch),
            static_cast<unsigned long long>(reloaded->served_rows));
      } else {
        std::fprintf(stderr, "mdsd: reload failed: %s\n",
                     reloaded.status().ToString().c_str());
      }
    }
  }

  std::fprintf(stderr, "mdsd: signal received, draining\n");
  server.Shutdown();
  std::fprintf(stderr, "mdsd: drained, exiting\n");
  return 0;
}
