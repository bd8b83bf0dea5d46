// mdsc — the mds shard coordinator binary.
//
//   mdsc --shard=HOST:PORT[,HOST:PORT...] [--shard=...]...
//        | --shard-map=FILE
//        [--port=N] [--port-file=PATH]
//        [--max-in-flight=N] [--idle-timeout-ms=N]
//        [--sub-deadline-ms=N] [--hedge-delay-ms=N]
//        [--connect-timeout-ms=N]
//        [--breaker-failures=K] [--replica-backoff-ms=N]
//        [--replica-backoff-max-ms=N] [--retry-budget-ratio=R]
//        [--retry-budget-cap=N] [--leg-slack-ms=N] [--jitter-seed=N]
//
// Each --shard names the replica set of one shard (replicas separated by
// commas, nearest first); shards are given in shard order. --shard-map
// reads the same grammar from a file instead: one shard per line, '#'
// comments and blank lines skipped. The backends must be mdsd processes
// started with --shard-index=i --shard-count=N over the same --n/--seed
// (see docs/OPERATIONS.md for a copy-pasteable walkthrough).
//
// The coordinator speaks the same wire protocol as mdsd, so any mdsd
// client works against it unchanged. SIGTERM/SIGINT trigger a graceful
// drain, exactly like mdsd.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/coordinator.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

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

int Usage() {
  std::fprintf(stderr,
               "usage: mdsc --shard=HOST:PORT[,HOST:PORT...] [--shard=...]... "
               "| --shard-map=FILE\n"
               "            [--port=N] [--port-file=PATH] "
               "[--max-in-flight=N]\n"
               "            [--idle-timeout-ms=N] [--sub-deadline-ms=N] "
               "[--hedge-delay-ms=N]\n"
               "            [--connect-timeout-ms=N]\n"
               "            [--breaker-failures=K] [--replica-backoff-ms=N]\n"
               "            [--replica-backoff-max-ms=N] "
               "[--retry-budget-ratio=R]\n"
               "            [--retry-budget-cap=N] [--leg-slack-ms=N] "
               "[--jitter-seed=N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mds::CoordinatorConfig config;
  std::string map_text;  // built from --shard flags or read from --shard-map
  std::string map_file;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--shard", &v)) {
      if (!map_text.empty()) map_text += ';';
      map_text += v;
    } else if (ParseFlag(argv[i], "--shard-map", &v)) {
      map_file = v;
    } else if (ParseFlag(argv[i], "--port", &v)) {
      config.port = static_cast<uint16_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--port-file", &v)) {
      port_file = v;
    } else if (ParseFlag(argv[i], "--max-in-flight", &v)) {
      config.max_in_flight = std::stoull(v);
    } else if (ParseFlag(argv[i], "--idle-timeout-ms", &v)) {
      config.idle_timeout_ms = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--sub-deadline-ms", &v)) {
      config.sub_deadline_ms = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--hedge-delay-ms", &v)) {
      config.hedge_delay_ms = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--connect-timeout-ms", &v)) {
      config.connect_timeout_ms = std::stoull(v);
    } else if (ParseFlag(argv[i], "--breaker-failures", &v)) {
      config.breaker_failure_threshold = static_cast<uint32_t>(std::stoul(v));
      if (config.breaker_failure_threshold == 0) {
        std::fprintf(stderr, "mdsc: --breaker-failures must be >= 1\n");
        return 2;
      }
    } else if (ParseFlag(argv[i], "--replica-backoff-ms", &v)) {
      config.replica_backoff_ms = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--replica-backoff-max-ms", &v)) {
      config.replica_backoff_max_ms = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--retry-budget-ratio", &v)) {
      config.retry_budget_ratio = std::stod(v);
    } else if (ParseFlag(argv[i], "--retry-budget-cap", &v)) {
      config.retry_budget_cap = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--leg-slack-ms", &v)) {
      config.leg_slack_ms = static_cast<uint32_t>(std::stoul(v));
    } else if (ParseFlag(argv[i], "--jitter-seed", &v)) {
      config.jitter_seed = std::stoull(v);
    } else {
      return Usage();
    }
  }

  if (!map_file.empty()) {
    if (!map_text.empty()) {
      std::fprintf(stderr, "mdsc: give --shard or --shard-map, not both\n");
      return 2;
    }
    std::FILE* f = std::fopen(map_file.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "mdsc: cannot read shard map %s\n",
                   map_file.c_str());
      return 1;
    }
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      map_text.append(buf, n);
    }
    std::fclose(f);
  }
  if (map_text.empty()) return Usage();

  auto map = mds::ParseShardMap(map_text);
  if (!map.ok()) {
    std::fprintf(stderr, "mdsc: %s\n", map.status().ToString().c_str());
    return 1;
  }

  mds::Coordinator coordinator(*map, config);
  mds::Status started = coordinator.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "mdsc: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("mdsc: coordinating %zu shards, %llu rows on 127.0.0.1:%u\n",
              map->shards.size(),
              static_cast<unsigned long long>(coordinator.served_rows()),
              static_cast<unsigned>(coordinator.port()));
  std::fflush(stdout);
  if (!port_file.empty()) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "w")) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(coordinator.port()));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "mdsc: cannot write port file %s\n",
                   port_file.c_str());
      coordinator.Shutdown();
      return 1;
    }
  }

  // Park until a signal arrives; the coordinator's threads do all the work.
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) {
    sigsuspend(&mask);  // returns on any delivered signal
  }

  std::fprintf(stderr, "mdsc: signal received, draining\n");
  coordinator.Shutdown();
  std::fprintf(stderr, "mdsc: drained, exiting\n");
  return 0;
}
