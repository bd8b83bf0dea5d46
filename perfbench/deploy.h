// Embedded mdsd servers (and, for `sharded`, an mdsc coordinator) as a
// workload serves them.
#ifndef MDS_PERFBENCH_DEPLOY_H_
#define MDS_PERFBENCH_DEPLOY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/server.h"
#include "workload.h"

namespace perfbench {

/// Catalogue every workload serves: the synthetic SDSS colour catalogue.
inline constexpr uint64_t kDatasetRows = 1000000;
inline constexpr uint64_t kDatasetSeed = 42;
/// mdsd's own default response-cache size.
inline constexpr size_t kCacheBytes = size_t{64} << 20;

/// The mdsd configuration of every embedded server.
mds::ServerConfig EmbeddedServerConfig();

class Deployment {
 public:
  /// Builds (or, for spill workloads, writes and loads) the data, starts
  /// the servers and waits for the front end's first OK Health reply.
  /// `data_path` is where a spill workload writes its dataset file.
  /// `spill_pool_pages` is the spill pool size; when 0 it is probed from
  /// the written file and stored, and the probe's duration is added to
  /// `untimed_s` (it is not part of starting a server).
  static mds::Result<std::unique_ptr<Deployment>> Start(
      const WorkloadSpec& spec, const std::string& data_path,
      size_t* spill_pool_pages, double* untimed_s);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Front-end port (the coordinator's when sharded).
  uint16_t port() const;
  /// The generations the servers started with, one per server.
  const std::vector<std::shared_ptr<const mds::ServedDataset>>& datasets()
      const {
    return datasets_;
  }
  const std::vector<std::unique_ptr<mds::QueryServer>>& servers() const {
    return servers_;
  }
  mds::Coordinator* coordinator() const { return coordinator_.get(); }
  /// Buffer-pool pages of a file-served generation (0 when built).
  size_t spill_pool_pages() const { return spill_pool_pages_; }

 private:
  Deployment() = default;

  std::vector<std::shared_ptr<const mds::ServedDataset>> datasets_;
  std::vector<std::unique_ptr<mds::QueryServer>> servers_;
  std::unique_ptr<mds::Coordinator> coordinator_;
  size_t spill_pool_pages_ = 0;
};

/// The spill workload's pool: an eighth of the table's pages, so most
/// fetches miss and go through the checksum-verified pager path.
mds::Result<size_t> SpillPoolPages(const std::string& path);

}  // namespace perfbench

#endif  // MDS_PERFBENCH_DEPLOY_H_
