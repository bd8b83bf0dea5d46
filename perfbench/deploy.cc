#include "deploy.h"

#include <optional>
#include <thread>

#include "server/client.h"

namespace perfbench {

mds::ServerConfig EmbeddedServerConfig() {
  mds::ServerConfig config;
  config.io_threads = 1;
  config.num_workers = 2;
  config.cache_bytes = kCacheBytes;
  return config;
}

mds::Result<size_t> SpillPoolPages(const std::string& path) {
  auto probe = mds::ServedDataset::Load(path);
  if (!probe.ok()) return probe.status();
  return std::max<size_t>(1, probe->binding().table->num_pages() / 8);
}

mds::Result<std::unique_ptr<Deployment>> Deployment::Start(
    const WorkloadSpec& spec, const std::string& data_path,
    size_t* spill_pool_pages, double* untimed_s) {
  std::unique_ptr<Deployment> d(new Deployment());
  mds::DatasetConfig config;
  config.num_rows = kDatasetRows;
  config.seed = kDatasetSeed;

  if (spec.spill) {
    mds::DatasetFileOptions file;
    file.dataset = config;
    MDS_RETURN_NOT_OK(mds::WriteDatasetFile(file, data_path));
    if (*spill_pool_pages == 0) {
      const auto t0 = Clock::now();
      auto pages = SpillPoolPages(data_path);
      if (!pages.ok()) return pages.status();
      *spill_pool_pages = *pages;
      *untimed_s += ElapsedS(t0, Clock::now());
    }
    d->spill_pool_pages_ = *spill_pool_pages;
    mds::ServedDataset::LoadOptions load;
    load.pool_pages = d->spill_pool_pages_;
    auto loaded = mds::ServedDataset::Load(data_path, load);
    if (!loaded.ok()) return loaded.status();
    d->datasets_.push_back(
        std::make_shared<const mds::ServedDataset>(std::move(*loaded)));
  } else if (spec.sharded) {
    // Two mdsd processes would boot side by side; so do the two shards.
    constexpr uint32_t kShards = 2;
    std::vector<std::optional<mds::Result<mds::ServedDataset>>> built(
        kShards);
    std::vector<std::thread> threads;
    for (uint32_t i = 0; i < kShards; ++i) {
      threads.emplace_back([&, i] {
        mds::DatasetConfig shard = config;
        shard.shard_index = i;
        shard.shard_count = kShards;
        built[i].emplace(mds::ServedDataset::Build(shard));
      });
    }
    for (auto& t : threads) t.join();
    for (auto& b : built) {
      if (!b->ok()) return b->status();
      d->datasets_.push_back(
          std::make_shared<const mds::ServedDataset>(std::move(**b)));
    }
  } else {
    auto built = mds::ServedDataset::Build(config);
    if (!built.ok()) return built.status();
    d->datasets_.push_back(
        std::make_shared<const mds::ServedDataset>(std::move(*built)));
  }

  for (const auto& ds : d->datasets_) {
    d->servers_.push_back(
        std::make_unique<mds::QueryServer>(ds, EmbeddedServerConfig()));
    MDS_RETURN_NOT_OK(d->servers_.back()->Start());
  }
  if (spec.spill) {
    const size_t pool_pages = d->spill_pool_pages_;
    d->servers_[0]->SetReloadHandler(
        [data_path, pool_pages](const std::string& path)
            -> mds::Result<std::shared_ptr<mds::ServedDataset>> {
          mds::ServedDataset::LoadOptions load;
          load.pool_pages = pool_pages;
          auto next = mds::ServedDataset::Load(
              path.empty() ? data_path : path, load);
          if (!next.ok()) return next.status();
          return std::make_shared<mds::ServedDataset>(std::move(*next));
        });
  }
  if (spec.sharded) {
    mds::ShardMap map;
    for (const auto& server : d->servers_) {
      map.shards.push_back({mds::BackendAddress{"127.0.0.1", server->port()}});
    }
    d->coordinator_ =
        std::make_unique<mds::Coordinator>(map, mds::CoordinatorConfig{});
    MDS_RETURN_NOT_OK(d->coordinator_->Start());
  }

  auto client = mds::QueryClient::Connect("127.0.0.1", d->port());
  if (!client.ok()) return client.status();
  auto health = client->Health();
  if (!health.ok()) return health.status();
  if (health->served_rows != kDatasetRows || health->draining) {
    return mds::Status::Internal("front end reports " +
                                 std::to_string(health->served_rows) +
                                 " rows served");
  }
  return d;
}

Deployment::~Deployment() {
  if (coordinator_) coordinator_->Shutdown();
  for (auto& server : servers_) server->Shutdown();
}

uint16_t Deployment::port() const {
  return coordinator_ ? coordinator_->port() : servers_[0]->port();
}

}  // namespace perfbench
