// E14 (§3.5): vector data type in the database. The paper found CLR UDTs
// with generic serialization too CPU-hungry and switched to a plain binary
// column decoded by unsafe pointer copies, which "only slows down table
// scan queries by 20% compared to queries using only native SQL data
// types". Reproduced as google-benchmark scan loops over stored tables:
// native float columns vs raw-blob vector column vs element-tagged (TLV)
// vector column.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/table.h"
#include "storage/vector_codec.h"

namespace mds {
namespace {

constexpr size_t kDim = 5;
constexpr uint64_t kRows = 200000;

struct Fixture {
  MemPager pager;
  BufferPool pool{&pager, 1u << 16};
  std::unique_ptr<Table> native;
  std::unique_ptr<Table> raw_blob;
  std::unique_ptr<Table> tlv_blob;

  Fixture() {
    Rng rng(3);
    Schema native_schema({{"m0", ColumnType::kFloat32, 0},
                          {"m1", ColumnType::kFloat32, 0},
                          {"m2", ColumnType::kFloat32, 0},
                          {"m3", ColumnType::kFloat32, 0},
                          {"m4", ColumnType::kFloat32, 0}});
    Schema raw_schema({{"vec", ColumnType::kBytes,
                        static_cast<uint32_t>(RawVectorCodec::EncodedSize(kDim))}});
    Schema tlv_schema({{"vec", ColumnType::kBytes,
                        static_cast<uint32_t>(TlvVectorCodec::EncodedSize(kDim))}});
    native = std::make_unique<Table>(*Table::Create(&pool, native_schema));
    raw_blob = std::make_unique<Table>(*Table::Create(&pool, raw_schema));
    tlv_blob = std::make_unique<Table>(*Table::Create(&pool, tlv_schema));

    RowBuilder nrow(&native->schema());
    RowBuilder rrow(&raw_blob->schema());
    RowBuilder trow(&tlv_blob->schema());
    float v[kDim];
    std::vector<uint8_t> buf;
    for (uint64_t i = 0; i < kRows; ++i) {
      for (size_t j = 0; j < kDim; ++j) {
        v[j] = static_cast<float>(rng.NextGaussian());
        nrow.SetFloat32(j, v[j]);
      }
      MDS_CHECK(native->Append(nrow).ok());
      RawVectorCodec::Encode(v, kDim, &buf);
      rrow.SetBytes(0, buf.data(), buf.size());
      MDS_CHECK(raw_blob->Append(rrow).ok());
      TlvVectorCodec::Encode(v, kDim, &buf);
      trow.SetBytes(0, buf.data(), buf.size());
      MDS_CHECK(tlv_blob->Append(trow).ok());
    }
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

/// Scan summing all 5 magnitudes per row through native float columns.
void BM_ScanNativeColumns(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    double sum = 0.0;
    MDS_CHECK(f.native
                  ->Scan([&](uint64_t, RowRef ref) {
                    float v[kDim];
                    ref.GetFloat32Span(0, kDim, v);
                    for (size_t j = 0; j < kDim; ++j) sum += v[j];
                  })
                  .ok());
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanNativeColumns);

/// Scan through the raw binary vector column (the paper's unsafe-copy
/// design point).
void BM_ScanRawBlob(benchmark::State& state) {
  Fixture& f = GetFixture();
  const size_t width = RawVectorCodec::EncodedSize(kDim);
  for (auto _ : state) {
    double sum = 0.0;
    MDS_CHECK(f.raw_blob
                  ->Scan([&](uint64_t, RowRef ref) {
                    float v[kDim];
                    auto n = RawVectorCodec::DecodeInto(ref.GetBytes(0),
                                                        width, v, kDim);
                    MDS_CHECK(n.ok());
                    for (size_t j = 0; j < kDim; ++j) sum += v[j];
                  })
                  .ok());
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanRawBlob);

/// Scan through the element-tagged column (the UDT/BinaryFormatter analog).
void BM_ScanTlvBlob(benchmark::State& state) {
  Fixture& f = GetFixture();
  const size_t width = TlvVectorCodec::EncodedSize(kDim);
  for (auto _ : state) {
    double sum = 0.0;
    MDS_CHECK(f.tlv_blob
                  ->Scan([&](uint64_t, RowRef ref) {
                    auto v = TlvVectorCodec::Decode(ref.GetBytes(0), width);
                    MDS_CHECK(v.ok());
                    for (float x : *v) sum += x;
                  })
                  .ok());
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_ScanTlvBlob);

/// Pure codec micro-benchmarks (no storage).
void BM_CodecRawDecode(benchmark::State& state) {
  Rng rng(5);
  float v[kDim];
  for (size_t j = 0; j < kDim; ++j) v[j] = static_cast<float>(rng.NextGaussian());
  std::vector<uint8_t> buf;
  RawVectorCodec::Encode(v, kDim, &buf);
  float out[kDim];
  for (auto _ : state) {
    auto n = RawVectorCodec::DecodeInto(buf.data(), buf.size(), out, kDim);
    benchmark::DoNotOptimize(n);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CodecRawDecode);

void BM_CodecTlvDecode(benchmark::State& state) {
  Rng rng(5);
  float v[kDim];
  for (size_t j = 0; j < kDim; ++j) v[j] = static_cast<float>(rng.NextGaussian());
  std::vector<uint8_t> buf;
  TlvVectorCodec::Encode(v, kDim, &buf);
  for (auto _ : state) {
    auto out = TlvVectorCodec::Decode(buf.data(), buf.size());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CodecTlvDecode);

/// Console output as usual, plus one bench_util JSON row per run under
/// --json (n = iterations, wall_ms = real time per iteration).
class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  // No color: escape codes would prefix the JSON rows.
  explicit JsonRowReporter(const bench::BenchOptions& options)
      : ConsoleReporter(OO_Tabular), options_(options) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      const double per_iter_ms = run.GetAdjustedRealTime() * 1000.0 /
                                 benchmark::GetTimeUnitMultiplier(run.time_unit);
      bench::EmitJson(options_, run.benchmark_name().c_str(),
                      static_cast<uint64_t>(run.iterations), per_iter_ms, 0);
    }
  }

 private:
  bench::BenchOptions options_;
};

}  // namespace
}  // namespace mds

/// The repo-wide bench flags (--quick, --json, --n=) are consumed here,
/// before google-benchmark sees argv: it rejects flags it does not know.
/// --quick shortens every benchmark's minimum run time; --n= is accepted
/// and ignored (the table size is fixed).
int main(int argc, char** argv) {
  const mds::bench::BenchOptions options =
      mds::bench::BenchOptions::Parse(argc, argv);
  std::vector<char*> args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0 ||
        std::strcmp(argv[i], "--json") == 0 ||
        std::strncmp(argv[i], "--n=", 4) == 0) {
      continue;
    }
    args.push_back(argv[i]);
  }
  char quick_min_time[] = "--benchmark_min_time=0.01";
  if (options.quick) args.push_back(quick_min_time);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  mds::JsonRowReporter reporter(options);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
