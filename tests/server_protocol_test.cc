// Protocol robustness: the mdsd wire codec and server must survive
// truncated frames, oversized length prefixes, corrupted payloads, unknown
// versions/types and slow-loris partial writes with clean connection
// closes — never a crash, a hang, or a desynchronized reply. These tests
// speak raw bytes (no QueryClient) so they can violate the protocol on
// purpose; CI runs them under ASan and TSan.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/wire.h"

namespace mds {
namespace {

using protocol::MessageHeader;
using protocol::MessageType;

// --- Codec unit tests (no sockets) -----------------------------------------

TEST(WireCodec, RoundTripsScalars) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU8(7);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);
  w.PutF64(3.25);
  w.PutString("mdsd");

  WireReader r(buf);
  EXPECT_EQ(r.GetU8(), 7u);
  EXPECT_EQ(r.GetU16(), 0xBEEFu);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI64(), -42);
  EXPECT_EQ(r.GetF64(), 3.25);
  EXPECT_EQ(r.GetString(), "mdsd");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireCodec, TruncatedReadFailsSticky) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU32(1);
  WireReader r(buf);
  (void)r.GetU64();  // 8 > 4 bytes present
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.GetU32(), 0u);  // sticky: later reads yield zero, not UB
  EXPECT_FALSE(r.ExpectEnd().ok());
}

TEST(WireCodec, PodVectorCountMustFitPayload) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU64(1u << 30);  // claims 2^30 int64 elements, provides none
  WireReader r(buf);
  auto v = r.GetPodVector<int64_t>();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(r.ok());
}

TEST(WireCodec, TrailingBytesRejected) {
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  w.PutU32(1);
  w.PutU8(0);
  WireReader r(buf);
  (void)r.GetU32();
  EXPECT_FALSE(r.ExpectEnd().ok());
}

TEST(ProtocolCodec, RequestReplyRoundTrips) {
  {
    protocol::BoxQueryRequest req;
    req.lo = {0.0, 1.0, 2.0};
    req.hi = {3.0, 4.0, 5.0};
    req.limit = 17;
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeBoxQueryRequest(req, &w);
    WireReader r(buf);
    protocol::BoxQueryRequest got;
    ASSERT_TRUE(DecodeBoxQueryRequest(&r, &got).ok());
    EXPECT_EQ(got.lo, req.lo);
    EXPECT_EQ(got.hi, req.hi);
    EXPECT_EQ(got.limit, req.limit);
    EXPECT_TRUE(r.ExpectEnd().ok());
  }
  {
    protocol::KnnRequest req;
    req.point = {1.5, -2.5};
    req.k = 9;
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeKnnRequest(req, &w);
    WireReader r(buf);
    protocol::KnnRequest got;
    ASSERT_TRUE(DecodeKnnRequest(&r, &got).ok());
    EXPECT_EQ(got.point, req.point);
    EXPECT_EQ(got.k, req.k);
  }
  {
    protocol::QueryReply reply;
    reply.row_count = 3;
    reply.objids = {5, 7, 11};
    reply.rows_scanned = 100;
    reply.pages_fetched = 4;
    reply.degraded = true;
    reply.chosen_path = "kd-tree";
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeQueryReply(reply, &w);
    WireReader r(buf);
    protocol::QueryReply got;
    ASSERT_TRUE(DecodeQueryReply(&r, &got).ok());
    EXPECT_EQ(got.objids, reply.objids);
    EXPECT_EQ(got.degraded, true);
    EXPECT_EQ(got.chosen_path, "kd-tree");
  }
  {
    Status in = Status::Unavailable("retry");
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    protocol::EncodeStatus(in, &w);
    WireReader r(buf);
    Status out;
    ASSERT_TRUE(protocol::DecodeStatus(&r, &out).ok());
    EXPECT_EQ(out.code(), StatusCode::kUnavailable);
    EXPECT_EQ(out.message(), "retry");
  }
}

TEST(ProtocolCodec, BoundsTailIsAdditive) {
  // An older encoder's HealthReply/ReloadReply ends before the tail: it
  // decodes as "no bounds" (dim 0).
  {
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    w.PutU8(0);
    w.PutU64(42);
    w.PutU32(2);
    WireReader r(buf);
    protocol::HealthReply got;
    got.bounds = Box({9.0}, {9.0});
    ASSERT_TRUE(protocol::DecodeHealthReply(&r, &got).ok());
    EXPECT_EQ(got.served_rows, 42u);
    EXPECT_EQ(got.bounds.dim(), 0u);
  }
  {
    protocol::ReloadReply reply;
    reply.old_epoch = 3;
    reply.new_epoch = 4;
    reply.served_rows = 99;
    reply.bounds = Box({-1.0, 0.5}, {2.0, 0.75});
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    protocol::EncodeReloadReply(reply, &w);
    WireReader r(buf);
    protocol::ReloadReply got;
    ASSERT_TRUE(protocol::DecodeReloadReply(&r, &got).ok());
    EXPECT_TRUE(r.ExpectEnd().ok());
    EXPECT_EQ(got.new_epoch, 4u);
    EXPECT_EQ(got.bounds, reply.bounds);
  }
  {
    // A present but inverted tail is refused, not taken as bounds.
    protocol::HealthReply reply;
    reply.bounds = Box({1.0}, {0.0});
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    protocol::EncodeHealthReply(reply, &w);
    WireReader r(buf);
    protocol::HealthReply got;
    EXPECT_EQ(protocol::DecodeHealthReply(&r, &got).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Per-shard pruned counters ride the last stats tail, in shard order.
    protocol::ServerStatsSnapshot stats;
    stats.shards.resize(2);
    stats.shards[0].pruned = 5;
    stats.shards[1].pruned = 7;
    stats.reply_tail_copies = 11;
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    protocol::EncodeServerStats(stats, &w);
    WireReader r(buf);
    protocol::ServerStatsSnapshot got;
    ASSERT_TRUE(protocol::DecodeServerStats(&r, &got).ok());
    EXPECT_TRUE(r.ExpectEnd().ok());
    ASSERT_EQ(got.shards.size(), 2u);
    EXPECT_EQ(got.reply_tail_copies, 11u);
    EXPECT_EQ(got.shards[0].pruned, 5u);
    EXPECT_EQ(got.shards[1].pruned, 7u);
  }
}

TEST(ProtocolCodec, RejectsInvertedAndNaNBoxBounds) {
  // An inverted box (lo > hi) or a NaN bound silently matches nothing in
  // every comparison downstream; the codec rejects both at the boundary so
  // no engine layer ever sees them.
  {
    protocol::BoxQueryRequest req;
    req.lo = {0.0, 2.0};
    req.hi = {1.0, 1.0};  // axis 1 inverted
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeBoxQueryRequest(req, &w);
    WireReader r(buf);
    protocol::BoxQueryRequest got;
    Status st = DecodeBoxQueryRequest(&r, &got);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  {
    protocol::BoxQueryRequest req;
    req.lo = {0.0, std::nan("")};
    req.hi = {1.0, 1.0};
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeBoxQueryRequest(req, &w);
    WireReader r(buf);
    protocol::BoxQueryRequest got;
    EXPECT_EQ(DecodeBoxQueryRequest(&r, &got).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // lo == hi is a legal degenerate (single point), not an inversion.
    protocol::BoxQueryRequest req;
    req.lo = {1.0, 2.0};
    req.hi = {1.0, 2.0};
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeBoxQueryRequest(req, &w);
    WireReader r(buf);
    protocol::BoxQueryRequest got;
    EXPECT_TRUE(DecodeBoxQueryRequest(&r, &got).ok());
  }
}

TEST(ProtocolCodec, RejectsNaNKnnProbe) {
  protocol::KnnRequest req;
  req.point = {0.5, std::nan("")};
  req.k = 3;
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeKnnRequest(req, &w);
  WireReader r(buf);
  protocol::KnnRequest got;
  EXPECT_EQ(DecodeKnnRequest(&r, &got).code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolCodec, RejectsOutOfRangeSampleFraction) {
  for (double pct : {0.0, -1.0, 100.5, std::nan("")}) {
    protocol::TableSampleRequest req;
    req.lo = {0.0};
    req.hi = {1.0};
    req.percent = pct;
    req.n = 5;
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeTableSampleRequest(req, &w);
    WireReader r(buf);
    protocol::TableSampleRequest got;
    Status st = DecodeTableSampleRequest(&r, &got);
    ASSERT_FALSE(st.ok()) << "percent=" << pct;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  // The boundary itself (100%) is legal: sample every page.
  protocol::TableSampleRequest req;
  req.lo = {0.0};
  req.hi = {1.0};
  req.percent = 100.0;
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  EncodeTableSampleRequest(req, &w);
  WireReader r(buf);
  protocol::TableSampleRequest got;
  EXPECT_TRUE(DecodeTableSampleRequest(&r, &got).ok());
}

TEST(ProtocolCodec, RejectsBadDimensionAndParameters) {
  {
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    w.PutU32(protocol::kMaxDim + 1);  // dim beyond the engine's cap
    WireReader r(buf);
    std::vector<double> v;
    EXPECT_FALSE(protocol::DecodeCoords(&r, &v).ok());
  }
  {
    protocol::KnnRequest req;
    req.point = {0.0};
    req.k = 1;
    std::vector<uint8_t> buf;
    WireWriter w(&buf);
    EncodeKnnRequest(req, &w);
    buf[buf.size() - 4] = 0;  // k -> 0
    buf[buf.size() - 3] = 0;
    buf[buf.size() - 2] = 0;
    buf[buf.size() - 1] = 0;
    WireReader r(buf);
    protocol::KnnRequest got;
    EXPECT_FALSE(DecodeKnnRequest(&r, &got).ok());
  }
}

// --- Live-daemon abuse ------------------------------------------------------
//
// The front-end cases run against both daemons — mdsd and mdsc over two
// shards share one wire front end, so they must survive the same abuse
// with the same answers.

enum class Daemon { kMdsd, kMdsc };

class ServerProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    config.num_rows = 20000;
    auto built = ServedDataset::Build(config);
    ASSERT_TRUE(built.ok());
    dataset_ = std::make_shared<ServedDataset>(std::move(*built));

    ServerConfig server_config;
    server_config.num_workers = 2;
    server_config.idle_timeout_ms = 1000;  // fast slow-loris verdicts
    server_ = new QueryServer(dataset_, server_config);
    ASSERT_TRUE(server_->Start().ok());

    ShardMap map;
    for (uint32_t i = 0; i < 2; ++i) {
      DatasetConfig shard = config;
      shard.shard_index = i;
      shard.shard_count = 2;
      auto part = ServedDataset::Build(shard);
      ASSERT_TRUE(part.ok());
      shards_[i] = std::make_shared<ServedDataset>(std::move(*part));
      shard_servers_[i] = new QueryServer(shards_[i], ServerConfig{});
      ASSERT_TRUE(shard_servers_[i]->Start().ok());
      map.shards.push_back({{"127.0.0.1", shard_servers_[i]->port()}});
    }
    CoordinatorConfig coordinator_config;
    coordinator_config.idle_timeout_ms = 1000;
    coordinator_ = new Coordinator(map, coordinator_config);
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  static void TearDownTestSuite() {
    coordinator_->Shutdown();
    delete coordinator_;
    coordinator_ = nullptr;
    for (uint32_t i = 0; i < 2; ++i) {
      shard_servers_[i]->Shutdown();
      delete shard_servers_[i];
      shard_servers_[i] = nullptr;
      shards_[i].reset();
    }
    server_->Shutdown();
    delete server_;
    server_ = nullptr;
    dataset_.reset();
  }

  /// True when the peer closed the connection (any read failure short of
  /// a deadline counts; a protocol-violating client only learns "closed").
  static bool ServerClosed(Socket* sock) {
    uint8_t byte = 0;
    Status st = sock->ReadFull(&byte, 1, IoDeadline::After(5000));
    return !st.ok() && st.code() != StatusCode::kUnavailable;
  }

  static std::shared_ptr<ServedDataset> dataset_;
  static QueryServer* server_;
  static std::shared_ptr<ServedDataset> shards_[2];
  static QueryServer* shard_servers_[2];
  static Coordinator* coordinator_;
};

std::shared_ptr<ServedDataset> ServerProtocolTest::dataset_;
QueryServer* ServerProtocolTest::server_ = nullptr;
std::shared_ptr<ServedDataset> ServerProtocolTest::shards_[2];
QueryServer* ServerProtocolTest::shard_servers_[2] = {nullptr, nullptr};
Coordinator* ServerProtocolTest::coordinator_ = nullptr;

/// The front-end cases, once per daemon.
class FrontEndProtocolTest : public ServerProtocolTest,
                             public ::testing::WithParamInterface<Daemon> {
 protected:
  uint16_t port() const {
    return GetParam() == Daemon::kMdsd ? server_->port()
                                       : coordinator_->port();
  }

  Socket MustConnect() const {
    auto sock = TcpConnect("127.0.0.1", port(), 5000);
    EXPECT_TRUE(sock.ok()) << sock.status().ToString();
    return std::move(*sock);
  }

  /// The daemon must still answer a well-formed request after abuse, and
  /// report its own rows and bounds: mdsd the tight box of its rows, mdsc
  /// the union of its shards' boxes.
  void ExpectServerHealthy() const {
    uint64_t rows = dataset_->num_rows();
    Box bounds = dataset_->tree().root().bounds;
    if (GetParam() == Daemon::kMdsc) {
      rows = shards_[0]->num_rows() + shards_[1]->num_rows();
      bounds = shards_[0]->tree().root().bounds;
      bounds.Extend(shards_[1]->tree().root().bounds.lo().data());
      bounds.Extend(shards_[1]->tree().root().bounds.hi().data());
    }
    auto client = QueryClient::Connect("127.0.0.1", port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto health = client->Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_EQ(health->served_rows, rows);
    EXPECT_EQ(health->bounds, bounds);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Daemons, FrontEndProtocolTest,
    ::testing::Values(Daemon::kMdsd, Daemon::kMdsc),
    [](const ::testing::TestParamInfo<Daemon>& info) {
      return std::string(info.param == Daemon::kMdsd ? "mdsd" : "mdsc");
    });

TEST_P(FrontEndProtocolTest, BadMagicClosesConnection) {
  Socket sock = MustConnect();
  std::vector<uint8_t> junk(64, 0xAB);
  ASSERT_TRUE(
      sock.WriteFull(junk.data(), junk.size(), IoDeadline::After(5000)).ok());
  EXPECT_TRUE(ServerClosed(&sock));
  ExpectServerHealthy();
}

TEST_P(FrontEndProtocolTest, OversizedLengthPrefixClosesConnection) {
  Socket sock = MustConnect();
  std::vector<uint8_t> frame;
  WireWriter w(&frame);
  w.PutU32(protocol::kFrameMagic);
  w.PutU32(0xFFFFFFFFu);  // 4 GiB claim: must be rejected before allocation
  w.PutU32(0);
  ASSERT_TRUE(
      sock.WriteFull(frame.data(), frame.size(), IoDeadline::After(5000)).ok());
  EXPECT_TRUE(ServerClosed(&sock));
  ExpectServerHealthy();
}

TEST_P(FrontEndProtocolTest, BadCrcClosesConnection) {
  std::vector<uint8_t> payload;
  WireWriter pw(&payload);
  EncodeMessageHeader(MessageHeader{}, &pw);
  pw.PutU32(0);  // deadline prefix

  std::vector<uint8_t> frame;
  protocol::AppendFrame(payload, &frame);
  frame[frame.size() - 1] ^= 0x01;  // flip a payload bit; CRC now wrong

  Socket sock = MustConnect();
  ASSERT_TRUE(
      sock.WriteFull(frame.data(), frame.size(), IoDeadline::After(5000)).ok());
  EXPECT_TRUE(ServerClosed(&sock));
  ExpectServerHealthy();
}

TEST_P(FrontEndProtocolTest, UnknownVersionClosesConnection) {
  std::vector<uint8_t> payload;
  WireWriter pw(&payload);
  MessageHeader header;
  header.version = 99;
  header.type = MessageType::kHealth;
  EncodeMessageHeader(header, &pw);
  pw.PutU32(0);

  std::vector<uint8_t> frame;
  protocol::AppendFrame(payload, &frame);
  Socket sock = MustConnect();
  ASSERT_TRUE(
      sock.WriteFull(frame.data(), frame.size(), IoDeadline::After(5000)).ok());
  EXPECT_TRUE(ServerClosed(&sock));
  ExpectServerHealthy();
}

TEST_P(FrontEndProtocolTest, UnknownTypeGetsUnimplementedReply) {
  std::vector<uint8_t> payload;
  WireWriter pw(&payload);
  MessageHeader header;
  header.type = static_cast<MessageType>(77);
  header.request_id = 5;
  EncodeMessageHeader(header, &pw);
  pw.PutU32(0);

  std::vector<uint8_t> frame;
  protocol::AppendFrame(payload, &frame);
  Socket sock = MustConnect();
  ASSERT_TRUE(
      sock.WriteFull(frame.data(), frame.size(), IoDeadline::After(5000)).ok());

  std::vector<uint8_t> reply;
  ASSERT_TRUE(
      protocol::ReadFrame(&sock, IoDeadline::After(5000), &reply).ok());
  WireReader r(reply);
  MessageHeader reply_header;
  ASSERT_TRUE(DecodeMessageHeader(&r, &reply_header).ok());
  EXPECT_EQ(reply_header.request_id, 5u);
  Status remote;
  ASSERT_TRUE(protocol::DecodeStatus(&r, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kUnimplemented);
}

TEST_P(FrontEndProtocolTest, TruncatedBodyGetsErrorReply) {
  // Well-framed payload whose body stops mid-request: the frame passes CRC,
  // decode fails cleanly, and the server answers with a status instead of
  // crashing on the short buffer.
  std::vector<uint8_t> payload;
  WireWriter pw(&payload);
  MessageHeader header;
  header.type = MessageType::kBoxQuery;
  header.request_id = 6;
  EncodeMessageHeader(header, &pw);
  pw.PutU32(0);   // deadline
  pw.PutU32(3);   // dim=3 but no coordinates follow

  std::vector<uint8_t> frame;
  protocol::AppendFrame(payload, &frame);
  Socket sock = MustConnect();
  ASSERT_TRUE(
      sock.WriteFull(frame.data(), frame.size(), IoDeadline::After(5000)).ok());

  std::vector<uint8_t> reply;
  ASSERT_TRUE(
      protocol::ReadFrame(&sock, IoDeadline::After(5000), &reply).ok());
  WireReader r(reply);
  MessageHeader reply_header;
  ASSERT_TRUE(DecodeMessageHeader(&r, &reply_header).ok());
  Status remote;
  ASSERT_TRUE(protocol::DecodeStatus(&r, &remote).ok());
  EXPECT_FALSE(remote.ok());
}

TEST_P(FrontEndProtocolTest, SlowLorisPartialFrameTimesOutCleanly) {
  // Send half a valid frame, then stall. The per-frame idle deadline
  // (1 s in this suite) must reap the connection; the server stays up.
  std::vector<uint8_t> payload;
  WireWriter pw(&payload);
  EncodeMessageHeader(MessageHeader{}, &pw);
  pw.PutU32(0);
  std::vector<uint8_t> frame;
  protocol::AppendFrame(payload, &frame);

  Socket sock = MustConnect();
  ASSERT_TRUE(
      sock.WriteFull(frame.data(), frame.size() / 2, IoDeadline::After(5000))
          .ok());
  EXPECT_TRUE(ServerClosed(&sock));  // bounded by the 5 s read deadline
  ExpectServerHealthy();
}

TEST_F(ServerProtocolTest, CachedReplyIsByteIdenticalOnTheWire) {
  // A cache-enabled server must hand back the memoized reply byte for byte
  // — same payload, same CRC-able bytes — when the same request (including
  // request_id) repeats, and differ only in the echoed request_id when a
  // different id asks for the same work.
  ServerConfig config;
  config.num_workers = 2;
  config.cache_bytes = 4u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  const size_t dim = dataset_->dim();
  auto make_request = [&](uint64_t request_id) {
    std::vector<uint8_t> payload;
    WireWriter pw(&payload);
    MessageHeader header;
    header.type = MessageType::kPointCount;
    header.request_id = request_id;
    EncodeMessageHeader(header, &pw);
    pw.PutU32(0);  // deadline
    protocol::BoxQueryRequest req;
    req.lo.assign(dim, -10.0);
    req.hi.assign(dim, 10.0);
    EncodeBoxQueryRequest(req, &pw);
    std::vector<uint8_t> frame;
    protocol::AppendFrame(payload, &frame);
    return frame;
  };

  auto connected = TcpConnect("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Socket sock = std::move(*connected);
  auto exchange = [&](uint64_t request_id) {
    const std::vector<uint8_t> frame = make_request(request_id);
    EXPECT_TRUE(
        sock.WriteFull(frame.data(), frame.size(), IoDeadline::After(5000))
            .ok());
    std::vector<uint8_t> reply;
    EXPECT_TRUE(
        protocol::ReadFrame(&sock, IoDeadline::After(5000), &reply).ok());
    return reply;
  };

  const std::vector<uint8_t> executed = exchange(1);   // miss: executes
  const std::vector<uint8_t> memoized = exchange(1);   // hit: same id
  EXPECT_EQ(memoized, executed);
  EXPECT_EQ(server.Stats().cache_hits, 1u);

  const std::vector<uint8_t> reheaded = exchange(2);   // hit: new id
  ASSERT_EQ(reheaded.size(), executed.size());
  // The request_id lives in header bytes [8, 16); everything else matches.
  EXPECT_NE(std::memcmp(reheaded.data() + 8, executed.data() + 8, 8), 0);
  EXPECT_EQ(std::memcmp(reheaded.data(), executed.data(), 8), 0);
  EXPECT_EQ(std::memcmp(reheaded.data() + 16, executed.data() + 16,
                        executed.size() - 16),
            0);
  EXPECT_EQ(server.Stats().cache_hits, 2u);

  server.Shutdown();
}

TEST_P(FrontEndProtocolTest, PipelinedBurstCorrelatesByRequestId) {
  // Raw-wire pipelining: k request frames in one write, with request ids
  // deliberately out of ascending order. The server must answer every id
  // exactly once, and each reply must be byte-identical to the reply the
  // same request gets on its own connection — only the echoed request_id
  // bytes (header [8, 16)) may differ.
  const size_t dim = dataset_->dim();
  auto make_request = [&](uint64_t request_id, double half_width) {
    std::vector<uint8_t> payload;
    WireWriter pw(&payload);
    MessageHeader header;
    header.type = MessageType::kBoxQuery;
    header.request_id = request_id;
    EncodeMessageHeader(header, &pw);
    pw.PutU32(0);  // deadline
    protocol::BoxQueryRequest req;
    req.lo.assign(dim, -half_width);
    req.hi.assign(dim, half_width);
    EncodeBoxQueryRequest(req, &pw);
    std::vector<uint8_t> frame;
    protocol::AppendFrame(payload, &frame);
    return frame;
  };

  constexpr size_t kBurst = 8;
  const double widths[kBurst] = {0.4, 1.1, 0.2, 2.0, 0.7, 1.6, 0.9, 0.5};
  // Shuffled ids: correlation must not assume arrival order == id order.
  const uint64_t ids[kBurst] = {905, 901, 908, 903, 907, 902, 906, 904};

  // Reference replies, one exchange at a time on a separate connection.
  std::vector<std::vector<uint8_t>> reference(kBurst);
  {
    Socket sock = MustConnect();
    for (size_t i = 0; i < kBurst; ++i) {
      const std::vector<uint8_t> frame = make_request(700 + i, widths[i]);
      ASSERT_TRUE(
          sock.WriteFull(frame.data(), frame.size(), IoDeadline::After(5000))
              .ok());
      ASSERT_TRUE(
          protocol::ReadFrame(&sock, IoDeadline::After(5000), &reference[i])
              .ok());
    }
  }

  // The pipelined burst: all frames in one write, then read them all.
  Socket sock = MustConnect();
  std::vector<uint8_t> burst;
  for (size_t i = 0; i < kBurst; ++i) {
    const std::vector<uint8_t> frame = make_request(ids[i], widths[i]);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(
      sock.WriteFull(burst.data(), burst.size(), IoDeadline::After(5000))
          .ok());

  std::vector<bool> answered(kBurst, false);
  for (size_t n = 0; n < kBurst; ++n) {
    std::vector<uint8_t> reply;
    ASSERT_TRUE(
        protocol::ReadFrame(&sock, IoDeadline::After(10000), &reply).ok());
    WireReader r(reply);
    MessageHeader reply_header;
    ASSERT_TRUE(DecodeMessageHeader(&r, &reply_header).ok());
    size_t slot = kBurst;
    for (size_t i = 0; i < kBurst; ++i) {
      if (ids[i] == reply_header.request_id) {
        slot = i;
        break;
      }
    }
    ASSERT_LT(slot, kBurst) << "reply for unknown id "
                            << reply_header.request_id;
    EXPECT_FALSE(answered[slot]) << "duplicate reply for id " << ids[slot];
    answered[slot] = true;

    // Byte parity with the solo exchange, modulo the request_id echo.
    const std::vector<uint8_t>& ref = reference[slot];
    ASSERT_EQ(reply.size(), ref.size()) << "slot " << slot;
    EXPECT_EQ(std::memcmp(reply.data(), ref.data(), 8), 0) << "slot " << slot;
    EXPECT_EQ(std::memcmp(reply.data() + 16, ref.data() + 16,
                          ref.size() - 16),
              0)
        << "slot " << slot;
  }
  for (size_t i = 0; i < kBurst; ++i) {
    EXPECT_TRUE(answered[i]) << "no reply for id " << ids[i];
  }
  ExpectServerHealthy();
}

TEST_P(FrontEndProtocolTest, PeerCloseMidReplyLeavesServerServing) {
  // A client that submits a large query and slams the connection shut (RST
  // via zero-linger) before reading the reply must cost the server nothing
  // but the wasted work: the reply write fails with a status — never a
  // SIGPIPE, which would kill the whole process.
  const size_t dim = dataset_->dim();
  for (int i = 0; i < 8; ++i) {
    auto sock = TcpConnect("127.0.0.1", port(), 5000);
    ASSERT_TRUE(sock.ok());
    std::vector<uint8_t> payload;
    WireWriter pw(&payload);
    MessageHeader header;
    header.type = MessageType::kBoxQuery;
    header.request_id = static_cast<uint64_t>(i) + 100;
    EncodeMessageHeader(header, &pw);
    pw.PutU32(0);
    protocol::BoxQueryRequest req;  // whole-table box: a multi-MB reply
    req.lo.assign(dim, -100.0);
    req.hi.assign(dim, 100.0);
    EncodeBoxQueryRequest(req, &pw);
    std::vector<uint8_t> frame;
    protocol::AppendFrame(payload, &frame);
    ASSERT_TRUE(
        sock->WriteFull(frame.data(), frame.size(), IoDeadline::After(5000))
            .ok());

    // Half the iterations RST immediately; the rest give the server a head
    // start so some writes fail mid-stream rather than up front.
    if (i % 2 == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    struct linger lin;
    lin.l_onoff = 1;
    lin.l_linger = 0;
    ASSERT_EQ(
        setsockopt(sock->fd(), SOL_SOCKET, SO_LINGER, &lin, sizeof(lin)), 0);
    sock->Close();  // RST: the server's pending write hits ECONNRESET/EPIPE
  }
  // The process survived every mid-reply close and still serves correctly.
  ExpectServerHealthy();
}

TEST_P(FrontEndProtocolTest, AbuseBarrageLeavesServerServing) {
  // A burst of mixed violations from several threads, then a correctness
  // probe: the server must still answer queries with exact results.
  std::vector<std::thread> abusers;
  const uint16_t target = port();
  for (int t = 0; t < 4; ++t) {
    abusers.emplace_back([t, target] {
      for (int i = 0; i < 8; ++i) {
        auto sock = TcpConnect("127.0.0.1", target, 5000);
        if (!sock.ok()) continue;
        std::vector<uint8_t> junk((t * 8 + i) % 23 + 1,
                                  static_cast<uint8_t>(i * 37 + t));
        (void)sock->WriteFull(junk.data(), junk.size(),
                              IoDeadline::After(1000));
        // Half the abusers vanish without closing properly.
        if (i % 2 == 0) sock->ShutdownBoth();
      }
    });
  }
  for (auto& a : abusers) a.join();
  ExpectServerHealthy();
}

}  // namespace
}  // namespace mds
