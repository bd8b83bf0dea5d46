// The zero-copy reply path, regression-tested at the byte level: a cache
// hit must put the exact same bytes on the wire as the miss that
// populated it (re-headed in place, framed once, no payload copy), the
// BufferedSocket writev queue must survive partial writes that stop in
// the middle of an iovec, and a multi-megabyte reply must arrive intact
// through kernel backpressure. These tests speak raw frames where byte
// identity is the contract and the client library where decoding is.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/buffered_socket.h"
#include "common/crc32c.h"
#include "common/slab_pool.h"
#include "server/client.h"
#include "server/dataset.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/wire.h"

namespace mds {
namespace {

using protocol::MessageHeader;
using protocol::MessageType;

class ReplyPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatasetConfig config;
    // Enough rows that a whole-domain box reply exceeds 1 MiB of objids,
    // which both forces the oversize slice path and outruns the kernel
    // socket buffers (the backpressure test depends on that).
    config.num_rows = 150000;
    auto built = ServedDataset::Build(config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    dataset_ = std::make_shared<ServedDataset>(std::move(*built));
  }

  static void TearDownTestSuite() {
    dataset_.reset();
  }

  static Socket MustConnectRaw(const QueryServer& server) {
    auto sock = TcpConnect("127.0.0.1", server.port(), 5000);
    EXPECT_TRUE(sock.ok()) << sock.status().ToString();
    return std::move(*sock);
  }

  /// A box around the stellar locus with a healthy number of matches.
  static Box LocusBox(double half_width) {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    std::vector<double> lo(mags, mags + kNumBands);
    std::vector<double> hi = lo;
    for (size_t j = 0; j < kNumBands; ++j) {
      lo[j] -= half_width;
      hi[j] += half_width;
    }
    return Box(lo, hi);
  }

  /// Complete kBoxQuery request frame (prefix + payload) with a chosen
  /// request id — built by hand so two sends are bit-identical.
  static std::vector<uint8_t> BoxRequestFrame(uint64_t request_id,
                                              const Box& box,
                                              uint64_t limit = 0) {
    protocol::BoxQueryRequest req;
    req.lo = box.lo();
    req.hi = box.hi();
    req.limit = limit;
    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    MessageHeader header;
    header.type = MessageType::kBoxQuery;
    header.request_id = request_id;
    EncodeMessageHeader(header, &w);
    w.PutU32(0);  // deadline_ms
    EncodeBoxQueryRequest(req, &w);
    std::vector<uint8_t> frame;
    protocol::AppendFrame(payload, &frame);
    return frame;
  }

  /// Reads one complete raw reply frame (prefix + payload) and checks the
  /// frame invariants (magic, CRC over the payload bytes).
  static std::vector<uint8_t> ReadRawFrame(Socket* sock) {
    std::vector<uint8_t> frame(protocol::kFramePrefixBytes);
    Status st =
        sock->ReadFull(frame.data(), frame.size(), IoDeadline::After(10000));
    EXPECT_TRUE(st.ok()) << st.ToString();
    if (!st.ok()) return {};
    uint32_t magic = 0, payload_len = 0, crc = 0;
    std::memcpy(&magic, frame.data(), 4);
    std::memcpy(&payload_len, frame.data() + 4, 4);
    std::memcpy(&crc, frame.data() + 8, 4);
    EXPECT_EQ(magic, protocol::kFrameMagic);
    EXPECT_LE(payload_len, protocol::kMaxPayloadBytes);
    frame.resize(protocol::kFramePrefixBytes + payload_len);
    st = sock->ReadFull(frame.data() + protocol::kFramePrefixBytes,
                        payload_len, IoDeadline::After(10000));
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(Crc32c(frame.data() + protocol::kFramePrefixBytes, payload_len),
              crc);
    return frame;
  }

  static std::shared_ptr<ServedDataset> dataset_;
};

std::shared_ptr<ServedDataset> ReplyPathTest::dataset_;

// Satellite bugfix #1: a cache hit is the SAME bytes as the miss that
// populated it. Sending the identical request frame twice (same request
// id) must produce two byte-identical reply frames — any divergence means
// the hit path re-encoded, re-framed, or re-copied the payload.
TEST_F(ReplyPathTest, CacheHitReplyBytesIdenticalToMissReply) {
  ServerConfig config;
  config.num_workers = 2;
  config.cache_bytes = 4u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  Socket sock = MustConnectRaw(server);
  const std::vector<uint8_t> request = BoxRequestFrame(901, LocusBox(0.5));

  ASSERT_TRUE(sock.WriteFull(request.data(), request.size(),
                             IoDeadline::After(5000))
                  .ok());
  const std::vector<uint8_t> miss_reply = ReadRawFrame(&sock);
  ASSERT_FALSE(miss_reply.empty());

  ASSERT_TRUE(sock.WriteFull(request.data(), request.size(),
                             IoDeadline::After(5000))
                  .ok());
  const std::vector<uint8_t> hit_reply = ReadRawFrame(&sock);

  EXPECT_EQ(hit_reply, miss_reply);

  // The hit decodes as a well-formed successful reply.
  WireReader r(hit_reply.data() + protocol::kFramePrefixBytes,
               hit_reply.size() - protocol::kFramePrefixBytes);
  MessageHeader header;
  ASSERT_TRUE(DecodeMessageHeader(&r, &header).ok());
  EXPECT_EQ(header.request_id, 901u);
  EXPECT_NE(header.flags & protocol::kFlagReply, 0u);
  Status remote;
  ASSERT_TRUE(protocol::DecodeStatus(&r, &remote).ok());
  EXPECT_TRUE(remote.ok()) << remote.ToString();
  protocol::QueryReply reply;
  ASSERT_TRUE(DecodeQueryReply(&r, &reply).ok());
  EXPECT_GT(reply.row_count, 0u);

  // And the server counted it as an inline cache hit.
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto stats = client->ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->cache_hits, 1u);
  EXPECT_GE(stats->cache_misses, 1u);

  server.Shutdown();
}

// A hit for a different requester re-heads the cached payload in place:
// the reply may differ from the original ONLY in the request-id field of
// the message header and the frame CRC that covers it.
TEST_F(ReplyPathTest, CacheHitReheadsOnlyRequestIdAndCrc) {
  ServerConfig config;
  config.num_workers = 2;
  config.cache_bytes = 4u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  Socket sock = MustConnectRaw(server);
  const Box box = LocusBox(0.5);

  const std::vector<uint8_t> first = BoxRequestFrame(31, box);
  ASSERT_TRUE(
      sock.WriteFull(first.data(), first.size(), IoDeadline::After(5000))
          .ok());
  const std::vector<uint8_t> miss_reply = ReadRawFrame(&sock);
  ASSERT_FALSE(miss_reply.empty());

  const std::vector<uint8_t> second = BoxRequestFrame(32, box);
  ASSERT_TRUE(
      sock.WriteFull(second.data(), second.size(), IoDeadline::After(5000))
          .ok());
  const std::vector<uint8_t> hit_reply = ReadRawFrame(&sock);

  ASSERT_EQ(hit_reply.size(), miss_reply.size());
  // Frame layout: [0,8) magic+len, [8,12) crc, [12,28) message header of
  // which [20,28) is the request id, then the cached tail.
  for (size_t i = 0; i < hit_reply.size(); ++i) {
    const bool is_crc = i >= 8 && i < 12;
    const bool is_request_id = i >= 20 && i < 28;
    if (is_crc || is_request_id) continue;
    ASSERT_EQ(hit_reply[i], miss_reply[i]) << "byte " << i << " differs";
  }
  WireReader r(hit_reply.data() + protocol::kFramePrefixBytes,
               hit_reply.size() - protocol::kFramePrefixBytes);
  MessageHeader header;
  ASSERT_TRUE(DecodeMessageHeader(&r, &header).ok());
  EXPECT_EQ(header.request_id, 32u);

  server.Shutdown();
}

// The zero-copy gauge: serving hits must perform no payload memcpy and no
// slab allocation. reply_tail_copies / slab_allocations move only for
// executed (miss) replies, so their deltas across a pure-hit pass are
// bounded by the one stats reply that follows the first snapshot.
TEST_F(ReplyPathTest, CacheHitPassCopiesNoPayloadBytes) {
  ServerConfig config;
  config.num_workers = 2;
  config.cache_bytes = 8u << 20;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = QueryClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // Prime the cache with 8 distinct boxes (all misses).
  std::vector<Box> boxes;
  for (int i = 0; i < 8; ++i) {
    boxes.push_back(LocusBox(0.30 + 0.02 * i));
  }
  auto before_misses = client->ServerStats();
  ASSERT_TRUE(before_misses.ok());
  for (const Box& box : boxes) {
    auto result = client->BoxQuery(box);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  auto before_hits = client->ServerStats();
  ASSERT_TRUE(before_hits.ok());
  // Every miss copied its scratch payload into a slab slice exactly once.
  EXPECT_GE(before_hits->reply_tail_copies - before_misses->reply_tail_copies,
            boxes.size());
  EXPECT_GE(before_hits->slab_allocations - before_misses->slab_allocations,
            boxes.size());

  // Pure-hit pass: the same boxes, five rounds.
  uint64_t hits = 0;
  for (int round = 0; round < 5; ++round) {
    for (const Box& box : boxes) {
      auto result = client->BoxQuery(box);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ++hits;
    }
  }
  auto after_hits = client->ServerStats();
  ASSERT_TRUE(after_hits.ok());
  EXPECT_GE(after_hits->cache_hits - before_hits->cache_hits, hits);
  // <= 1, not == 0: the before_hits stats reply itself is written (one
  // slice, one copy) after its snapshot was taken.
  EXPECT_LE(after_hits->reply_tail_copies - before_hits->reply_tail_copies,
            1u);
  EXPECT_LE(after_hits->slab_allocations - before_hits->slab_allocations,
            1u);
  // Cache entries pin live slab bytes.
  EXPECT_GT(after_hits->slab_bytes_in_use, 0u);

  server.Shutdown();
}

// Satellite bugfix #3, unit level: a writev that stops partway through a
// buffer (tiny SO_SNDBUF forces it constantly) must resume at the exact
// byte offset, across a queue that mixes owned vectors and refcounted
// slab slices of wildly different sizes.
TEST_F(ReplyPathTest, PartialWritevResumesMidIovecOverSocketpair) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink the send buffer so nearly every flush ends mid-buffer.
  int sndbuf = 4096;
  ASSERT_EQ(setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &sndbuf,
                       sizeof(sndbuf)),
            0);
  const uint64_t live_before = SlabPool::Global().Stats().live_slices;
  BufferedSocket writer{Socket(fds[0])};
  Socket reader(fds[1]);

  // Expected stream: alternating owned vectors and slab slices, sizes
  // chosen to straddle iovec boundaries at every scale (including one
  // above the writev batch the kernel will take in one go).
  const size_t sizes[] = {1,    3,     17,   256,  1000, 4093,
                          5000, 70000, 2,    300000, 9,   131072};
  std::vector<uint8_t> expected;
  uint64_t state = 0x1234;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  size_t chunk_index = 0;
  for (int lap = 0; lap < 3; ++lap) {
    for (size_t n : sizes) {
      std::vector<uint8_t> bytes(n);
      for (uint8_t& b : bytes) b = static_cast<uint8_t>(next());
      expected.insert(expected.end(), bytes.begin(), bytes.end());
      if (chunk_index++ % 2 == 0) {
        writer.QueueWrite(std::move(bytes));
      } else {
        SlabPool::Slice slice = SlabPool::Global().Allocate(n);
        ASSERT_TRUE(slice);
        std::memcpy(slice.data(), bytes.data(), n);
        writer.QueueWrite(std::move(slice));
      }
    }
  }
  ASSERT_GT(expected.size(), size_t{1} << 20);
  ASSERT_EQ(writer.pending_write_bytes(), expected.size());

  // Single-threaded drain: flush until the kernel refuses, then read an
  // odd-sized chunk to open space, repeat. Every handoff lands mid-iovec
  // somewhere over ~1.5 MiB of traffic.
  std::vector<uint8_t> received;
  received.reserve(expected.size());
  uint8_t buf[3171];
  while (writer.has_pending_write()) {
    BufferedSocket::IoResult r = writer.Flush();
    ASSERT_NE(r, BufferedSocket::IoResult::kError);
    ASSERT_NE(r, BufferedSocket::IoResult::kClosed);
    if (writer.has_pending_write()) {
      const size_t want = 1 + next() % sizeof(buf);
      const ssize_t got = recv(fds[1], buf, want, 0);
      ASSERT_GT(got, 0);
      received.insert(received.end(), buf, buf + got);
    }
  }
  while (received.size() < expected.size()) {
    const size_t want = std::min(sizeof(buf), expected.size() - received.size());
    ASSERT_TRUE(
        reader.ReadFull(buf, want, IoDeadline::After(5000)).ok());
    received.insert(received.end(), buf, buf + want);
  }
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_EQ(received, expected);
  // Every queued slice was released once the kernel took its bytes.
  EXPECT_EQ(SlabPool::Global().Stats().live_slices, live_before);
}

// Satellite bugfix #3, end to end: a >1 MiB reply against a reader that
// drains slowly forces the server through EPOLLOUT re-arms and mid-iovec
// resumes; the frame must still arrive bit-perfect (CRC proves it) and
// complete.
TEST_F(ReplyPathTest, LargeReplyArrivesIntactUnderBackpressure) {
  ServerConfig config;
  config.num_workers = 2;
  QueryServer server(dataset_, config);
  ASSERT_TRUE(server.Start().ok());

  Socket sock = MustConnectRaw(server);
  // Shrink our receive window so the server's send side hits the wall
  // early and often.
  int rcvbuf = 16384;
  ASSERT_EQ(setsockopt(sock.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf)),
            0);
  // Whole-domain box: every row qualifies, the objid vector alone is
  // 150000 * 8 B = 1.2 MB.
  Box everything = Box::Bounding(dataset_->points());
  std::vector<double> lo = everything.lo(), hi = everything.hi();
  for (double& v : lo) v -= 1.0;
  for (double& v : hi) v += 1.0;
  const std::vector<uint8_t> request = BoxRequestFrame(77, Box(lo, hi));
  ASSERT_TRUE(sock.WriteFull(request.data(), request.size(),
                             IoDeadline::After(5000))
                  .ok());

  // Let the server hit the kernel wall and queue the remainder.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const std::vector<uint8_t> frame = ReadRawFrame(&sock);
  ASSERT_FALSE(frame.empty());
  ASSERT_GT(frame.size(), size_t{1} << 20);

  WireReader r(frame.data() + protocol::kFramePrefixBytes,
               frame.size() - protocol::kFramePrefixBytes);
  MessageHeader header;
  ASSERT_TRUE(DecodeMessageHeader(&r, &header).ok());
  EXPECT_EQ(header.request_id, 77u);
  Status remote;
  ASSERT_TRUE(protocol::DecodeStatus(&r, &remote).ok());
  ASSERT_TRUE(remote.ok()) << remote.ToString();
  protocol::QueryReply reply;
  ASSERT_TRUE(DecodeQueryReply(&r, &reply).ok());
  EXPECT_EQ(reply.row_count, dataset_->num_rows());
  ASSERT_EQ(reply.objids.size(), dataset_->num_rows());
  std::vector<int64_t> sorted = reply.objids;
  std::sort(sorted.begin(), sorted.end());
  for (uint64_t i = 0; i < sorted.size(); ++i) {
    ASSERT_EQ(sorted[i], static_cast<int64_t>(i));
  }

  server.Shutdown();
}

}  // namespace
}  // namespace mds
