#include "common/chaos_proxy.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/frame.h"

namespace mds {

namespace {

/// Forwarding chunk for the throttled direction: small enough that the
/// inter-chunk sleeps approximate a continuous bandwidth cap.
constexpr size_t kThrottleChunkBytes = 4096;

}  // namespace

ChaosProxy::ChaosProxy(std::string target_host, uint16_t target_port,
                       uint64_t seed, const ChaosPolicy& policy)
    : target_host_(std::move(target_host)),
      target_port_(target_port),
      policy_(policy),
      rng_(seed) {}

ChaosProxy::~ChaosProxy() { Shutdown(); }

Status ChaosProxy::Start() {
  if (started_) return Status::FailedPrecondition("ChaosProxy started twice");
  auto listener = TcpListener::Listen(0);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  stop_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void ChaosProxy::SetPolicy(const ChaosPolicy& policy) {
  std::lock_guard<std::mutex> lock(policy_mu_);
  policy_ = policy;
}

ChaosPolicy ChaosProxy::policy() const {
  std::lock_guard<std::mutex> lock(policy_mu_);
  return policy_;
}

ChaosProxy::Counters ChaosProxy::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

void ChaosProxy::Shutdown() {
  if (!started_) return;
  stop_.store(true);
  listener_.Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(links_mu_);
    for (auto& link : links_) {
      link->client.ShutdownBoth();
      if (link->server.valid()) link->server.ShutdownBoth();
    }
    for (auto& link : links_) {
      if (link->client_to_server.joinable()) link->client_to_server.join();
      if (link->server_to_client.joinable()) link->server_to_client.join();
    }
    links_.clear();
  }
  started_ = false;
}

double ChaosProxy::NextDraw() {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.NextDouble();
}

uint64_t ChaosProxy::NextBounded(uint64_t bound) {
  std::lock_guard<std::mutex> lock(rng_mu_);
  return rng_.NextBounded(bound);
}

void ChaosProxy::ReapDeadLinks() {
  std::lock_guard<std::mutex> lock(links_mu_);
  for (auto it = links_.begin(); it != links_.end();) {
    Link* link = it->get();
    if (link->dead.load(std::memory_order_acquire) &&
        link->pumps_running.load(std::memory_order_acquire) == 0) {
      if (link->client_to_server.joinable()) link->client_to_server.join();
      if (link->server_to_client.joinable()) link->server_to_client.join();
      it = links_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosProxy::AcceptLoop() {
  while (!stop_.load()) {
    auto sock = listener_.Accept(IoDeadline::After(250));
    if (!sock.ok()) {
      ReapDeadLinks();
      continue;  // deadline tick or listener shutdown
    }
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections_accepted;
    }

    // Per-connection fate draws, in a fixed order so a seed replays them.
    const ChaosPolicy policy = this->policy();
    const bool reset = NextDraw() < policy.reset_probability;
    const bool blackhole = !reset && NextDraw() < policy.blackhole_probability;

    auto link = std::make_unique<Link>();
    link->client = std::move(*sock);
    (void)link->client.SetNoDelay();
    Link* raw = link.get();
    {
      std::lock_guard<std::mutex> lock(links_mu_);
      links_.push_back(std::move(link));
    }
    RunLink(raw, blackhole, reset && policy.reset_after_request_frames == 0,
            reset ? policy.reset_after_request_frames : 0);
    ReapDeadLinks();
  }
}

void ChaosProxy::RunLink(Link* link, bool blackhole, bool reset_now,
                         uint32_t reset_after_frames) {
  if (reset_now) {
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections_reset;
    }
    link->client.ShutdownBoth();
    link->dead.store(true, std::memory_order_release);
    return;
  }

  if (blackhole) {
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections_blackholed;
    }
    // Accept-then-stall: drain the client's bytes into the void so its
    // writes always succeed, and never answer. Only the client's own
    // deadline (or our shutdown) ends this.
    link->pumps_running.store(1, std::memory_order_release);
    link->client_to_server = std::thread([this, link] {
      uint8_t sink[4096];
      for (;;) {
        Status st = link->client.ReadFull(sink, 1, IoDeadline::Infinite());
        if (!st.ok()) break;
        // Opportunistically swallow whatever else is queued, 1 byte at a
        // time is enough given frames are small and this is a stall path.
      }
      link->pumps_running.fetch_sub(1, std::memory_order_acq_rel);
      link->dead.store(true, std::memory_order_release);
    });
    return;
  }

  auto server = TcpConnect(target_host_, target_port_, /*timeout_millis=*/2000);
  if (!server.ok()) {
    // Backend genuinely down: behave like it (refuse by closing).
    link->client.ShutdownBoth();
    link->dead.store(true, std::memory_order_release);
    return;
  }
  link->server = std::move(*server);

  link->pumps_running.store(2, std::memory_order_release);
  link->client_to_server = std::thread([this, link, reset_after_frames] {
    Pump(link, &link->client, &link->server, /*client_to_server=*/true,
         reset_after_frames);
    link->pumps_running.fetch_sub(1, std::memory_order_acq_rel);
    link->dead.store(true, std::memory_order_release);
  });
  link->server_to_client = std::thread([this, link] {
    Pump(link, &link->server, &link->client, /*client_to_server=*/false,
         /*reset_after_frames=*/0);
    link->pumps_running.fetch_sub(1, std::memory_order_acq_rel);
    link->dead.store(true, std::memory_order_release);
  });
}

Status ChaosProxy::ReadWholeFrame(Socket* from, std::vector<uint8_t>* frame) {
  frame->resize(kFramePrefixBytes);
  MDS_RETURN_NOT_OK(
      from->ReadFull(frame->data(), kFramePrefixBytes, IoDeadline::Infinite()));
  uint32_t length = 0;
  uint32_t crc = 0;
  if (!CheckFramePrefix(frame->data(), &length, &crc).ok()) {
    return Status::InvalidArgument("chaos proxy: stream is not mds frames");
  }
  frame->resize(kFramePrefixBytes + length);
  return from->ReadFull(frame->data() + kFramePrefixBytes, length,
                        IoDeadline::Infinite());
}

Status ChaosProxy::ForwardBytes(Socket* to, const uint8_t* data, size_t len,
                                bool throttled) {
  const ChaosPolicy policy = this->policy();
  if (!throttled || policy.throttle_bytes_per_sec == 0) {
    return to->WriteFull(data, len, IoDeadline::Infinite());
  }
  size_t sent = 0;
  while (sent < len) {
    const size_t chunk = std::min(kThrottleChunkBytes, len - sent);
    MDS_RETURN_NOT_OK(to->WriteFull(data + sent, chunk, IoDeadline::Infinite()));
    sent += chunk;
    const uint64_t sleep_ms =
        chunk * 1000 / std::max<uint64_t>(1, policy.throttle_bytes_per_sec);
    if (sleep_ms > 0 && sent < len) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  return Status::OK();
}

void ChaosProxy::Pump(Link* link, Socket* from, Socket* to,
                      bool client_to_server, uint32_t reset_after_frames) {
  uint64_t frames = 0;
  for (;;) {
    std::vector<uint8_t> frame;
    if (!ReadWholeFrame(from, &frame).ok()) break;

    const ChaosPolicy policy = this->policy();
    if (client_to_server) {
      if (observer_) {
        const std::vector<uint8_t> payload(frame.begin() + kFramePrefixBytes,
                                           frame.end());
        observer_(payload);
      }
      if (policy.latency_ms != 0 || policy.jitter_ms != 0) {
        uint64_t delay = policy.latency_ms;
        if (policy.jitter_ms != 0) delay += NextBounded(policy.jitter_ms);
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    } else {
      if (policy.truncate_probability > 0.0 &&
          NextDraw() < policy.truncate_probability) {
        // Forward a strict prefix of the frame, then kill the link: the
        // receiver sees a mid-frame close.
        const size_t keep =
            1 + static_cast<size_t>(NextBounded(frame.size() - 1));
        (void)ForwardBytes(to, frame.data(), keep, /*throttled=*/false);
        {
          std::lock_guard<std::mutex> lock(counters_mu_);
          ++counters_.frames_truncated;
        }
        break;
      }
      if (policy.bitflip_probability > 0.0 &&
          NextDraw() < policy.bitflip_probability &&
          frame.size() > kFramePrefixBytes) {
        // Flip one payload bit: the frame CRC no longer matches, so the
        // receiver must detect transit corruption, not decode garbage.
        const size_t payload_len = frame.size() - kFramePrefixBytes;
        const uint64_t bit = NextBounded(payload_len * 8);
        frame[kFramePrefixBytes + bit / 8] ^=
            static_cast<uint8_t>(1u << (bit % 8));
        std::lock_guard<std::mutex> lock(counters_mu_);
        ++counters_.frames_bitflipped;
      }
    }

    if (!ForwardBytes(to, frame.data(), frame.size(), !client_to_server).ok()) {
      break;
    }
    ++frames;
    {
      std::lock_guard<std::mutex> lock(counters_mu_);
      if (client_to_server) {
        ++counters_.frames_in;
      } else {
        ++counters_.frames_out;
      }
    }

    if (client_to_server && reset_after_frames != 0 &&
        frames >= reset_after_frames) {
      // Mid-conversation kill: the request went out, the reply never
      // comes back. Nastier than a refused connect because the peer has
      // state in flight.
      std::lock_guard<std::mutex> lock(counters_mu_);
      ++counters_.connections_reset;
      break;
    }
  }
  // Sever both directions: a one-direction close must not leave the
  // other pump (or either peer) waiting forever.
  link->client.ShutdownBoth();
  if (link->server.valid()) link->server.ShutdownBoth();
}

}  // namespace mds
