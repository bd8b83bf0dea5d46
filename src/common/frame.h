#ifndef MDS_COMMON_FRAME_H_
#define MDS_COMMON_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.h"

namespace mds {

/// The wire-frame prefix every mds peer reads and writes (layout in
/// server/protocol.h and docs/PROTOCOL.md): u32 magic, u32 payload length,
/// u32 CRC32C of the payload, little-endian. It lives here, below the
/// server layer, so the protocol codec and the chaos proxy that forwards
/// whole frames share one definition of the frame check.
inline constexpr uint32_t kFrameMagic = 0x3151444Du;  // "MDQ1" on the wire
inline constexpr size_t kFramePrefixBytes = 12;
/// Upper bound on a payload a peer may declare. Large enough for a
/// multi-million-row reply, small enough that a hostile length prefix
/// cannot make the receiver allocate unbounded memory.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Checks the kFramePrefixBytes at `prefix`: the magic must match and the
/// declared length stay within kMaxPayloadBytes (else kInvalidArgument —
/// the stream is not mds frames and the connection must close). On
/// success sets the payload length and its expected CRC.
inline Status CheckFramePrefix(const uint8_t* prefix, uint32_t* payload_len,
                               uint32_t* payload_crc) {
  uint32_t magic = 0;
  std::memcpy(&magic, prefix, sizeof(magic));
  std::memcpy(payload_len, prefix + 4, sizeof(*payload_len));
  std::memcpy(payload_crc, prefix + 8, sizeof(*payload_crc));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("protocol: bad frame magic");
  }
  if (*payload_len > kMaxPayloadBytes) {
    return Status::InvalidArgument("protocol: frame length " +
                                   std::to_string(*payload_len) +
                                   " exceeds cap");
  }
  return Status::OK();
}

}  // namespace mds

#endif  // MDS_COMMON_FRAME_H_
