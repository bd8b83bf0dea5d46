#include "common/crc32c.h"

#include <cstring>
#include <vector>

#if defined(__SSE4_2__) || (defined(__x86_64__) && defined(__GNUC__))
#include <nmmintrin.h>
#define MDS_CRC32C_HAVE_SSE42_PATH 1
#endif

namespace mds {

namespace {

/// Slice-by-8 lookup tables, built once at first use. table[0] is the
/// classic byte-at-a-time table; table[k] advances a byte through k extra
/// zero bytes, letting the hot loop fold 8 input bytes per iteration.
struct Crc32cTables {
  uint32_t t[8][256];

  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

/// `crc` here is the raw (already-inverted) running remainder.
uint32_t Crc32cSoftware(uint32_t crc, const uint8_t* p, size_t n) {
  const Crc32cTables& tb = Tables();
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
    --n;
  }
  return crc;
}

#if defined(MDS_CRC32C_HAVE_SSE42_PATH)
/// Hardware CRC32C path, compiled for SSE4.2 regardless of the global
/// target so the binary still runs everywhere; Crc32c() dispatches to it
/// only after a cpuid check.
///
/// A single _mm_crc32_u64 chain is latency-bound (3 cycles per 8 bytes);
/// the bulk loop below runs three independent chains over adjacent
/// kStride-byte blocks and merges them with a zero-advance table, which is
/// what keeps 8 KiB page verification inside the E19 overhead budget.

/// One serially-dependent hardware chain over raw (inverted) state.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware1Way(uint32_t crc,
                                                              const uint8_t* p,
                                                              size_t n) {
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = static_cast<uint32_t>(_mm_crc32_u64(crc, chunk));
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  return crc;
}

/// Bytes per interleaved stream. 3 * kStride = 8184, so one pass covers
/// nearly a whole page's CRC span.
constexpr size_t kStride = 2728;

/// Tables for the linear map "advance a raw CRC state through kStride zero
/// bytes", one 256-entry table per state byte. crc_raw(s, X||Y) =
/// Advance(crc_raw(s, X)) ^ crc_raw(0, Y) by GF(2)-linearity, which is the
/// identity the 3-way merge rests on.
struct ZeroAdvanceTables {
  uint32_t t[4][256];
};

const ZeroAdvanceTables& AdvanceTables() {
  static const ZeroAdvanceTables tables = [] {
    ZeroAdvanceTables tb;
    std::vector<uint8_t> zeros(kStride, 0);
    for (int b = 0; b < 4; ++b) {
      for (uint32_t v = 0; v < 256; ++v) {
        tb.t[b][v] = Crc32cHardware1Way(v << (8 * b), zeros.data(), kStride);
      }
    }
    return tb;
  }();
  return tables;
}

inline uint32_t AdvanceZeros(uint32_t s, const ZeroAdvanceTables& tb) {
  return tb.t[0][s & 0xff] ^ tb.t[1][(s >> 8) & 0xff] ^
         tb.t[2][(s >> 16) & 0xff] ^ tb.t[3][s >> 24];
}

/// Aligned so the 3-way loop's placement does not follow link layout: on
/// CPUs with the jump-conditional-code erratum fix, a fused cmp/jne that
/// crosses a 32-byte boundary runs from the legacy decoders, and a layout
/// shift that put it there made CRC-verified page scans ~25% slower.
__attribute__((target("sse4.2"), aligned(64))) uint32_t Crc32cHardware(
    uint32_t crc, const uint8_t* p, size_t n) {
  if (n >= 3 * kStride) {
    const ZeroAdvanceTables& tb = AdvanceTables();
    while (n >= 3 * kStride) {
      uint32_t a = crc, b = 0, c = 0;
      const uint8_t* pa = p;
      const uint8_t* pb = p + kStride;
      const uint8_t* pc = p + 2 * kStride;
      for (size_t i = 0; i < kStride; i += 8) {
        uint64_t va, vb, vc;
        std::memcpy(&va, pa + i, 8);
        std::memcpy(&vb, pb + i, 8);
        std::memcpy(&vc, pc + i, 8);
        a = static_cast<uint32_t>(_mm_crc32_u64(a, va));
        b = static_cast<uint32_t>(_mm_crc32_u64(b, vb));
        c = static_cast<uint32_t>(_mm_crc32_u64(c, vc));
      }
      crc = AdvanceZeros(AdvanceZeros(a, tb) ^ b, tb) ^ c;
      p += 3 * kStride;
      n -= 3 * kStride;
    }
  }
  return Crc32cHardware1Way(crc, p, n);
}

bool CpuHasSse42() { return __builtin_cpu_supports("sse4.2") != 0; }
#endif

}  // namespace

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
#if defined(MDS_CRC32C_HAVE_SSE42_PATH)
  static const bool use_hardware = CpuHasSse42();
  crc = use_hardware ? Crc32cHardware(crc, p, n) : Crc32cSoftware(crc, p, n);
#else
  crc = Crc32cSoftware(crc, p, n);
#endif
  return ~crc;
}

}  // namespace mds
