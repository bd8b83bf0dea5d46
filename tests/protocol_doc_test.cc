// Keeps docs/PROTOCOL.md honest: the constants table between the
// `protocol-constants:begin/end` markers is parsed and every row is
// compared against the compiled values in src/server/protocol.h. A new
// wire constant must be added to the table (and a doc edit that drifts
// from the header fails here, not in a reader's debugger).

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "server/protocol.h"

namespace mds {
namespace {

/// Parses "| `name` | `value` |" table rows between the two marker
/// comments; values are decimal or 0x-hex.
std::map<std::string, uint64_t> ParseConstantsTable(const std::string& path,
                                                    std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return {};
  }
  std::map<std::string, uint64_t> out;
  std::string line;
  bool inside = false;
  while (std::getline(in, line)) {
    if (line.find("protocol-constants:begin") != std::string::npos) {
      inside = true;
      continue;
    }
    if (line.find("protocol-constants:end") != std::string::npos) break;
    if (!inside || line.empty() || line[0] != '|') continue;

    // Split the row into cells on '|'.
    std::vector<std::string> cells;
    std::stringstream row(line);
    std::string cell;
    while (std::getline(row, cell, '|')) cells.push_back(cell);
    if (cells.size() < 3) continue;

    auto strip = [](std::string s) {
      const char* junk = " \t`";
      const size_t b = s.find_first_not_of(junk);
      if (b == std::string::npos) return std::string();
      const size_t e = s.find_last_not_of(junk);
      return s.substr(b, e - b + 1);
    };
    const std::string name = strip(cells[1]);
    const std::string value = strip(cells[2]);
    if (name.empty() || name == "Constant") continue;  // header/rule rows
    if (value.find_first_not_of("-") == std::string::npos) continue;

    try {
      out[name] = std::stoull(value, nullptr, 0);  // base 0: 0x... or decimal
    } catch (...) {
      *error = "row for '" + name + "' has unparseable value '" + value + "'";
      return {};
    }
  }
  if (!inside) *error = "no protocol-constants:begin marker found";
  return out;
}

TEST(ProtocolDocTest, ConstantsTableMatchesHeader) {
  std::string error;
  const auto doc = ParseConstantsTable(
      std::string(MDS_REPO_ROOT) + "/docs/PROTOCOL.md", &error);
  ASSERT_TRUE(error.empty()) << error;

  const std::map<std::string, uint64_t> expected = {
      {"kFrameMagic", protocol::kFrameMagic},
      {"kProtocolVersion", protocol::kProtocolVersion},
      {"kFramePrefixBytes", protocol::kFramePrefixBytes},
      {"kMessageHeaderBytes", protocol::kMessageHeaderBytes},
      {"kMaxPayloadBytes", protocol::kMaxPayloadBytes},
      {"kMaxDim", protocol::kMaxDim},
      {"kNumRequestTypes", protocol::kNumRequestTypes},
      {"kMaxShardStats", protocol::kMaxShardStats},
      {"kHealth",
       static_cast<uint64_t>(protocol::MessageType::kHealth)},
      {"kStats", static_cast<uint64_t>(protocol::MessageType::kStats)},
      {"kPointCount",
       static_cast<uint64_t>(protocol::MessageType::kPointCount)},
      {"kBoxQuery",
       static_cast<uint64_t>(protocol::MessageType::kBoxQuery)},
      {"kKnn", static_cast<uint64_t>(protocol::MessageType::kKnn)},
      {"kTableSample",
       static_cast<uint64_t>(protocol::MessageType::kTableSample)},
      {"kReload", static_cast<uint64_t>(protocol::MessageType::kReload)},
      {"kFlagReply", protocol::kFlagReply},
      {"kFlagSkipCorrupt", protocol::kFlagSkipCorrupt},
      {"kFlagHintFullScan", protocol::kFlagHintFullScan},
      {"kFlagHintIndex", protocol::kFlagHintIndex},
      {"kFlagDegraded", protocol::kFlagDegraded},
      {"kFlagDraining", protocol::kFlagDraining},
      {"kFlagAllowPartial", protocol::kFlagAllowPartial},
      {"kFlagPartial", protocol::kFlagPartial},
  };

  // Every documented row must match the header...
  for (const auto& [name, value] : doc) {
    auto it = expected.find(name);
    if (it == expected.end()) {
      ADD_FAILURE() << "docs/PROTOCOL.md documents unknown constant '" << name
                    << "' — remove it or teach protocol_doc_test about it";
      continue;
    }
    EXPECT_EQ(value, it->second)
        << "docs/PROTOCOL.md says " << name << " = " << value
        << " but protocol.h says " << it->second;
  }
  // ...and every header constant must be documented.
  for (const auto& [name, value] : expected) {
    EXPECT_TRUE(doc.count(name))
        << "protocol.h constant '" << name
        << "' is missing from the docs/PROTOCOL.md constants table";
  }
}

/// The doc asserts sizes the codec never states explicitly; pin them so
/// a struct change breaks this test, not just readers of the doc.
TEST(ProtocolDocTest, DocumentedStructSizesHold) {
  EXPECT_EQ(sizeof(protocol::WireNeighbor), 16u);  // "16 B each"
  // "Twenty-two u64 scalar counters": count them via the encoded size of
  // an empty snapshot = 22*8 scalars + 6 per-type records of 6*8+8 bytes
  // + u32 empty shard list + u64 partial_replies tail + 4 u64 reply-path
  // memory counters (slab_allocations/recycles/bytes_in_use +
  // reply_tail_copies).
  protocol::ServerStatsSnapshot snapshot;
  std::vector<uint8_t> buf;
  WireWriter w(&buf);
  protocol::EncodeServerStats(snapshot, &w);
  EXPECT_EQ(buf.size(),
            22u * 8 + protocol::kNumRequestTypes * (6 * 8 + 8) + 4 + 8 +
                4 * 8);
  // One shard-stats entry is 2 u32 + 7 u64 + 2 u32 + 2 u64 = 88 bytes in
  // the shard list, plus its u64 `pruned` counter on the pruned tail.
  snapshot.shards.resize(1);
  buf.clear();
  WireWriter w2(&buf);
  protocol::EncodeServerStats(snapshot, &w2);
  EXPECT_EQ(buf.size(),
            22u * 8 + protocol::kNumRequestTypes * (6 * 8 + 8) + 4 + 88 + 8 +
                4 * 8 + 8);
  // The shard-coverage tail on QueryReply/KnnReply is 16 bytes, and is
  // absent entirely when shards_total == 0 (a plain mdsd reply).
  protocol::QueryReply qr;
  std::vector<uint8_t> plain, tailed;
  WireWriter wp(&plain);
  protocol::EncodeQueryReply(qr, &wp);
  qr.shards_total = 2;
  qr.shards_answered = 1;
  qr.shards_mask = 0x1;
  WireWriter wt(&tailed);
  protocol::EncodeQueryReply(qr, &wt);
  EXPECT_EQ(tailed.size(), plain.size() + 16);

  // The bounds tail on HealthReply/ReloadReply is two coordinate vectors
  // (u32 dim + dim f64 each), absent when no bounds are known.
  protocol::HealthReply health;
  std::vector<uint8_t> bare, bounded;
  WireWriter wb(&bare);
  protocol::EncodeHealthReply(health, &wb);
  EXPECT_EQ(bare.size(), 1u + 8 + 4);
  health.bounds = Box({0.0, 1.0}, {2.0, 3.0});
  WireWriter wh(&bounded);
  protocol::EncodeHealthReply(health, &wh);
  EXPECT_EQ(bounded.size(), bare.size() + 2 * (4 + 2 * 8));
}

}  // namespace
}  // namespace mds
