// ecl::svc wire protocol — a small length-prefixed binary framing shared by
// the daemon (tools/ecl_ccd), the client library, and the load generator.
//
// Framing (all integers little-endian):
//
//   frame    := u32 payload_len | payload          (len excludes itself)
//   request  := u8 type | u64 request_id | body
//   response := u8 type | u64 request_id | u8 status | body
//
// Request bodies:
//   kPing            (empty)
//   kIngest          u32 edge_count | edge_count x (u32 u | u32 v)
//   kConnected       u32 u | u32 v | u8 read_mode
//   kComponentOf     u32 v | u8 read_mode
//   kComponentCount  (empty)
//   kStats           (empty)
//   kShutdown        (empty)
//   kFetchCkpt       (empty)
//   kFetchWal        u64 replica_id | u64 seq | u64 offset | u32 max_bytes
//   kPromote         (empty)
//
// Response bodies:
//   kPing / kIngest / kShutdown   (empty)
//   kConnected                    u64 value (0/1)
//   kComponentOf                  u64 value (label; kInvalidVertex if bad v)
//   kComponentCount               u64 value
//   kStats                        u8 format (= 1) | u16 field_count |
//                                 field_count x (u16 tag | u64 value), one
//                                 pair per ECL_SVC_STATS_FIELDS row
//                                 (svc/service.h). Unknown tags are skipped
//                                 on decode, so a new row never breaks an
//                                 old client.
//   kFetchCkpt                    u8 has | u64 ckpt_seq | u64 wal_seq |
//                                 u32 image_len | image_len raw bytes (the
//                                 newest valid checkpoint file, verbatim)
//   kFetchWal                     u8 flags (bit0 retired, bit1 sealed) |
//                                 u64 seq | u64 offset | u64 segment_bytes |
//                                 u64 active_seq | u32 data_len | data_len
//                                 raw segment bytes starting at offset
//   kPromote                      (empty)
//
// The status byte carries the service's admission/backpressure verdict to
// the client: a full ingest queue yields kShed — a definitive, visible
// response — never a blocked connection or a silent drop.
//
// Encode/decode functions are pure byte-vector transforms with no socket
// dependencies, so the protocol is unit-testable in isolation and reusable
// over any stream transport.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "graph/graph.h"
#include "svc/service.h"

namespace ecl::svc {

enum class MsgType : std::uint8_t {
  kPing = 0,
  kIngest = 1,
  kConnected = 2,
  kComponentOf = 3,
  kComponentCount = 4,
  kStats = 5,
  kShutdown = 6,
  // 7 is retired and fails to decode; never reuse it.
  // Replication (docs/REPLICATION.md): a replica bootstraps with kFetchCkpt,
  // then streams raw segment bytes with kFetchWal; kPromote flips a replica
  // into a writable primary for failover.
  kFetchCkpt = 8,
  kFetchWal = 9,
  kPromote = 10,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kShed = 1,        // ingest queue full: retry later (backpressure)
  kClosed = 2,      // service draining / shut down
  kInvalid = 3,     // malformed request or out-of-range vertex
  kError = 4,       // internal error
  kNotPrimary = 5,  // write (or replication-source op) sent to a replica
};

[[nodiscard]] const char* status_name(Status s);

/// Protocol op name ("ping", "ingest", ...), for logs and dashboards.
[[nodiscard]] const char* msg_type_name(MsgType t);

/// Marker byte opening the tagged kStats body.
inline constexpr std::uint8_t kStatsTaggedFormat = 1;

/// Server-side clamp on one kFetchWal chunk; a client asking for more gets
/// this much. Well under kMaxFrameBytes so the response header always fits.
inline constexpr std::uint32_t kMaxWalChunkBytes = 1u << 22;  // 4 MiB

/// Frames larger than this are rejected as malformed (protects the server
/// from hostile or corrupt length prefixes).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 26;  // 64 MiB

/// Largest edge batch one kIngest frame can carry while its payload
/// (u8 type + u64 id + u32 count + 8 bytes/edge) stays under kMaxFrameBytes.
/// Client::ingest rejects bigger batches with kInvalid instead of sending a
/// frame the server would answer by dropping the connection.
inline constexpr std::size_t kMaxIngestEdges = (kMaxFrameBytes - 13) / 8;

struct Request {
  MsgType type = MsgType::kPing;
  std::uint64_t id = 0;
  vertex_t u = 0;
  vertex_t v = 0;
  ReadMode mode = ReadMode::kSnapshot;
  std::vector<Edge> edges;  // kIngest only
  // kFetchWal only: which replica is asking (retention bookkeeping) and
  // which byte range of which segment it wants.
  std::uint64_t replica_id = 0;
  std::uint64_t seq = 0;
  std::uint64_t offset = 0;
  std::uint32_t max_bytes = 0;
};

struct Response {
  MsgType type = MsgType::kPing;
  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::uint64_t value = 0;  // kConnected / kComponentOf / kComponentCount
  ServiceStats stats;       // kStats only
  CkptImage ckpt;           // kFetchCkpt only
  WalChunk wal;             // kFetchWal only
};

/// Appends the complete frame (length prefix + payload) for `req` to `out`.
void encode_request(const Request& req, std::vector<std::uint8_t>& out);

/// Appends the complete frame for `resp` to `out`.
void encode_response(const Response& resp, std::vector<std::uint8_t>& out);

/// Parses a request payload (the bytes *after* the length prefix).
/// Returns false on malformed input; `req` is unspecified then.
[[nodiscard]] bool decode_request(std::span<const std::uint8_t> payload, Request& req);

/// Parses a response payload. Returns false on malformed input.
[[nodiscard]] bool decode_response(std::span<const std::uint8_t> payload, Response& resp);

}  // namespace ecl::svc
