#include "svc/protocol.h"

#include <cstring>

namespace ecl::svc {

namespace {

// Little-endian byte-vector primitives. memcpy keeps them alignment-safe;
// on LE hosts (everything this repo targets) the compiler folds them to
// plain loads/stores.

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = data_[pos_++];
    return true;
  }

  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > data_.size()) return false;
    v = static_cast<std::uint16_t>(data_[pos_] |
                                   (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
    return true;
  }

  bool bytes(std::vector<std::uint8_t>& out, std::size_t n) {
    if (pos_ + n > data_.size()) return false;
    out.assign(data_.data() + pos_, data_.data() + pos_ + n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Patches the u32 length prefix reserved at `frame_start` once the payload
/// size is known.
void finish_frame(std::vector<std::uint8_t>& out, std::size_t frame_start) {
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(out.size() - frame_start - 4);
  for (int i = 0; i < 4; ++i) {
    out[frame_start + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  }
}

/// The tagged kStats body: one (tag, u64) pair per table row, so readers
/// index by tag instead of by offset.
void encode_stats_body(const ServiceStats& st, std::vector<std::uint8_t>& out) {
  std::uint16_t count = 0;
#define ECL_SVC_COUNT_ROW(tag, member, family, type) ++count;
  ECL_SVC_STATS_FIELDS(ECL_SVC_COUNT_ROW)
#undef ECL_SVC_COUNT_ROW
  put_u8(out, kStatsTaggedFormat);
  put_u16(out, count);
#define ECL_SVC_ENCODE_ROW(tag, member, family, type) \
  put_u16(out, tag);                                   \
  put_u64(out, st.member);
  ECL_SVC_STATS_FIELDS(ECL_SVC_ENCODE_ROW)
#undef ECL_SVC_ENCODE_ROW
}

bool decode_stats_body(Reader& r, ServiceStats& st) {
  std::uint8_t format = 0;
  if (!r.u8(format) || format != kStatsTaggedFormat) return false;
  std::uint16_t field_count = 0;
  if (!r.u16(field_count)) return false;
  if (r.remaining() != static_cast<std::size_t>(field_count) * 10) return false;
  for (std::uint16_t i = 0; i < field_count; ++i) {
    std::uint16_t tag = 0;
    std::uint64_t value = 0;
    if (!r.u16(tag) || !r.u64(value)) return false;
    switch (tag) {
#define ECL_SVC_DECODE_ROW(tag, member, family, type) \
  case tag:                                            \
    st.member = value;                                 \
    break;
      ECL_SVC_STATS_FIELDS(ECL_SVC_DECODE_ROW)
#undef ECL_SVC_DECODE_ROW
      default:
        break;  // a newer server's field: skip, never fail
    }
  }
  return true;
}

/// Type bytes naming an op. 7 is retired, so it is rejected like any
/// unknown type.
bool known_type(std::uint8_t type) {
  return type <= static_cast<std::uint8_t>(MsgType::kPromote) && type != 7;
}

}  // namespace

const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kIngest:
      return "ingest";
    case MsgType::kConnected:
      return "connected";
    case MsgType::kComponentOf:
      return "component_of";
    case MsgType::kComponentCount:
      return "component_count";
    case MsgType::kStats:
      return "stats";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kFetchCkpt:
      return "fetch_ckpt";
    case MsgType::kFetchWal:
      return "fetch_wal";
    case MsgType::kPromote:
      return "promote";
  }
  return "?";
}

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kShed:
      return "shed";
    case Status::kClosed:
      return "closed";
    case Status::kInvalid:
      return "invalid";
    case Status::kError:
      return "error";
    case Status::kNotPrimary:
      return "not_primary";
  }
  return "?";
}

void encode_request(const Request& req, std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  put_u32(out, 0);  // length placeholder
  put_u8(out, static_cast<std::uint8_t>(req.type));
  put_u64(out, req.id);
  switch (req.type) {
    case MsgType::kIngest:
      put_u32(out, static_cast<std::uint32_t>(req.edges.size()));
      for (const auto& [u, v] : req.edges) {
        put_u32(out, u);
        put_u32(out, v);
      }
      break;
    case MsgType::kConnected:
      put_u32(out, req.u);
      put_u32(out, req.v);
      put_u8(out, static_cast<std::uint8_t>(req.mode));
      break;
    case MsgType::kComponentOf:
      put_u32(out, req.v);
      put_u8(out, static_cast<std::uint8_t>(req.mode));
      break;
    case MsgType::kFetchWal:
      put_u64(out, req.replica_id);
      put_u64(out, req.seq);
      put_u64(out, req.offset);
      put_u32(out, req.max_bytes);
      break;
    case MsgType::kPing:
    case MsgType::kComponentCount:
    case MsgType::kStats:
    case MsgType::kShutdown:
    case MsgType::kFetchCkpt:
    case MsgType::kPromote:
      break;
  }
  finish_frame(out, frame_start);
}

void encode_response(const Response& resp, std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  put_u32(out, 0);  // length placeholder
  put_u8(out, static_cast<std::uint8_t>(resp.type));
  put_u64(out, resp.id);
  put_u8(out, static_cast<std::uint8_t>(resp.status));
  switch (resp.type) {
    case MsgType::kConnected:
    case MsgType::kComponentOf:
    case MsgType::kComponentCount:
      put_u64(out, resp.value);
      break;
    case MsgType::kStats:
      encode_stats_body(resp.stats, out);
      break;
    case MsgType::kFetchCkpt:
      put_u8(out, resp.ckpt.has ? 1 : 0);
      put_u64(out, resp.ckpt.seq);
      put_u64(out, resp.ckpt.wal_seq);
      put_u32(out, static_cast<std::uint32_t>(resp.ckpt.image.size()));
      out.insert(out.end(), resp.ckpt.image.begin(), resp.ckpt.image.end());
      break;
    case MsgType::kFetchWal:
      put_u8(out, static_cast<std::uint8_t>((resp.wal.retired ? 1u : 0u) |
                                            (resp.wal.sealed ? 2u : 0u)));
      put_u64(out, resp.wal.seq);
      put_u64(out, resp.wal.offset);
      put_u64(out, resp.wal.segment_bytes);
      put_u64(out, resp.wal.active_seq);
      put_u32(out, static_cast<std::uint32_t>(resp.wal.data.size()));
      out.insert(out.end(), resp.wal.data.begin(), resp.wal.data.end());
      break;
    case MsgType::kPing:
    case MsgType::kIngest:
    case MsgType::kShutdown:
    case MsgType::kPromote:
      break;
  }
  finish_frame(out, frame_start);
}

bool decode_request(std::span<const std::uint8_t> payload, Request& req) {
  Reader r(payload);
  std::uint8_t type = 0;
  if (!r.u8(type) || !known_type(type)) return false;
  req.type = static_cast<MsgType>(type);
  if (!r.u64(req.id)) return false;
  req.u = 0;
  req.v = 0;
  req.mode = ReadMode::kSnapshot;
  req.edges.clear();
  req.replica_id = 0;
  req.seq = 0;
  req.offset = 0;
  req.max_bytes = 0;
  std::uint8_t mode = 0;
  switch (req.type) {
    case MsgType::kIngest: {
      std::uint32_t count = 0;
      if (!r.u32(count)) return false;
      // count is attacker-controlled: a tiny frame claiming 2^32-1 edges
      // must fail here, before reserve() attempts a ~32 GiB allocation.
      if (count > r.remaining() / 8) return false;
      req.edges.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t u = 0;
        std::uint32_t v = 0;
        if (!r.u32(u) || !r.u32(v)) return false;
        req.edges.emplace_back(u, v);
      }
      break;
    }
    case MsgType::kConnected:
      if (!r.u32(req.u) || !r.u32(req.v) || !r.u8(mode) || mode > 1) return false;
      req.mode = static_cast<ReadMode>(mode);
      break;
    case MsgType::kComponentOf:
      if (!r.u32(req.v) || !r.u8(mode) || mode > 1) return false;
      req.mode = static_cast<ReadMode>(mode);
      break;
    case MsgType::kFetchWal:
      if (!r.u64(req.replica_id) || !r.u64(req.seq) || !r.u64(req.offset) ||
          !r.u32(req.max_bytes)) {
        return false;
      }
      break;
    case MsgType::kPing:
    case MsgType::kComponentCount:
    case MsgType::kStats:
    case MsgType::kShutdown:
    case MsgType::kFetchCkpt:
    case MsgType::kPromote:
      break;
  }
  return r.exhausted();
}

bool decode_response(std::span<const std::uint8_t> payload, Response& resp) {
  Reader r(payload);
  std::uint8_t type = 0;
  std::uint8_t status = 0;
  if (!r.u8(type) || !known_type(type)) return false;
  resp.type = static_cast<MsgType>(type);
  if (!r.u64(resp.id)) return false;
  if (!r.u8(status) || status > static_cast<std::uint8_t>(Status::kNotPrimary)) {
    return false;
  }
  resp.status = static_cast<Status>(status);
  resp.value = 0;
  resp.stats = ServiceStats{};
  resp.ckpt = CkptImage{};
  resp.wal = WalChunk{};
  switch (resp.type) {
    case MsgType::kConnected:
    case MsgType::kComponentOf:
    case MsgType::kComponentCount:
      if (!r.u64(resp.value)) return false;
      break;
    case MsgType::kStats:
      if (!decode_stats_body(r, resp.stats)) return false;
      break;
    case MsgType::kFetchCkpt: {
      std::uint8_t has = 0;
      std::uint32_t image_len = 0;
      if (!r.u8(has) || has > 1 || !r.u64(resp.ckpt.seq) ||
          !r.u64(resp.ckpt.wal_seq) || !r.u32(image_len) ||
          !r.bytes(resp.ckpt.image, image_len)) {
        return false;
      }
      resp.ckpt.has = has != 0;
      break;
    }
    case MsgType::kFetchWal: {
      std::uint8_t flags = 0;
      std::uint32_t data_len = 0;
      if (!r.u8(flags) || flags > 3 || !r.u64(resp.wal.seq) ||
          !r.u64(resp.wal.offset) || !r.u64(resp.wal.segment_bytes) ||
          !r.u64(resp.wal.active_seq) || !r.u32(data_len) ||
          !r.bytes(resp.wal.data, data_len)) {
        return false;
      }
      resp.wal.retired = (flags & 1u) != 0;
      resp.wal.sealed = (flags & 2u) != 0;
      resp.wal.ok = true;
      break;
    }
    case MsgType::kPing:
    case MsgType::kIngest:
    case MsgType::kShutdown:
    case MsgType::kPromote:
      break;
  }
  return r.exhausted();
}

}  // namespace ecl::svc
