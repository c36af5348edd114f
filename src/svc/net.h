// POSIX socket plumbing shared by the svc server and client: full-buffer
// read/write loops (EINTR-safe), frame I/O matching protocol.h's length
// prefix, a Unix-domain listener, and connectors for TCP and Unix-domain
// stream sockets. Kept separate from protocol.h so the byte-level codec
// stays free of OS dependencies.
//
// Robustness contract (docs/ROBUSTNESS.md): every blocking call here is
// bounded. Connectors take a connect timeout and stamp SO_RCVTIMEO /
// SO_SNDTIMEO defaults onto the new socket, so a read or write can never
// hang forever on a dead peer. All paths carry ecl::fault injection points
// (svc.net.read / svc.net.write / svc.net.connect). The TCP listener and
// set_io_timeouts live in common/sock.h, shared with the metrics exporter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ecl::svc::net {

/// Default backstop timeouts stamped on every connected/accepted socket by
/// the helpers below. Callers layer tighter per-op deadlines on top; these
/// only guarantee that *no* blocking call is unbounded.
inline constexpr int kDefaultConnectTimeoutMs = 5000;
inline constexpr int kDefaultSocketTimeoutMs = 30000;

/// Reads exactly n bytes. False on EOF, error, peer shutdown, or an expired
/// SO_RCVTIMEO; EINTR is retried.
[[nodiscard]] bool read_full(int fd, void* buf, std::size_t n);

/// Writes exactly n bytes (SIGPIPE suppressed via MSG_NOSIGNAL). False on
/// error or an expired SO_SNDTIMEO; EINTR is retried.
[[nodiscard]] bool write_full(int fd, const void* buf, std::size_t n);

/// Reads one frame: the u32 length prefix, then the payload into `payload`
/// (replaced). False on EOF, error, or a length above kMaxFrameBytes.
[[nodiscard]] bool read_frame(int fd, std::vector<std::uint8_t>& payload);

/// Writes pre-encoded frame bytes (length prefix already included).
[[nodiscard]] bool write_frame(int fd, const std::vector<std::uint8_t>& bytes);

/// Creates a listening Unix-domain stream socket at `path` (unlinking any
/// stale socket file first). Returns the fd, or -1 with *err filled in.
[[nodiscard]] int listen_unix(const std::string& path, int backlog, std::string* err);

/// Connects to a TCP endpoint (numeric IPv4) within `connect_timeout_ms`
/// (0 = OS default). The returned socket carries the default I/O timeouts.
/// Returns the fd or -1.
[[nodiscard]] int connect_tcp(const std::string& host, int port, std::string* err,
                              int connect_timeout_ms = kDefaultConnectTimeoutMs);

/// Connects to a Unix-domain stream socket; same timeout semantics as
/// connect_tcp. Returns the fd or -1.
[[nodiscard]] int connect_unix(const std::string& path, std::string* err,
                               int connect_timeout_ms = kDefaultConnectTimeoutMs);

}  // namespace ecl::svc::net
