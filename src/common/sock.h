// TCP socket helpers shared by the service front end (svc::Server, the svc
// client connectors) and the obs metrics exporter. Both libraries link
// ecl_common, so the listener code exists once.
#pragma once

#include <string>

namespace ecl {

/// Applies SO_RCVTIMEO / SO_SNDTIMEO (milliseconds; 0 leaves that side
/// unbounded). Best effort: setsockopt failures are ignored.
void set_io_timeouts(int fd, int recv_timeout_ms, int send_timeout_ms);

/// Creates a listening TCP socket on host:port (numeric IPv4 only;
/// port 0 picks an ephemeral port, reported through *bound_port).
/// Returns the fd, or -1 with *err filled in.
[[nodiscard]] int listen_tcp(const std::string& host, int port, int backlog,
                             int* bound_port, std::string* err);

}  // namespace ecl
