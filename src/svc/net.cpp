#include "svc/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/sock.h"
#include "fault/fault.h"
#include "svc/protocol.h"

namespace ecl::svc::net {

namespace {

void set_error(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what + ": " + std::strerror(errno);
}

/// Injected read fault. Mutates `budget` (the bytes this read may still
/// deliver before simulating a dead peer) and returns true when the read
/// should fail right now.
bool read_fault_fires(std::size_t& budget) {
  const auto outcome = ECL_FAULT_POINT("svc.net.read");
  switch (outcome.action) {
    case fault::Action::kFail:
      return true;
    case fault::Action::kShort:
      budget = std::min<std::size_t>(budget, outcome.arg);
      return budget == 0;
    case fault::Action::kDelay:
      fault::apply_delay(outcome);
      return false;
    default:
      return false;
  }
}

bool write_fault_fires() {
  const auto outcome = ECL_FAULT_POINT("svc.net.write");
  if (outcome.action == fault::Action::kDelay) {
    fault::apply_delay(outcome);
    return false;
  }
  return outcome.action == fault::Action::kFail ||
         outcome.action == fault::Action::kShort;
}

}  // namespace

bool read_full(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t fault_budget = SIZE_MAX;
  while (n > 0) {
    if (read_fault_fires(fault_budget)) return false;
    const std::size_t want = std::min(n, fault_budget);
    const ssize_t r = ::recv(fd, p, want, 0);
    if (r == 0) return false;
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;  // error, or SO_RCVTIMEO expired (EAGAIN)
    }
    p += r;
    n -= static_cast<std::size_t>(r);
    if (fault_budget != SIZE_MAX) {
      fault_budget -= static_cast<std::size_t>(r);
      if (fault_budget == 0 && n > 0) return false;
    }
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    if (write_fault_fires()) return false;
    const ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;  // error, or SO_SNDTIMEO expired (EAGAIN)
    }
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint8_t prefix[4];
  if (!read_full(fd, prefix, sizeof(prefix))) return false;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  if (len > kMaxFrameBytes) return false;
  payload.resize(len);
  return len == 0 || read_full(fd, payload.data(), len);
}

bool write_frame(int fd, const std::vector<std::uint8_t>& bytes) {
  return write_full(fd, bytes.data(), bytes.size());
}

int listen_unix(const std::string& path, int backlog, std::string* err) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) *err = "unix socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(err, "socket");
    return -1;
  }
  ::unlink(path.c_str());  // stale socket from a previous run
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(err, "bind " + path);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) != 0) {
    set_error(err, "listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

namespace {

/// Connects `fd` to `addr` within `timeout_ms` via the standard
/// non-blocking connect + poll(POLLOUT) + SO_ERROR dance, then restores
/// blocking mode. Returns false (errno set) on failure or timeout.
bool connect_with_timeout(int fd, const sockaddr* addr, socklen_t addrlen,
                          int timeout_ms) {
  if (ECL_FAULT_POINT("svc.net.connect").fired()) {
    errno = ECONNREFUSED;
    return false;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (timeout_ms <= 0 || flags < 0) {
    return ::connect(fd, addr, addrlen) == 0;
  }
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  bool ok = false;
  if (::connect(fd, addr, addrlen) == 0) {
    ok = true;
  } else if (errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      errno = ETIMEDOUT;
    } else if (ready > 0) {
      int soerr = 0;
      socklen_t len = sizeof(soerr);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) == 0 && soerr == 0) {
        ok = true;
      } else {
        errno = soerr != 0 ? soerr : EIO;
      }
    }
  }
  const int saved_errno = errno;
  (void)::fcntl(fd, F_SETFL, flags);
  errno = saved_errno;
  return ok;
}

}  // namespace

int connect_tcp(const std::string& host, int port, std::string* err,
                int connect_timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(err, "socket");
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "connect_tcp: host must be a numeric IPv4 address: " + host;
    ::close(fd);
    return -1;
  }
  if (!connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr), connect_timeout_ms)) {
    set_error(err, "connect " + host);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_io_timeouts(fd, kDefaultSocketTimeoutMs, kDefaultSocketTimeoutMs);
  return fd;
}

int connect_unix(const std::string& path, std::string* err, int connect_timeout_ms) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) *err = "unix socket path too long: " + path;
    return -1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(err, "socket");
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (!connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr), connect_timeout_ms)) {
    set_error(err, "connect " + path);
    ::close(fd);
    return -1;
  }
  set_io_timeouts(fd, kDefaultSocketTimeoutMs, kDefaultSocketTimeoutMs);
  return fd;
}

}  // namespace ecl::svc::net
