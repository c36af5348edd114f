#include "common/sock.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace ecl {

namespace {

void set_error(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what + ": " + std::strerror(errno);
}

timeval millis_to_timeval(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  return tv;
}

}  // namespace

void set_io_timeouts(int fd, int recv_timeout_ms, int send_timeout_ms) {
  if (recv_timeout_ms > 0) {
    const timeval tv = millis_to_timeval(recv_timeout_ms);
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (send_timeout_ms > 0) {
    const timeval tv = millis_to_timeval(send_timeout_ms);
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
}

int listen_tcp(const std::string& host, int port, int backlog, int* bound_port,
               std::string* err) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    set_error(err, "socket");
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "listen_tcp: host must be a numeric IPv4 address: " + host;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(err, "bind " + host);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, backlog) != 0) {
    set_error(err, "listen");
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

}  // namespace ecl
