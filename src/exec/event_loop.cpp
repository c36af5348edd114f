#include "exec/event_loop.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <utility>

namespace ecl::exec {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
/// Per-wake read cap: level-triggered epoll re-fires for the rest, so one
/// firehose connection cannot starve its loop-mates.
constexpr std::size_t kMaxReadPerWake = 256 * 1024;
/// Safety cap on epoll_wait sleeps; the wake eventfd and the deadline bound
/// make longer sleeps unnecessary.
constexpr int kMaxPollMs = 500;

}  // namespace

// --- Conn ------------------------------------------------------------------

void Conn::send(const void* data, std::size_t n) {
  if (closing_ || n == 0) return;
  if (write_buffer_bytes() + n > opts_.write_buffer_limit) {
    loop_->queue_close(this, CloseReason::kWriteOverflow);
    return;
  }
  if (woff_ == wbuf_.size()) {
    wbuf_.clear();
    woff_ = 0;
  } else if (woff_ >= kReadChunk && woff_ > wbuf_.size() / 2) {
    wbuf_.erase(wbuf_.begin(), wbuf_.begin() + static_cast<std::ptrdiff_t>(woff_));
    woff_ = 0;
  }
  const auto* p = static_cast<const std::uint8_t*>(data);
  wbuf_.insert(wbuf_.end(), p, p + n);
  // High-watermark: how deep any connection's unsent backlog ever got.
  auto& hwm = loop_->counters_->write_buf_hwm;
  const std::uint64_t depth = write_buffer_bytes();
  std::uint64_t prev = hwm.load(std::memory_order_relaxed);
  while (depth > prev &&
         !hwm.compare_exchange_weak(prev, depth, std::memory_order_relaxed)) {
  }
  // Inside an on_frame stack, pipelined responses batch into one flush at
  // the end of the event; a send() from a posted task flushes now.
  if (!in_event_) loop_->flush_writes(this);
}

void Conn::close(CloseReason reason) { loop_->queue_close(this, reason); }

// --- EventLoop -------------------------------------------------------------

EventLoop::EventLoop(LoopCounters* counters)
    : counters_(counters != nullptr ? counters : &local_counters_),
      start_tp_(std::chrono::steady_clock::now()) {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wakefd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epfd_ >= 0 && wakefd_ >= 0) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakefd_;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakefd_, &ev);
  }
}

EventLoop::~EventLoop() {
  request_stop();
  join();
  if (epfd_ >= 0) ::close(epfd_);
  if (wakefd_ >= 0) ::close(wakefd_);
}

std::uint64_t EventLoop::now_ms() const {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now() - start_tp_)
                                        .count());
}

bool EventLoop::start(std::string* err) {
  if (started_) return true;
  if (epfd_ < 0 || wakefd_ < 0) {
    if (err != nullptr) *err = "event loop: epoll/eventfd setup failed";
    return false;
  }
  started_ = true;
  thread_ = std::thread([this] { run(); });
  return true;
}

void EventLoop::request_stop() {
  stop_.store(true, std::memory_order_release);
  if (wakefd_ >= 0) {
    const std::uint64_t one = 1;
    (void)!::write(wakefd_, &one, sizeof(one));
  }
}

void EventLoop::join() {
  if (thread_.joinable()) thread_.join();
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(posts_mu_);
    posts_.push_back(std::move(fn));
  }
  if (wakefd_ >= 0) {
    const std::uint64_t one = 1;
    (void)!::write(wakefd_, &one, sizeof(one));
  }
}

void EventLoop::post_after(int delay_ms, std::function<void()> fn) {
  timed_posts_.push_back(
      TimedPost{now_ms() + static_cast<std::uint64_t>(delay_ms > 0 ? delay_ms : 0),
                std::move(fn)});
}

Conn* EventLoop::adopt(int fd, ConnCallbacks cbs, ConnOptions opts) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  auto conn = std::unique_ptr<Conn>(new Conn());
  Conn* c = conn.get();
  c->fd_ = fd;
  c->loop_ = this;
  c->cbs_ = std::move(cbs);
  c->opts_ = opts;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return nullptr;
  }
  c->events_ = EPOLLIN;
  conns_.emplace(fd, std::move(conn));
  counters_->open_conns.fetch_add(1, std::memory_order_relaxed);
  update_deadlines(c);
  return c;
}

bool EventLoop::watch(int fd, std::function<void(std::uint32_t)> cb) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  watches_[fd] = std::move(cb);
  return true;
}

void EventLoop::unwatch(int fd) {
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  watches_.erase(fd);
}

void EventLoop::update_interest(Conn* c) {
  std::uint32_t want = 0;
  if (!c->closing_) {
    if (!c->read_paused_) want |= EPOLLIN;
    if (c->write_buffer_bytes() > 0) want |= EPOLLOUT;
  }
  if (want == c->events_) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = c->fd_;
  (void)::epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd_, &ev);
  c->events_ = want;
}

void EventLoop::update_deadlines(Conn* c) {
  if (c->closing_) return;
  const std::uint64_t now = now_ms();
  if (!c->mid_frame_) {
    c->read_deadline_ms_ =
        c->opts_.idle_timeout_ms > 0
            ? now + static_cast<std::uint64_t>(c->opts_.idle_timeout_ms)
            : 0;
  }
  // mid-frame deadlines are armed once at the frame's start (parse_frames)
  // and deliberately not refreshed by trickling bytes.
  arm(c->read_deadline_ms_);
}

void EventLoop::arm(std::uint64_t deadline_ms) {
  if (deadline_ms != 0 && deadline_ms < next_deadline_ms_) next_deadline_ms_ = deadline_ms;
}

void EventLoop::expire_deadlines(std::uint64_t now) {
  next_deadline_ms_ = UINT64_MAX;
  for (auto& kv : conns_) {
    Conn* c = kv.second.get();
    if (c->closing_) continue;
    if (c->write_deadline_ms_ != 0 && now >= c->write_deadline_ms_) {
      queue_close(c, CloseReason::kWriteStall);
    } else if (c->read_deadline_ms_ != 0 && now >= c->read_deadline_ms_) {
      queue_close(c, c->mid_frame_ ? CloseReason::kFrameTimeout
                                   : CloseReason::kIdleTimeout);
    } else {
      arm(c->read_deadline_ms_);
      arm(c->write_deadline_ms_);
    }
  }
}

void EventLoop::queue_close(Conn* c, CloseReason reason) {
  if (c->closing_) return;
  c->closing_ = true;
  c->close_reason_ = reason;
  if (!c->pending_close_listed_) {
    c->pending_close_listed_ = true;
    pending_close_.push_back(c);
  }
}

void EventLoop::do_read(Conn* c) {
  std::size_t got = 0;
  bool eof = false;
  while (got < kMaxReadPerWake) {
    const std::size_t old = c->rbuf_.size();
    c->rbuf_.resize(old + kReadChunk);
    const ssize_t r = ::recv(c->fd_, c->rbuf_.data() + old, kReadChunk, 0);
    if (r > 0) {
      c->rbuf_.resize(old + static_cast<std::size_t>(r));
      got += static_cast<std::size_t>(r);
      if (static_cast<std::size_t>(r) < kReadChunk) break;  // drained
      continue;
    }
    c->rbuf_.resize(old);
    if (r == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    queue_close(c, CloseReason::kSocketError);
    return;
  }
  if (eof) {
    // Parse what arrived before the FIN (responses flush best-effort from
    // destroy_pending), then close.
    parse_frames(c);
    if (!c->closing_) queue_close(c, CloseReason::kPeerClosed);
  }
}

void EventLoop::parse_frames(Conn* c) {
  auto& buf = c->rbuf_;
  while (!c->closing_) {
    if (c->write_buffer_bytes() > c->opts_.write_buffer_pause) {
      // Backpressure: stop consuming requests until responses drain.
      c->read_paused_ = true;
      break;
    }
    const std::size_t avail = buf.size() - c->roff_;
    if (avail < 4) break;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(buf[c->roff_ + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    if (len > c->opts_.max_frame_bytes) {
      queue_close(c, CloseReason::kProtocolError);
      return;
    }
    if (avail < 4 + static_cast<std::size_t>(len)) break;  // partial frame
    const std::span<const std::uint8_t> payload(buf.data() + c->roff_ + 4, len);
    c->roff_ += 4 + static_cast<std::size_t>(len);
    if (c->cbs_.on_frame) c->cbs_.on_frame(*c, payload);
  }
  if (c->closing_) return;
  // Compact the parsed prefix once it dominates the buffer.
  if (c->roff_ == buf.size()) {
    buf.clear();
    c->roff_ = 0;
  } else if (c->roff_ >= kReadChunk && c->roff_ > buf.size() / 2) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(c->roff_));
    c->roff_ = 0;
  }
  // Mid-frame tracking: unparsed bytes that are *missing* data (not merely
  // held back by backpressure) start the frame-completion clock once.
  const std::size_t avail = buf.size() - c->roff_;
  bool incomplete = false;
  if (avail > 0 && !c->read_paused_) {
    if (avail < 4) {
      incomplete = true;
    } else {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(buf[c->roff_ + static_cast<std::size_t>(i)])
               << (8 * i);
      }
      incomplete = avail < 4 + static_cast<std::size_t>(len);
    }
  }
  if (incomplete && !c->mid_frame_) {
    c->mid_frame_ = true;
    c->read_deadline_ms_ =
        c->opts_.frame_timeout_ms > 0
            ? now_ms() + static_cast<std::uint64_t>(c->opts_.frame_timeout_ms)
            : 0;
    arm(c->read_deadline_ms_);
  } else if (!incomplete && c->mid_frame_) {
    c->mid_frame_ = false;
    c->read_deadline_ms_ = 0;  // update_deadlines re-arms the idle clock
  }
}

void EventLoop::flush_writes(Conn* c) {
  if (c->closing_) return;
  bool progressed = false;
  while (c->woff_ < c->wbuf_.size()) {
    const ssize_t put = ::send(c->fd_, c->wbuf_.data() + c->woff_,
                               c->wbuf_.size() - c->woff_, MSG_NOSIGNAL);
    if (put > 0) {
      c->woff_ += static_cast<std::size_t>(put);
      progressed = true;
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    queue_close(c, CloseReason::kSocketError);
    return;
  }
  if (c->woff_ == c->wbuf_.size()) {
    c->wbuf_.clear();
    c->woff_ = 0;
    c->write_deadline_ms_ = 0;
  } else if (progressed || c->write_deadline_ms_ == 0) {
    // The stall clock measures time since the socket last accepted bytes.
    c->write_deadline_ms_ =
        c->opts_.write_stall_timeout_ms > 0
            ? now_ms() + static_cast<std::uint64_t>(c->opts_.write_stall_timeout_ms)
            : 0;
    arm(c->write_deadline_ms_);
  }
  if (c->read_paused_ &&
      c->write_buffer_bytes() <= c->opts_.write_buffer_pause / 2) {
    c->read_paused_ = false;  // caller re-parses buffered requests
  }
  update_interest(c);
  update_deadlines(c);
}

void EventLoop::handle_conn_event(Conn* c, std::uint32_t events) {
  if ((events & EPOLLERR) != 0) {
    queue_close(c, CloseReason::kSocketError);
    return;
  }
  c->in_event_ = true;
  if ((events & (EPOLLIN | EPOLLHUP)) != 0 && !c->read_paused_) {
    do_read(c);
  } else if ((events & EPOLLHUP) != 0) {
    queue_close(c, CloseReason::kPeerClosed);
  }
  if (!c->closing_) parse_frames(c);
  c->in_event_ = false;
  if (!c->closing_) flush_writes(c);
  // flush_writes may have lifted the backpressure pause with requests still
  // buffered; serve them now (one more round — if the pause re-trips, the
  // armed EPOLLOUT keeps the cycle going on the next wake).
  if (!c->closing_ && !c->read_paused_ && c->rbuf_.size() - c->roff_ > 0) {
    c->in_event_ = true;
    parse_frames(c);
    c->in_event_ = false;
    if (!c->closing_) flush_writes(c);
  }
  if (!c->closing_) {
    update_interest(c);
    update_deadlines(c);
  }
}

void EventLoop::destroy_pending() {
  while (!pending_close_.empty()) {
    // on_close may itself queue closes (rare); swap keeps iteration sane.
    std::vector<Conn*> batch;
    batch.swap(pending_close_);
    for (Conn* c : batch) {
      // Courtesy flush on non-eviction closes so a final response (the
      // shutdown ack, or the kInvalid reply that precedes a protocol-error
      // close) reaches peers that are still reading. Evictions skip it:
      // their write buffers are exactly what the peer refused to drain.
      if ((c->close_reason_ == CloseReason::kAppClose ||
           c->close_reason_ == CloseReason::kShutdown ||
           c->close_reason_ == CloseReason::kPeerClosed ||
           c->close_reason_ == CloseReason::kProtocolError) &&
          c->woff_ < c->wbuf_.size()) {
        while (c->woff_ < c->wbuf_.size()) {
          const ssize_t put = ::send(c->fd_, c->wbuf_.data() + c->woff_,
                                     c->wbuf_.size() - c->woff_, MSG_NOSIGNAL);
          if (put <= 0) {
            if (put < 0 && errno == EINTR) continue;
            break;
          }
          c->woff_ += static_cast<std::size_t>(put);
        }
      }
      switch (c->close_reason_) {
        case CloseReason::kIdleTimeout:
          counters_->evicted_idle.fetch_add(1, std::memory_order_relaxed);
          break;
        case CloseReason::kFrameTimeout:
          counters_->evicted_frame.fetch_add(1, std::memory_order_relaxed);
          break;
        case CloseReason::kWriteStall:
          counters_->evicted_stall.fetch_add(1, std::memory_order_relaxed);
          break;
        case CloseReason::kWriteOverflow:
          counters_->evicted_overflow.fetch_add(1, std::memory_order_relaxed);
          break;
        default:
          break;
      }
      const int fd = c->fd_;
      (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
      if (c->cbs_.on_close) c->cbs_.on_close(*c, c->close_reason_);
      ::close(fd);
      counters_->open_conns.fetch_sub(1, std::memory_order_relaxed);
      conns_.erase(fd);  // frees c
    }
  }
}

void EventLoop::drain_posts() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(posts_mu_);
    batch.swap(posts_);
  }
  for (auto& fn : batch) fn();
}

int EventLoop::compute_timeout_ms() {
  {
    std::lock_guard<std::mutex> lock(posts_mu_);
    if (!posts_.empty()) return 0;
  }
  std::uint64_t due = next_deadline_ms_;
  for (const auto& tp : timed_posts_) due = std::min(due, tp.due_ms);
  const std::uint64_t now = now_ms();
  if (due <= now) return 0;
  return static_cast<int>(std::min<std::uint64_t>(due - now, kMaxPollMs));
}

void EventLoop::run() {
  std::array<epoll_event, 128> evs;
  while (!stop_.load(std::memory_order_acquire)) {
    const int timeout = compute_timeout_ms();
    const int n = ::epoll_wait(epfd_, evs.data(), static_cast<int>(evs.size()), timeout);
    counters_->wakeups.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = evs[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t events = evs[static_cast<std::size_t>(i)].events;
      if (fd == wakefd_) {
        std::uint64_t junk = 0;
        while (::read(wakefd_, &junk, sizeof(junk)) > 0) {
        }
        continue;
      }
      if (auto w = watches_.find(fd); w != watches_.end()) {
        // Copy: the callback may unwatch(fd) (e.g. accept backoff).
        auto cb = w->second;
        cb(events);
        continue;
      }
      if (auto it = conns_.find(fd); it != conns_.end()) {
        Conn* c = it->second.get();
        if (!c->closing_) handle_conn_event(c, events);
      }
    }
    drain_posts();
    // Due deferred tasks (accept re-arm, load-generator stop, ...).
    if (!timed_posts_.empty()) {
      const std::uint64_t now = now_ms();
      std::vector<std::function<void()>> due;
      for (std::size_t i = 0; i < timed_posts_.size();) {
        if (timed_posts_[i].due_ms <= now) {
          due.push_back(std::move(timed_posts_[i].fn));
          timed_posts_[i] = std::move(timed_posts_.back());
          timed_posts_.pop_back();
        } else {
          ++i;
        }
      }
      for (auto& fn : due) fn();
    }
    if (const std::uint64_t now = now_ms(); now >= next_deadline_ms_) expire_deadlines(now);
    destroy_pending();
  }

  // Shutdown: every connection closes (on_close fires with kShutdown).
  for (auto& kv : conns_) queue_close(kv.second.get(), CloseReason::kShutdown);
  destroy_pending();
  for (auto& kv : watches_) {
    (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, kv.first, nullptr);
  }
  watches_.clear();
  {
    std::lock_guard<std::mutex> lock(posts_mu_);
    posts_.clear();
  }
  timed_posts_.clear();
}

// --- EventLoopPool ---------------------------------------------------------

EventLoopPool::EventLoopPool(int num_loops) {
  const int n = num_loops > 0 ? num_loops : 1;
  loops_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(&counters_));
  }
}

EventLoopPool::~EventLoopPool() { stop(); }

bool EventLoopPool::start(std::string* err) {
  if (started_) return true;
  for (auto& loop : loops_) {
    if (!loop->start(err)) {
      stop();
      return false;
    }
  }
  started_ = true;
  return true;
}

void EventLoopPool::request_stop() {
  for (auto& loop : loops_) loop->request_stop();
}

void EventLoopPool::wait() {
  for (auto& loop : loops_) loop->join();
}

void EventLoopPool::stop() {
  request_stop();
  wait();
}

EventLoop& EventLoopPool::next() {
  return *loops_[rr_.fetch_add(1, std::memory_order_relaxed) % loops_.size()];
}

}  // namespace ecl::exec
