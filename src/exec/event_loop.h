// ecl::exec event loop — a small pool of I/O workers multiplexing
// thousands of non-blocking stream sockets via level-triggered epoll
// (docs/EXECUTOR.md "Event loop").
//
// Each EventLoop owns one epoll instance and one thread. Connections are
// adopted onto a loop and never migrate; every callback for a connection
// runs on its loop's thread, so per-connection state needs no locks. The
// loop does length-prefix framing (u32 little-endian payload length, the
// same frame shape as svc/protocol.h but with a configurable cap, keeping
// this layer protocol-agnostic): on_frame fires once per complete payload,
// and multiple frames read in one wake are delivered back to back — request
// pipelining falls out for free, with responses appended to the write
// buffer in arrival order.
//
// Backpressure state machine (per connection):
//
//   writable ──ŵbuf > pause──▶ read-paused ──wbuf <= pause/2──▶ writable
//       │                            │
//       └── wbuf would exceed limit ─┴─ no write progress for
//           → evict (overflow)          write_stall_timeout → evict (stall)
//
// A slow reader first stops being *read from* (its pipelined requests stay
// in its socket; the kernel's TCP window pushes back), and is evicted only
// when it also stops draining its responses. Each connection stores its
// idle or mid-frame deadline and its write-stall deadline; the loop keeps a
// lower bound on all of them, sleeps in epoll_wait until that bound (or the
// next post_after() task), and then closes every expired connection in one
// pass over its connections, which also recomputes the exact next deadline.
//
// Shutdown: request_stop() is async-signal-safe (one atomic store + one
// eventfd write).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace ecl::exec {

class EventLoop;
class EventLoopPool;

/// Why a connection was closed; handed to on_close exactly once.
enum class CloseReason : std::uint8_t {
  kAppClose = 0,    // application asked (normal end of conversation)
  kPeerClosed,      // orderly EOF from the peer
  kProtocolError,   // oversized/undeliverable frame
  kSocketError,     // read/write error on the socket
  kIdleTimeout,     // no traffic within idle_timeout_ms (evicted)
  kFrameTimeout,    // frame started but stalled (evicted)
  kWriteStall,      // peer stopped draining responses (evicted)
  kWriteOverflow,   // write buffer would exceed its hard limit (evicted)
  kShutdown,        // loop is stopping
};

struct ConnOptions {
  /// Frames above this length close the connection (kProtocolError).
  std::size_t max_frame_bytes = 64u << 20;
  /// Hard cap on buffered unsent response bytes; exceeding it evicts.
  std::size_t write_buffer_limit = 64u << 20;
  /// Stop reading new requests while more than this is buffered; resume at
  /// half. 0 pauses as soon as anything is buffered.
  std::size_t write_buffer_pause = 1u << 20;
  /// Evict after this long with no complete traffic at all. 0 = never.
  int idle_timeout_ms = 0;
  /// A started frame must complete within this bound. 0 = unbounded.
  int frame_timeout_ms = 0;
  /// Evict when the write buffer is non-empty and the socket accepted no
  /// bytes for this long. 0 = never.
  int write_stall_timeout_ms = 10000;
};

class Conn;

struct ConnCallbacks {
  /// One complete frame payload (without the length prefix). The span is
  /// only valid for the duration of the call.
  std::function<void(Conn&, std::span<const std::uint8_t>)> on_frame;
  /// Fired exactly once, on the loop thread, just before the fd closes.
  std::function<void(Conn&, CloseReason)> on_close;
};

/// Counters shared by every loop in a pool (and readable by the owner).
/// All relaxed: they are telemetry, not synchronization.
struct LoopCounters {
  std::atomic<std::uint64_t> open_conns{0};
  std::atomic<std::uint64_t> wakeups{0};        // epoll_wait returns
  std::atomic<std::uint64_t> write_buf_hwm{0};  // high-watermark bytes, any conn
  std::atomic<std::uint64_t> evicted_idle{0};
  std::atomic<std::uint64_t> evicted_frame{0};
  std::atomic<std::uint64_t> evicted_stall{0};
  std::atomic<std::uint64_t> evicted_overflow{0};
};

/// One multiplexed connection. All methods are loop-thread-only (call them
/// from on_frame/on_close or a task post()ed to the owning loop).
class Conn {
 public:
  /// Appends bytes to the write buffer and flushes opportunistically (or,
  /// inside an on_frame stack, batches until the event is fully handled).
  /// May evict the connection (kWriteOverflow) if the buffer would exceed
  /// its limit.
  void send(const void* data, std::size_t n);

  /// Flushes what it can and closes (on_close fires before the fd closes).
  /// Safe to call repeatedly; the first reason wins.
  void close(CloseReason reason = CloseReason::kAppClose);

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] EventLoop& loop() { return *loop_; }
  [[nodiscard]] std::size_t write_buffer_bytes() const { return wbuf_.size() - woff_; }
  [[nodiscard]] bool closing() const { return closing_; }

 private:
  friend class EventLoop;
  Conn() = default;

  int fd_ = -1;
  EventLoop* loop_ = nullptr;
  ConnCallbacks cbs_;
  ConnOptions opts_;

  std::vector<std::uint8_t> rbuf_;
  std::size_t roff_ = 0;  // parsed prefix of rbuf_
  std::vector<std::uint8_t> wbuf_;
  std::size_t woff_ = 0;  // flushed prefix of wbuf_

  std::uint32_t events_ = 0;      // current epoll interest mask
  bool read_paused_ = false;      // backpressure: EPOLLIN dropped
  bool closing_ = false;
  bool in_event_ = false;         // inside handle_event: batch sends
  bool pending_close_listed_ = false;
  CloseReason close_reason_ = CloseReason::kAppClose;

  bool mid_frame_ = false;            // partial frame sits in rbuf_
  std::uint64_t read_deadline_ms_ = 0;   // idle or frame deadline; 0 = none
  std::uint64_t write_deadline_ms_ = 0;  // stall deadline; 0 = none
};

class EventLoop {
 public:
  /// `counters` may be null (standalone loop) or shared (pool).
  explicit EventLoop(LoopCounters* counters = nullptr);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread. False (with *err) if epoll/eventfd setup
  /// failed at construction.
  [[nodiscard]] bool start(std::string* err = nullptr);

  /// Stops the loop: every connection closes with kShutdown, then the
  /// thread exits. Async-signal-safe (atomic store + eventfd write).
  void request_stop();

  /// Joins the loop thread. Idempotent; call after request_stop().
  void join();

  /// Runs `fn` on the loop thread (thread-safe, wakes the loop). Tasks
  /// posted after the loop exits are discarded.
  void post(std::function<void()> fn);

  /// Runs `fn` on the loop thread after `delay_ms`. Loop-thread-only; from
  /// another thread, post() a task that calls this. Dropped on stop.
  void post_after(int delay_ms, std::function<void()> fn);

  /// Takes ownership of a connected socket (sets O_NONBLOCK). Returns the
  /// Conn, or null if epoll registration failed (fd closed either way on
  /// failure). Loop-thread-only once the loop is started; may be called
  /// from the owning thread before start().
  Conn* adopt(int fd, ConnCallbacks cbs, ConnOptions opts);

  /// Watches a non-connection fd (e.g. a listener) for EPOLLIN; the
  /// callback runs on the loop thread with the ready events. Same calling
  /// rules as adopt(). unwatch() drops the registration.
  [[nodiscard]] bool watch(int fd, std::function<void(std::uint32_t)> cb);
  void unwatch(int fd);

  friend class Conn;

 private:
  /// Milliseconds since loop construction (the deadlines' clock).
  [[nodiscard]] std::uint64_t now_ms() const;
  void run();
  void handle_conn_event(Conn* c, std::uint32_t events);
  void do_read(Conn* c);
  void parse_frames(Conn* c);
  /// Sends as much buffered data as the socket accepts; updates stall
  /// deadline and backpressure pause state.
  void flush_writes(Conn* c);
  void update_interest(Conn* c);
  void update_deadlines(Conn* c);
  /// Lowers next_deadline_ms_ to `deadline_ms` (0 = none).
  void arm(std::uint64_t deadline_ms);
  /// Closes every connection whose deadline has passed and sets
  /// next_deadline_ms_ to the earliest deadline left.
  void expire_deadlines(std::uint64_t now);
  void queue_close(Conn* c, CloseReason reason);
  void destroy_pending();
  void drain_posts();
  int compute_timeout_ms();

  int epfd_ = -1;
  int wakefd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread thread_;
  LoopCounters* counters_ = nullptr;
  LoopCounters local_counters_;  // used when no shared set was given

  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::unordered_map<int, std::function<void(std::uint32_t)>> watches_;
  std::vector<Conn*> pending_close_;

  std::mutex posts_mu_;
  std::vector<std::function<void()>> posts_;
  struct TimedPost {
    std::uint64_t due_ms = 0;
    std::function<void()> fn;
  };
  std::vector<TimedPost> timed_posts_;  // loop-thread-only; scanned linearly

  // At or before every connection's armed deadline; UINT64_MAX = none.
  std::uint64_t next_deadline_ms_ = UINT64_MAX;
  std::chrono::steady_clock::time_point start_tp_;
};

/// N loops + round-robin connection placement + one shared counter block.
class EventLoopPool {
 public:
  explicit EventLoopPool(int num_loops);
  ~EventLoopPool();

  [[nodiscard]] bool start(std::string* err = nullptr);
  /// Async-signal-safe fan-out of EventLoop::request_stop().
  void request_stop();
  /// Joins every loop thread (each exits once stopped, its connections
  /// closed). Idempotent.
  void wait();
  /// request_stop() + wait(). Idempotent.
  void stop();

  [[nodiscard]] std::size_t size() const { return loops_.size(); }
  [[nodiscard]] EventLoop& at(std::size_t i) { return *loops_[i]; }
  /// Round-robin pick for placing a new connection.
  [[nodiscard]] EventLoop& next();
  [[nodiscard]] LoopCounters& counters() { return counters_; }
  [[nodiscard]] const LoopCounters& counters() const { return counters_; }

 private:
  LoopCounters counters_;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<std::size_t> rr_{0};
  bool started_ = false;
};

}  // namespace ecl::exec
