// Tests for the ecl::exec subsystem: the epoll event loop (framing,
// pipelining, protocol-error and EOF closes, deadline eviction, post()/stop
// ordering). Waits block on a condition variable or future with a deadline
// instead of polling.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/event_loop.h"

namespace ecl::exec {
namespace {

using namespace std::chrono_literals;

// ----------------------------------------------------------- event loop ----

std::uint32_t frame_len(const std::vector<std::uint8_t>& frame) {
  return static_cast<std::uint32_t>(frame[0]) |
         (static_cast<std::uint32_t>(frame[1]) << 8) |
         (static_cast<std::uint32_t>(frame[2]) << 16) |
         (static_cast<std::uint32_t>(frame[3]) << 24);
}

std::vector<std::uint8_t> make_frame(const std::string& payload) {
  const auto n = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> out(4 + payload.size());
  for (int i = 0; i < 4; ++i) out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n >> (8 * i));
  std::memcpy(out.data() + 4, payload.data(), payload.size());
  return out;
}

/// A started loop serving one end of a socketpair that echoes every frame.
class EchoLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    ConnCallbacks cbs;
    cbs.on_frame = [this](Conn& c, std::span<const std::uint8_t> p) {
      frames_.fetch_add(1);
      const auto frame = make_frame({reinterpret_cast<const char*>(p.data()), p.size()});
      c.send(frame.data(), frame.size());
    };
    cbs.on_close = [this](Conn&, CloseReason r) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        close_reason_ = r;
        closed_ = true;
      }
      closed_cv_.notify_all();
    };
    ConnOptions copts;
    copts.max_frame_bytes = 1 << 16;
    ASSERT_NE(loop_.adopt(fds_[0], std::move(cbs), copts), nullptr);
    std::string err;
    ASSERT_TRUE(loop_.start(&err)) << err;
  }

  void TearDown() override {
    loop_.request_stop();
    loop_.join();
    ::close(fds_[1]);
  }

  bool wait_closed(std::chrono::milliseconds timeout = 2000ms) {
    std::unique_lock<std::mutex> lock(mu_);
    return closed_cv_.wait_for(lock, timeout, [this] { return closed_; });
  }

  CloseReason close_reason() {
    std::lock_guard<std::mutex> lock(mu_);
    return close_reason_;
  }

  /// Reads exactly n bytes from the client end (blocking).
  std::vector<std::uint8_t> read_exact(std::size_t n) {
    std::vector<std::uint8_t> buf(n);
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::read(fds_[1], buf.data() + got, n - got);
      if (r <= 0) {
        buf.resize(got);
        break;
      }
      got += static_cast<std::size_t>(r);
    }
    return buf;
  }

  EventLoop loop_;
  int fds_[2] = {-1, -1};
  std::atomic<int> frames_{0};
  std::mutex mu_;
  std::condition_variable closed_cv_;
  bool closed_ = false;
  CloseReason close_reason_ = CloseReason::kAppClose;
};

TEST_F(EchoLoopTest, EchoesOneFrame) {
  const auto f = make_frame("hello");
  ASSERT_EQ(::write(fds_[1], f.data(), f.size()), static_cast<ssize_t>(f.size()));
  const auto hdr = read_exact(4);
  ASSERT_EQ(hdr.size(), 4u);
  ASSERT_EQ(frame_len(hdr), 5u);
  const auto body = read_exact(5);
  EXPECT_EQ(std::string(body.begin(), body.end()), "hello");
}

TEST_F(EchoLoopTest, PipelinedFramesComeBackInOrder) {
  // Many frames in one write: the loop must deliver and answer all of them
  // in order, even though they arrive in a single epoll wake.
  std::vector<std::uint8_t> burst;
  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    const auto f = make_frame("msg-" + std::to_string(i));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_EQ(::write(fds_[1], burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  for (int i = 0; i < kFrames; ++i) {
    const auto hdr = read_exact(4);
    ASSERT_EQ(hdr.size(), 4u) << "at frame " << i;
    const auto body = read_exact(frame_len(hdr));
    EXPECT_EQ(std::string(body.begin(), body.end()), "msg-" + std::to_string(i));
  }
  EXPECT_EQ(frames_.load(), kFrames);
}

TEST_F(EchoLoopTest, SplitFrameIsReassembled) {
  const auto f = make_frame("split-across-writes");
  for (std::size_t i = 0; i < f.size(); ++i) {
    ASSERT_EQ(::write(fds_[1], f.data() + i, 1), 1);
    std::this_thread::sleep_for(1ms);
  }
  const auto hdr = read_exact(4);
  ASSERT_EQ(hdr.size(), 4u);
  const auto body = read_exact(frame_len(hdr));
  EXPECT_EQ(std::string(body.begin(), body.end()), "split-across-writes");
}

TEST_F(EchoLoopTest, OversizedFrameClosesWithProtocolError) {
  std::vector<std::uint8_t> hdr(4);
  const std::uint32_t huge = (1u << 16) + 1;  // just past max_frame_bytes
  std::memcpy(hdr.data(), &huge, 4);
  ASSERT_EQ(::write(fds_[1], hdr.data(), 4), 4);
  ASSERT_TRUE(wait_closed());
  EXPECT_EQ(close_reason(), CloseReason::kProtocolError);
}

TEST_F(EchoLoopTest, PeerCloseReportsEof) {
  ::shutdown(fds_[1], SHUT_WR);
  ASSERT_TRUE(wait_closed());
  EXPECT_EQ(close_reason(), CloseReason::kPeerClosed);
}

TEST(EventLoop, PostRunsOnLoopThreadAndStopClosesConns) {
  // Declared before the loop, so the loop's thread is joined before they go.
  std::promise<void> ran;
  std::promise<void> adopted;
  std::atomic<bool> closed{false};
  std::atomic<CloseReason> reason{CloseReason::kAppClose};
  EventLoop loop;
  std::string err;
  ASSERT_TRUE(loop.start(&err)) << err;
  loop.post([&] { ran.set_value(); });
  ASSERT_EQ(ran.get_future().wait_for(2s), std::future_status::ready);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  loop.post([&] {
    ConnCallbacks cbs;
    cbs.on_frame = [](Conn&, std::span<const std::uint8_t>) {};
    cbs.on_close = [&](Conn&, CloseReason r) {
      reason.store(r);
      closed.store(true);
    };
    EXPECT_NE(loop.adopt(fds[0], std::move(cbs), ConnOptions{}), nullptr);
    adopted.set_value();
  });
  ASSERT_EQ(adopted.get_future().wait_for(2s), std::future_status::ready);
  loop.request_stop();
  loop.join();
  EXPECT_TRUE(closed.load());
  EXPECT_EQ(reason.load(), CloseReason::kShutdown);
  ::close(fds[1]);
}

TEST(EventLoop, IdleTimeoutEvicts) {
  std::promise<CloseReason> closed;
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ConnCallbacks cbs;
  cbs.on_frame = [](Conn&, std::span<const std::uint8_t>) {};
  cbs.on_close = [&](Conn&, CloseReason r) { closed.set_value(r); };
  ConnOptions copts;
  copts.idle_timeout_ms = 50;
  ASSERT_NE(loop.adopt(fds[0], std::move(cbs), copts), nullptr);
  std::string err;
  ASSERT_TRUE(loop.start(&err)) << err;
  auto reason = closed.get_future();
  ASSERT_EQ(reason.wait_for(3s), std::future_status::ready);
  EXPECT_EQ(reason.get(), CloseReason::kIdleTimeout);
  loop.request_stop();
  loop.join();
  ::close(fds[1]);
}

using Clock = std::chrono::steady_clock;

// The loop's clock counts whole milliseconds, so a deadline armed at time t
// for d ms fires no earlier than t + d - 1 ms of real time.
constexpr auto kClockGrain = 1ms;

// Deadlines fire at their own time, in order, on one loop: no connection
// closes before its idle deadline.
TEST(EventLoop, DeadlinesEvictInOrder) {
  constexpr int kIdleMs[3] = {40, 120, 300};
  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> order;
  Clock::time_point closed_at[3];
  Clock::time_point adopted_at[3];
  int fds[3][2];
  EventLoop loop;
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds[i]), 0);
    ConnCallbacks cbs;
    cbs.on_frame = [](Conn&, std::span<const std::uint8_t>) {};
    cbs.on_close = [&, i](Conn&, CloseReason r) {
      EXPECT_EQ(r, CloseReason::kIdleTimeout);
      {
        std::lock_guard<std::mutex> lock(mu);
        closed_at[i] = Clock::now();
        order.push_back(i);
      }
      cv.notify_all();
    };
    ConnOptions copts;
    copts.idle_timeout_ms = kIdleMs[i];
    adopted_at[i] = Clock::now();
    ASSERT_NE(loop.adopt(fds[i][0], std::move(cbs), copts), nullptr);
  }
  std::string err;
  ASSERT_TRUE(loop.start(&err)) << err;
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, 3s, [&] { return order.size() == 3; }));
  }
  loop.request_stop();
  loop.join();
  EXPECT_EQ(order, std::vector<int>({0, 1, 2}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_GE(closed_at[i] - adopted_at[i], std::chrono::milliseconds(kIdleMs[i]) - kClockGrain)
        << "connection " << i << " closed before its deadline";
    ::close(fds[i][1]);
  }
}

// Every complete frame pushes the idle deadline out; once the frames stop,
// the connection closes an idle timeout after the last one.
TEST(EventLoop, TrafficPushesTheIdleDeadlineOut) {
  std::promise<CloseReason> closed;
  std::atomic<bool> is_closed{false};
  Clock::time_point last_frame_at;  // loop thread; read after the promise
  Clock::time_point closed_at;
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ConnCallbacks cbs;
  cbs.on_frame = [&](Conn&, std::span<const std::uint8_t>) { last_frame_at = Clock::now(); };
  cbs.on_close = [&](Conn&, CloseReason r) {
    closed_at = Clock::now();
    is_closed.store(true);
    closed.set_value(r);
  };
  ConnOptions copts;
  copts.idle_timeout_ms = 60;
  ASSERT_NE(loop.adopt(fds[0], std::move(cbs), copts), nullptr);
  std::string err;
  ASSERT_TRUE(loop.start(&err)) << err;
  const auto f = make_frame("tick");
  const auto start = Clock::now();
  for (auto next = start; next - start < 400ms; next += 20ms) {
    std::this_thread::sleep_until(next);
    ASSERT_EQ(::write(fds[1], f.data(), f.size()), static_cast<ssize_t>(f.size()));
  }
  EXPECT_FALSE(is_closed.load()) << "evicted while a frame arrived every 20 ms";
  auto reason = closed.get_future();
  ASSERT_EQ(reason.wait_for(3s), std::future_status::ready);
  EXPECT_EQ(reason.get(), CloseReason::kIdleTimeout);
  EXPECT_GE(closed_at - last_frame_at, 60ms - kClockGrain);
  loop.request_stop();
  loop.join();
  ::close(fds[1]);
}

TEST(EventLoopPool, RoundRobinAndSharedCounters) {
  EventLoopPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  EventLoop* first = &pool.next();
  EventLoop* second = &pool.next();
  EventLoop* third = &pool.next();
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_EQ(first, &pool.next());  // wrapped
  std::string err;
  ASSERT_TRUE(pool.start(&err)) << err;
  pool.stop();
  pool.stop();  // idempotent
}

}  // namespace
}  // namespace ecl::exec
