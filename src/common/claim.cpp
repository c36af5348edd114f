#include "common/claim.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <vector>

namespace ecl {

std::size_t allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 1;
  return static_cast<std::size_t>(std::max(CPU_COUNT(&allowed), 1));
}

void for_each_claimed(std::size_t count, const std::function<void(std::size_t)>& work) {
  struct Claims {
    const std::function<void(std::size_t)>& work;
    std::size_t count;
    std::atomic<std::size_t> next{0};
    std::size_t claim() { return next.fetch_add(1, std::memory_order_relaxed); }
    void drain() noexcept {
      for (std::size_t i = claim(); i < count; i = claim()) work(i);
    }
  } claims{work, count};

  std::vector<pthread_t> helpers;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (count > 1 && ::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    helpers.reserve(std::min<std::size_t>(CPU_COUNT(&allowed), count - 1));
    const int self = ::sched_getcpu();
    for (int cpu = 0; cpu < CPU_SETSIZE && helpers.size() + 1 < count; ++cpu) {
      if (cpu == self || !CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_attr_t attr;
      if (::pthread_attr_init(&attr) != 0) break;
      pthread_t t;
      const bool started =
          ::pthread_attr_setaffinity_np(&attr, sizeof(one), &one) == 0 &&
          ::pthread_create(
              &t, &attr,
              [](void* arg) -> void* {
                static_cast<Claims*>(arg)->drain();
                return nullptr;
              },
              &claims) == 0;
      ::pthread_attr_destroy(&attr);
      if (!started) break;
      helpers.push_back(t);
    }
  }
  claims.drain();
  for (const pthread_t t : helpers) ::pthread_join(t, nullptr);
}

}  // namespace ecl
