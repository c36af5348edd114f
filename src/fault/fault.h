// ecl::fault — deterministic fault injection for robustness testing.
//
// A fault *point* is a named site in production code (e.g. "svc.net.read",
// "svc.wal.fsync") that asks the registry, on every pass, whether a fault
// should fire there. Nothing fires unless a matching spec has been armed,
// either programmatically (Registry::arm) or through the ECL_FAULT
// environment variable, so production binaries carry the points at the cost
// of one relaxed atomic load per pass — and builds with -DECL_FAULT_DISABLED
// compile every point down to a constant, the same compile-out contract as
// ECL_OBS_DISABLED (the class definitions themselves stay flag-independent,
// so instrumented and uninstrumented objects can meet in one binary).
//
// Spec grammar (ECL_FAULT or Registry::arm):
//
//   spec    := clause (';' clause)*
//   clause  := point '=' action (',' key '=' value)*
//   action  := fail | short | delay | oom | kill
//   key     := arg | after | times | every | prob | seed
//
//   ECL_FAULT='svc.net.read=fail,after=100,times=3'
//   ECL_FAULT='svc.net.write=delay,arg=5000,prob=0.01,seed=7;svc.wal.fsync=fail'
//
// Matching is exact on the point name. Firing is deterministic: the first
// `after` passes are skipped, then every `every`-th eligible pass fires, at
// most `times` times; `prob` thins eligible passes through a seeded xoshiro
// stream (same seed => same firing pattern, independent of wall clock).
//
// The registry never applies a fault itself — it returns an Outcome and the
// site decides what "fail" or "short" means locally (return EIO, truncate a
// read, throw, ...). This keeps the layer free of policy and usable from
// any subsystem.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ecl::fault {

enum class Action : std::uint8_t {
  kNone = 0,   // nothing armed / did not fire
  kFail = 1,   // site should fail as if the operation returned an error
  kShort = 2,  // site should deliver only `arg` bytes, then fail
  kDelay = 3,  // site should sleep `arg` microseconds, then proceed
  kOom = 4,    // site should behave as if allocation failed
  kKill = 5,   // site should terminate its worker (thread death, not process)
};

/// What a fault point should do on this pass. kNone means proceed normally.
struct Outcome {
  Action action = Action::kNone;
  std::uint64_t arg = 0;  // kShort: byte budget; kDelay: microseconds

  [[nodiscard]] bool fired() const { return action != Action::kNone; }
};

/// One armed clause. Fields mirror the spec grammar.
struct PointSpec {
  std::string point;
  Action action = Action::kFail;
  std::uint64_t arg = 0;
  std::uint64_t after = 0;                    // skip the first N passes
  std::uint64_t times = ~std::uint64_t{0};    // fire at most N times
  std::uint64_t every = 1;                    // then fire every Nth pass
  double prob = 1.0;                          // thin eligible passes
  std::uint64_t seed = 1;                     // for the prob stream
};

class Registry {
 public:
  /// Parses and arms a spec string (see grammar above). On a parse error
  /// nothing is armed and *err (when given) names the offending clause.
  [[nodiscard]] bool arm(const std::string& spec, std::string* err = nullptr);

  /// Arms one clause programmatically.
  void arm_point(PointSpec spec);

  /// Removes every armed clause.
  void disarm_all();

  /// True when at least one clause is armed. One relaxed load — this is the
  /// production fast path that ECL_FAULT_POINT checks before anything else.
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Evaluates one pass of `point`. Returns the first matching clause's
  /// outcome, or kNone. Thread-safe; deterministic per clause.
  [[nodiscard]] Outcome evaluate(std::string_view point) noexcept;

  /// The process-wide registry. On first use it arms itself from the
  /// ECL_FAULT environment variable (a malformed value is reported to
  /// stderr and ignored — a typo must not silently disable a chaos run
  /// *and* must not take the process down).
  static Registry& instance();

 private:
  struct Clause;
  struct Impl;
  Impl& impl() const;

  std::atomic<bool> armed_{false};
};

/// Convenience for sites: sleeps when the outcome is kDelay (microseconds).
void apply_delay(const Outcome& outcome);

}  // namespace ecl::fault

// ---------------------------------------------------------------------------
// Record-site macro: the compile-out boundary. With ECL_FAULT_DISABLED every
// point evaluates to a constant kNone outcome; otherwise a disarmed registry
// costs one relaxed atomic load.
#if defined(ECL_FAULT_DISABLED)

#define ECL_FAULT_POINT(point_literal) (::ecl::fault::Outcome{})

#else

#define ECL_FAULT_POINT(point_literal)                        \
  (::ecl::fault::Registry::instance().armed()                 \
       ? ::ecl::fault::Registry::instance().evaluate(point_literal) \
       : ::ecl::fault::Outcome{})

#endif  // ECL_FAULT_DISABLED
