#include "fault/fault.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "obs/metrics.h"

namespace ecl::fault {

// Per-clause runtime state lives next to its spec; pass/fire counters are
// guarded by the registry mutex (fault evaluation is off the hot path the
// moment anything is armed, so a single lock is fine and keeps the
// every/after/times arithmetic exact under concurrency).
struct Registry::Clause {
  PointSpec spec;
  std::uint64_t passes = 0;  // evaluations seen
  std::uint64_t fires = 0;   // outcomes actually returned
  Xoshiro256 rng{1};

  explicit Clause(PointSpec s) : spec(std::move(s)), rng(spec.seed) {}
};

struct Registry::Impl {
  mutable std::mutex mu;
  std::vector<Clause> clauses;
};

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

namespace {

/// Uniform double in [0, 1) from the top 53 bits, matching the portable
/// distributions in common/rng.h.
double next_unit(Xoshiro256& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

bool parse_action(const std::string& s, Action& out) {
  if (s == "fail") out = Action::kFail;
  else if (s == "short") out = Action::kShort;
  else if (s == "delay") out = Action::kDelay;
  else if (s == "oom") out = Action::kOom;
  else if (s == "kill") out = Action::kKill;
  else return false;
  return true;
}

/// Parses one `point=action[,key=value...]` clause.
bool parse_clause(const std::string& clause, PointSpec& out, std::string* err) {
  const auto fail = [&](const std::string& what) {
    if (err != nullptr) *err = what + " in fault clause '" + clause + "'";
    return false;
  };
  const std::size_t eq = clause.find('=');
  if (eq == std::string::npos || eq == 0) return fail("missing point name");
  out = PointSpec{};
  out.point = clause.substr(0, eq);

  std::size_t pos = eq + 1;
  bool first = true;
  while (pos <= clause.size()) {
    std::size_t comma = clause.find(',', pos);
    if (comma == std::string::npos) comma = clause.size();
    const std::string token = clause.substr(pos, comma - pos);
    if (first) {
      if (!parse_action(token, out.action)) return fail("unknown action '" + token + "'");
      first = false;
    } else {
      const std::size_t keq = token.find('=');
      if (keq == std::string::npos) return fail("expected key=value, got '" + token + "'");
      const std::string key = token.substr(0, keq);
      const std::string val = token.substr(keq + 1);
      bool ok = true;
      if (key == "arg") ok = parse_u64(val, out.arg);
      else if (key == "after") ok = parse_u64(val, out.after);
      else if (key == "times") ok = parse_u64(val, out.times);
      else if (key == "every") ok = parse_u64(val, out.every) && out.every > 0;
      else if (key == "seed") ok = parse_u64(val, out.seed);
      else if (key == "prob")
        ok = parse_double(val, out.prob) && out.prob >= 0.0 && out.prob <= 1.0;
      else return fail("unknown key '" + key + "'");
      if (!ok) return fail("bad value for '" + key + "'");
    }
    pos = comma + 1;
    if (comma == clause.size()) break;
  }
  if (first) return fail("missing action");
  return true;
}

}  // namespace

bool Registry::arm(const std::string& spec, std::string* err) {
  // Parse everything first: a bad clause arms nothing.
  std::vector<PointSpec> parsed;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t semi = spec.find(';', pos);
    if (semi == std::string::npos) semi = spec.size();
    const std::string clause = spec.substr(pos, semi - pos);
    if (!clause.empty()) {
      PointSpec ps;
      if (!parse_clause(clause, ps, err)) return false;
      parsed.push_back(std::move(ps));
    }
    pos = semi + 1;
    if (semi == spec.size()) break;
  }
  for (auto& ps : parsed) arm_point(std::move(ps));
  return true;
}

void Registry::arm_point(PointSpec spec) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.clauses.emplace_back(std::move(spec));
  armed_.store(true, std::memory_order_release);
}

void Registry::disarm_all() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.clauses.clear();
  armed_.store(false, std::memory_order_release);
}

Outcome Registry::evaluate(std::string_view point) noexcept {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  for (Clause& c : i.clauses) {
    if (c.spec.point != point) continue;
    const std::uint64_t pass = c.passes++;
    if (pass < c.spec.after) continue;
    if (c.fires >= c.spec.times) continue;
    if ((pass - c.spec.after) % c.spec.every != 0) continue;
    if (c.spec.prob < 1.0 && next_unit(c.rng) >= c.spec.prob) continue;
    ++c.fires;
    ECL_OBS_COUNTER_ADD("ecl.fault.injected", 1);
    return Outcome{c.spec.action, c.spec.arg};
  }
  return Outcome{};
}

Registry& Registry::instance() {
  static Registry* reg = [] {
    auto* r = new Registry();
    if (const char* env = std::getenv("ECL_FAULT"); env != nullptr && env[0] != '\0') {
      std::string err;
      if (!r->arm(env, &err)) {
        std::fprintf(stderr, "warning: ignoring malformed ECL_FAULT: %s\n",
                     err.c_str());
      }
    }
    return r;
  }();
  return *reg;
}

void apply_delay(const Outcome& outcome) {
  if (outcome.action == Action::kDelay && outcome.arg > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(outcome.arg));
  }
}

}  // namespace ecl::fault
