// Minimal streaming JSON writer used by the observability layer (trace files
// and run reports). Dependency-free by design: the container bakes in no JSON
// library, and the two producers only ever *write* JSON, so a small
// comma-tracking emitter with correct string escaping is all that is needed.
//
// Usage:
//   JsonWriter w(os);
//   w.begin_object();
//   w.key("name"); w.value("ecl");
//   w.key("reps"); w.begin_array(); w.value(1.5); w.value(2.5); w.end_array();
//   w.end_object();
//
// Nesting is tracked internally; commas and quoting are inserted
// automatically. Numbers are emitted with enough precision to round-trip
// doubles through a standard JSON parser.
#pragma once

#include <cstdint>
#include <ostream>
#include <string_view>
#include <vector>

namespace ecl::obs {

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits an object key (must be inside an object, before its value).
  void key(std::string_view k);

  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }
  void value(double d);
  void value(std::uint64_t u);
  void value(std::int64_t i);
  void value(int i) { value(static_cast<std::int64_t>(i)); }
  void value(unsigned u) { value(static_cast<std::uint64_t>(u)); }
  void value(bool b);

  /// Writes `s` verbatim (caller guarantees it is valid JSON), with the same
  /// comma handling as any other value. Used for pre-rendered fragments.
  void raw_value(std::string_view s);

  /// Escapes `s` per RFC 8259 into a double-quoted JSON string.
  static void write_escaped(std::ostream& os, std::string_view s);

 private:
  void before_value();

  std::ostream& os_;
  // One frame per open container: true once the first element was written
  // (i.e. the next element needs a leading comma).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace ecl::obs
