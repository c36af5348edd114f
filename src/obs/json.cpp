#include "obs/json.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace ecl::obs {

void JsonWriter::write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\b':
        os << "\\b";
        break;
      case '\f':
        os << "\\f";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\r':
        os << "\\r";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void JsonWriter::before_value() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // the key already emitted the comma for this pair
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) os_ << ',';
    has_element_.back() = true;
  }
}

void JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  has_element_.push_back(false);
}

void JsonWriter::end_object() {
  has_element_.pop_back();
  os_ << '}';
}

void JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  has_element_.push_back(false);
}

void JsonWriter::end_array() {
  has_element_.pop_back();
  os_ << ']';
}

void JsonWriter::key(std::string_view k) {
  if (!has_element_.empty()) {
    if (has_element_.back()) os_ << ',';
    has_element_.back() = true;
  }
  write_escaped(os_, k);
  os_ << ':';
  pending_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  before_value();
  write_escaped(os_, s);
}

void JsonWriter::value(double d) {
  before_value();
  if (!std::isfinite(d)) {  // JSON has no Infinity/NaN
    os_ << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  os_ << buf;
}

void JsonWriter::value(std::uint64_t u) {
  before_value();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, u);
  os_ << buf;
}

void JsonWriter::value(std::int64_t i) {
  before_value();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, i);
  os_ << buf;
}

void JsonWriter::value(bool b) {
  before_value();
  os_ << (b ? "true" : "false");
}

void JsonWriter::raw_value(std::string_view s) {
  before_value();
  os_ << s;
}

}  // namespace ecl::obs
