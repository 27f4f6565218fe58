// The benchmark's one JSON writer and its span export.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

/// Compact streaming JSON writer. Numbers are written in shortest
/// round-trip form, so every measured digit survives.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(bool flag);
  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }

  const std::string& str() const { return out_; }

 private:
  void separate();

  std::string out_;
  std::vector<bool> first_;  ///< per open container: no element yet
  bool after_key_ = false;
};

/// Writes the spans as Chrome trace-event JSON through obs::TraceBuffer
/// (one lane per span group, nested spans as nested duration events).
/// Timestamps are host time relative to `origin_ns`.
bool write_span_trace(const std::vector<SpanLog>& logs, std::int64_t origin_ns,
                      const std::string& path);

bool write_text_file(const std::string& path, const std::string& text);

}  // namespace perfbench
