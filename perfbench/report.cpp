#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

Fnv& Fnv::add(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return add(bits);
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// --- Spans --------------------------------------------------------------------

std::size_t SpanLog::open(const char* name) {
  SpanRecord record;
  record.name = name;
  record.parent =
      stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  record.start_ns = now_ns();
  spans_.push_back(record);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Spans are scoped, so the one closing is the innermost open one.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double SpanLog::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) ns += span.end_ns - span.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

double total_s(const std::vector<SpanLog>& logs, std::string_view name) {
  double total = 0.0;
  for (const SpanLog& log : logs) total += log.total_s(name);
  return total;
}

// --- Metrics ------------------------------------------------------------------

void set_metric(std::vector<Metric>& metrics, std::string name, double value,
                std::string unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = std::move(unit);
      return;
    }
  }
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

TailRank tail_rank(std::uint64_t count) {
  TailRank best;
  best.beyond = count - std::min<std::uint64_t>(count, (count + 1) / 2);
  for (const double q : {0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}) {
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (count < rank || count - rank < 10) break;
    best.quantile = q;
    best.beyond = count - rank;
  }
  return best;
}

double nearest_rank(const std::vector<double>& sorted, double quantile) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(quantile * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

std::string tail_note(const char* what, const TailRank& tail,
                      std::uint64_t count, double value_ms) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency_tail_ms = p%g of %s: %.6g ms (%llu of %llu samples "
                "beyond it)",
                tail.quantile * 100.0, what, value_ms,
                static_cast<unsigned long long>(tail.beyond),
                static_cast<unsigned long long>(count));
  return buf;
}

// --- JSON -----------------------------------------------------------------------

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_.empty()) return;
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  separate();
  out_ += '"';
  out_ += dynaplat::obs::json::escape(name);
  out_ += "\":";
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  separate();
  if (!std::isfinite(number)) {
    out_ += "null";
    return *this;
  }
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), number);
  out_.append(buf, result.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  separate();
  out_ += std::to_string(number);
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  separate();
  out_ += '"';
  out_ += dynaplat::obs::json::escape(text);
  out_ += '"';
  return *this;
}

// --- Files ----------------------------------------------------------------------

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

bool write_span_trace(const std::vector<SpanLog>& logs, std::int64_t origin_ns,
                      const std::string& path) {
  using dynaplat::obs::Category;
  dynaplat::obs::TraceBuffer buffer;
  for (const SpanLog& log : logs) {
    const std::uint32_t lane = buffer.intern(log.group());
    // Spans are stored in open order (preorder), so closing every open
    // span that is not an ancestor before each begin emits balanced,
    // properly nested pairs.
    std::vector<std::size_t> open;
    const auto close_top = [&] {
      const SpanRecord& span = log.spans()[open.back()];
      buffer.end_span(span.end_ns - origin_ns, Category::kPlatform, lane,
                      buffer.intern(span.name));
      open.pop_back();
    };
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const SpanRecord& span = log.spans()[i];
      while (!open.empty() &&
             static_cast<std::int32_t>(open.back()) != span.parent) {
        close_top();
      }
      buffer.begin_span(span.start_ns - origin_ns, Category::kPlatform, lane,
                        buffer.intern(span.name));
      open.push_back(i);
    }
    while (!open.empty()) close_top();
  }
  return dynaplat::obs::write_chrome_trace_file(buffer, path);
}

}  // namespace perfbench
