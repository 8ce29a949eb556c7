#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>

#include "common/contracts.hpp"

namespace eecs::obs {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

std::string args_json(const TraceEvent& e) {
  std::string out = "{";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ", ";
    first = false;
  };
  sep();
  out += "\"sim_time\": " + format_double(e.sim_time);
  for (const auto& [k, v] : e.num_args) {
    sep();
    out += '"';
    out += json_escape(k);
    out += "\": ";
    out += format_double(v);
  }
  for (const auto& [k, v] : e.str_args) {
    sep();
    out += '"';
    out += json_escape(k);
    out += "\": \"";
    out += json_escape(v);
    out += '"';
  }
  out += "}";
  return out;
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  EECS_EXPECTS(capacity > 0);
  ring_.reserve(capacity);
  const auto start = std::chrono::steady_clock::now();
  clock_ = [start] {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                          std::chrono::steady_clock::now() - start)
                                          .count());
  };
}

void Tracer::set_clock(std::function<std::uint64_t()> clock) {
  const std::lock_guard<std::mutex> lock(mutex_);
  clock_ = std::move(clock);
}

std::uint64_t Tracer::now_us() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return clock_();
}

void Tracer::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (event.wall_us == 0) event.wall_us = clock_();
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
    return;
  }
  ring_[next_] = std::move(event);
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> Tracer::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t Tracer::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ - ring_.size();
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  for (const TraceEvent& e : events()) {
    out += "{\"wall_us\": " + std::to_string(e.wall_us);
    if (e.phase == 'X') out += ", \"dur_us\": " + std::to_string(e.dur_us);
    out += std::string(", \"ph\": \"") + e.phase + "\"";
    out += ", \"cat\": \"" + json_escape(e.cat) + "\"";
    out += ", \"name\": \"" + json_escape(e.name) + "\"";
    out += ", \"args\": " + args_json(e);
    out += "}\n";
  }
  return out;
}

std::string Tracer::to_chrome_trace() const {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  for (const TraceEvent& e : events()) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"name\": \"" + json_escape(e.name) + "\", \"cat\": \"" + json_escape(e.cat) +
           "\", \"ph\": \"" + e.phase + "\", \"ts\": " + std::to_string(e.wall_us);
    if (e.phase == 'X') out += ", \"dur\": " + std::to_string(e.dur_us);
    if (e.phase == 'i') out += ", \"s\": \"g\"";
    out += ", \"pid\": 1, \"tid\": 1, \"args\": " + args_json(e) + "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace eecs::obs
