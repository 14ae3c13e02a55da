#include "obs/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace vstream::obs {

void TraceBus::attach(TraceSink* sink) {
  if (sink == nullptr) throw std::invalid_argument{"TraceBus::attach: null sink"};
  if (std::find(sinks_.begin(), sinks_.end(), sink) == sinks_.end()) sinks_.push_back(sink);
}

void TraceBus::detach(TraceSink* sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_{capacity} {
  if (capacity_ == 0) throw std::invalid_argument{"RingBufferSink: zero capacity"};
}

void RingBufferSink::on_event(const TraceEvent& event) {
  if (events_.size() == capacity_) events_.pop_front();
  events_.push_back(event);
  ++total_;
}

}  // namespace vstream::obs
