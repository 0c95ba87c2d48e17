// The collector: one drain thread pumping N per-worker rings into one sink.
//
// Ownership: the collector owns the recorders (stable addresses for the
// whole run) and the drain thread; the sink is the caller's.  start() flips
// every recorder live and spawns the drain thread; stop() joins it, drains
// the rings one final time, reports the total overflow via on_drop and
// flushes the sink.  Both are idempotent, and the destructor stops.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/recorder.hpp"
#include "obs/sink.hpp"

namespace aspmt::obs {

class Collector {
 public:
  struct Options {
    std::size_t ring_capacity = EventRing::kDefaultCapacity;
    /// Sleep between drain sweeps.  Short enough for a live progress line,
    /// long enough to stay invisible next to a solver thread.
    double drain_interval_seconds = 0.02;
  };

  /// `recorders` = number of producer threads (a portfolio passes
  /// threads + 1: one ring per worker plus one for the orchestrator).
  Collector(EventSink& sink, std::size_t recorders);
  Collector(EventSink& sink, std::size_t recorders, Options options);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  [[nodiscard]] Recorder& recorder(std::size_t index) {
    return *recorders_.at(index);
  }

  void start();
  void stop();

  /// Total events discarded across all rings (exact once stopped).
  [[nodiscard]] std::uint64_t dropped_total() const noexcept;

 private:
  void drain_loop();
  /// One sweep over every ring; forwards the merged batch to the sink.
  void drain_once();

  EventSink& sink_;
  Options options_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
  std::vector<Event> batch_;  // drain scratch, collector thread only

  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace aspmt::obs
