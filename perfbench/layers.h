// Span sources of the traced run. Every timer lives here, in the benchmark,
// wrapped around the program's public interfaces; nothing inside src/ is
// instrumented by the benchmark:
//
//   * TimedSession — a forwarding bender::ChipSession decorator put around
//     the session each trial body receives. It times run(), checkpoint()
//     and restore(), the executor and device-checkpoint layers.
//   * TimingStore — a util::Store decorator handed to the campaign runner
//     as RunnerConfig::store. It times every append/sync/replace, the
//     runner's storage layer.
//   * SpanSink — a mutex-guarded table of named (count, seconds) pairs the
//     workloads add their own call timers to (study searches, arena
//     matches, client round trips).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "bender/session.h"
#include "util/store.h"

namespace perfbench {

/// Monotonic host seconds.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// Named span totals, safe to fill from campaign worker threads.
class SpanSink {
 public:
  void add(const std::string& name, double seconds, std::uint64_t count = 1);
  void merge(const std::map<std::string, Span>& spans);
  [[nodiscard]] Span get(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Span> spans_;
};

/// Times one call and adds it to `sink` under `name` on destruction; a null
/// sink makes it a no-op that reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, const char* name)
      : sink_(sink), name_(name), t0_(sink ? now_s() : 0.0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (sink_ != nullptr) sink_->add(name_, now_s() - t0_);
  }

 private:
  SpanSink* sink_;
  const char* name_;
  double t0_;
};

/// Forwarding session decorator. Spans accumulate locally and fold into
/// the sink when the decorator dies (one lock per trial, not per command).
/// The probe-engine counters live in the ChipSession base class, so the
/// study code increments the decorator's copy; the destructor hands them
/// back to the wrapped session, where the campaign worker reads them.
class TimedSession : public hbmrd::bender::ChipSession {
 public:
  TimedSession(hbmrd::bender::ChipSession& inner, SpanSink& sink)
      : inner_(inner), sink_(sink) {}
  ~TimedSession() override;
  TimedSession(const TimedSession&) = delete;
  TimedSession& operator=(const TimedSession&) = delete;

  [[nodiscard]] const hbmrd::dram::ChipProfile& profile() const override {
    return inner_.profile();
  }
  hbmrd::bender::ExecutionResult run(
      const hbmrd::bender::Program& program) override;
  void idle(double seconds) override { inner_.idle(seconds); }
  [[nodiscard]] hbmrd::dram::Cycle now() const override {
    return inner_.now();
  }
  [[nodiscard]] double temperature_c() override {
    return inner_.temperature_c();
  }
  [[nodiscard]] hbmrd::dram::Stack& stack() override { return inner_.stack(); }
  [[nodiscard]] bool supports_checkpoints() const override {
    return inner_.supports_checkpoints();
  }
  std::size_t checkpoint() override;
  void restore(std::size_t id) override;
  void discard_checkpoints() override { inner_.discard_checkpoints(); }
  void begin_probe_accounting() override { inner_.begin_probe_accounting(); }
  void account_thermal_cycles(hbmrd::dram::Cycle cycles) override {
    inner_.account_thermal_cycles(cycles);
  }
  void end_probe_accounting() override { inner_.end_probe_accounting(); }
  [[nodiscard]] hbmrd::dram::Cycle act_backlog(
      const hbmrd::dram::BankAddress& bank) override {
    return inner_.act_backlog(bank);
  }

 private:
  hbmrd::bender::ChipSession& inner_;
  SpanSink& sink_;
  Span run_, checkpoint_, restore_;
};

/// Store decorator timing every storage operation the runner issues.
class TimingStore : public hbmrd::util::Store {
 public:
  TimingStore(std::shared_ptr<hbmrd::util::Store> inner, SpanSink& sink)
      : inner_(std::move(inner)), sink_(sink) {}

  std::unique_ptr<File> open(const std::string& path, bool truncate) override;
  std::optional<std::string> read(const std::string& path) override;
  void atomic_replace(const std::string& path,
                      std::string_view content) override;
  void truncate(const std::string& path, std::uint64_t size) override;
  bool remove(const std::string& path) override;

 private:
  class TimedFile;

  std::shared_ptr<hbmrd::util::Store> inner_;
  SpanSink& sink_;
};

}  // namespace perfbench
