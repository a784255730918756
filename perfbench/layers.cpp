#include "layers.h"

namespace perfbench {

void SpanSink::add(const std::string& name, double seconds,
                   std::uint64_t count) {
  std::lock_guard lock(mu_);
  auto& span = spans_[name];
  span.count += count;
  span.seconds += seconds;
}

void SpanSink::merge(const std::map<std::string, Span>& spans) {
  std::lock_guard lock(mu_);
  for (const auto& [name, span] : spans) {
    auto& mine = spans_[name];
    mine.count += span.count;
    mine.seconds += span.seconds;
  }
}

Span SpanSink::get(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = spans_.find(name);
  return it == spans_.end() ? Span{} : it->second;
}

// -- TimedSession -------------------------------------------------------------

TimedSession::~TimedSession() {
  auto& mine = probe_counters();
  auto& theirs = inner_.probe_counters();
  theirs.hc_probes += mine.hc_probes;
  theirs.hammers_replayed += mine.hammers_replayed;
  theirs.hammers_saved += mine.hammers_saved;
  sink_.merge({{"bender.run", run_},
               {"bender.checkpoint", checkpoint_},
               {"bender.restore", restore_}});
}

hbmrd::bender::ExecutionResult TimedSession::run(
    const hbmrd::bender::Program& program) {
  const double t0 = now_s();
  auto result = inner_.run(program);
  run_.seconds += now_s() - t0;
  ++run_.count;
  return result;
}

std::size_t TimedSession::checkpoint() {
  const double t0 = now_s();
  const auto id = inner_.checkpoint();
  checkpoint_.seconds += now_s() - t0;
  ++checkpoint_.count;
  return id;
}

void TimedSession::restore(std::size_t id) {
  const double t0 = now_s();
  inner_.restore(id);
  restore_.seconds += now_s() - t0;
  ++restore_.count;
}

// -- TimingStore --------------------------------------------------------------

class TimingStore::TimedFile : public hbmrd::util::Store::File {
 public:
  TimedFile(std::unique_ptr<File> inner, SpanSink& sink)
      : inner_(std::move(inner)), sink_(sink) {}

  void append(std::string_view bytes) override {
    ScopedSpan span(&sink_, "store.busy");
    inner_->append(bytes);
  }
  void sync() override {
    ScopedSpan span(&sink_, "store.busy");
    inner_->sync();
  }

 private:
  std::unique_ptr<File> inner_;
  SpanSink& sink_;
};

std::unique_ptr<hbmrd::util::Store::File> TimingStore::open(
    const std::string& path, bool truncate) {
  ScopedSpan span(&sink_, "store.busy");
  return std::make_unique<TimedFile>(inner_->open(path, truncate), sink_);
}

std::optional<std::string> TimingStore::read(const std::string& path) {
  ScopedSpan span(&sink_, "store.busy");
  return inner_->read(path);
}

void TimingStore::atomic_replace(const std::string& path,
                                 std::string_view content) {
  ScopedSpan span(&sink_, "store.busy");
  inner_->atomic_replace(path, content);
}

void TimingStore::truncate(const std::string& path, std::uint64_t size) {
  ScopedSpan span(&sink_, "store.busy");
  inner_->truncate(path, size);
}

bool TimingStore::remove(const std::string& path) {
  ScopedSpan span(&sink_, "store.busy");
  return inner_->remove(path);
}

}  // namespace perfbench
