// `serve_zipf`: the batch query server's scheduling and engine.
//
// Set-up measures a small threshold index for Chip 1 with
// serve::export_measured (rows x patterns x rungs, plus retention), writes
// it through the Store and loads it back with serve::Index::load.
//
// Four closed-loop client sessions each open connections of
// batches_per_connection zipf-skewed batches of hc_first / hc_nth / ber /
// min_retention point queries. Two workers serve one connection at a time,
// in arrival order, like serve::BatchServer's workers, so two sessions
// always queue for a worker: that head-of-line wait is part of a
// connection's first batch latency. Once every miss_every batches a
// session asks about a row the index does not cover (a fallback simulation
// recorded in the overlay), and half a period later it asks again (an
// overlay hit). Misses are unique per session, so every serve.* counter is
// a pure function of the round.
//
// The traffic mix is assumed, because the repository holds no record of
// real query traffic: the four query kinds get equal shares, and the miss
// rate (one batch in miss_every) keeps fallback simulations beyond the
// p95 tail. perfbench/README.md states each share and its reason.
//
// One round is every session's connections over a fresh engine (the
// overlay starts empty, so each round pays the same misses). The measured
// rounds run in process through QueryEngine::run_batch: over a Unix socket
// on a shared 4-vCPU VM, a round trip is mostly thread wake-ups, and
// throughput swung 3x between runs of one seed with the host's CPU steal.
// The traced run then sends one round through a real BatchServer with two
// worker threads (read_frame / write_frame, one generator thread driving
// the four sessions) for the socket-layer metrics, and checks its answers
// and counters byte for byte against the in-process rounds.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "bender/platform.h"
#include "harness.h"
#include "serve/engine.h"
#include "serve/export.h"
#include "serve/index.h"
#include "serve/server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace hbmrd;

constexpr int kSessions = 4;
constexpr int kServerThreads = 2;
constexpr std::uint32_t kChip = 1;
constexpr std::uint32_t kDepth = 4;  // rungs per index record
constexpr int kCoveredSubarray = 5;  // regular, as are the next three
constexpr int kEdgeRows = 2;          // skipped at both ends of a subarray
constexpr int kInnerRows = dram::kSubarraySizeSmall - 2 * kEdgeRows;

/// Row `k` of a regular subarray's inner rows.
int inner_row(int subarray, int k) {
  return dram::subarray_start(subarray) + kEdgeRows + k;
}

struct Size {
  int rows;                   // covered rows (one contiguous range)
  int connections;            // per session per round
  int batches_per_connection;
  int queries_per_batch;
  int miss_every;             // batches
};

Size size_for(const Options& options) {
  if (options.tiny) return {4, 2, 4, 8, 4};
  return {32, 400, 16, 32, 200};
}

/// Zipf(s) over ranks [0, n): inverse-CDF sampling from a counter-based
/// uniform, so draw i of a stream is a pure function of its key.
class Zipf {
 public:
  Zipf(int n, double s) {
    double total = 0.0;
    for (int k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(k, s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  [[nodiscard]] int rank(double u) const {
    return static_cast<int>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// One session's batches for a round, in send order.
using SessionBatches = std::vector<std::string>;

int connect_to(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::copy(path.begin(), path.end(), addr.sun_path);
  // The listener may still be between bind() and listen(): retry briefly.
  for (int attempt = 0; attempt < 2000; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fd;
    }
    if (errno != ECONNREFUSED && errno != ENOENT && errno != EAGAIN) break;
    ::usleep(1000);
  }
  ::close(fd);
  return -1;
}

/// A BatchServer running on its own thread until stop().
class RunningServer {
 public:
  RunningServer(const serve::Index& index, const std::string& socket_path) {
    serve::BatchServerOptions options;
    options.socket_path = socket_path;
    options.threads = kServerThreads;
    options.poll_interval_ms = 5;
    options.should_stop = [this] { return stop_.load(); };
    server_ = std::make_unique<serve::BatchServer>(index, options);
    thread_ = std::thread([this] {
      try {
        report_ = server_->run();
      } catch (const std::exception& error) {
        error_ = error.what();
      }
    });
    // Ready once a probe connection is accepted and closed.
    const int fd = connect_to(socket_path);
    if (fd < 0) {
      stop();
      throw std::runtime_error("server did not start: " + error_);
    }
    ::close(fd);
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() { stop(); }

  /// Drains and joins; returns the server's report (once).
  serve::BatchServerReport stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return report_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::unique_ptr<serve::BatchServer> server_;
  serve::BatchServerReport report_;
  std::string error_;
  std::thread thread_;
};

class ServeZipf : public Workload {
 public:
  explicit ServeZipf(const Options& options)
      : options_(options), size_(size_for(options)) {}

  double tail_percentile() const override { return 95; }
  const char* op_name() const override { return "batch"; }

  SetupTimes setup() override {
    SetupTimes t;
    double t0 = now_s();
    serve::ExportSpec spec;
    spec.chip_index = kChip;
    spec.hc_depth = kDepth;
    chip_ = std::make_unique<bender::HbmChip>(
        dram::chip_profiles(spec.platform_seed)[kChip]);
    t.platform_s = now_s() - t0;

    t0 = now_s();
    map_ = reverse_engineer_map(*chip_);
    t.map_s = now_s() - t0;

    t0 = now_s();
    // The index covers a seeded stretch of one regular subarray; misses go
    // to the next three regular subarrays. A resilient subarray, or a
    // subarray's edge rows (single-sided), would make a search run to the
    // bound and let the seed set the miss cost.
    row_lo_ = inner_row(kCoveredSubarray,
                        static_cast<int>(util::hash_key(options_.seed, 0x5E7) %
                                         (kInnerRows - size_.rows)));
    serve::MeasureSpec measure;
    measure.banks = {{0, 0, 0}};
    for (int r = 0; r < size_.rows; ++r) measure.rows.push_back(row_lo_ + r);
    measure.patterns.assign(study::kAllPatterns.begin(),
                            study::kAllPatterns.end());
    measure.retention = true;
    serve::IndexBuilder builder(serve::manifest_for(spec));
    serve::FallbackSession session(*chip_, *map_);
    serve::export_measured(builder, session, measure);
    const std::string index_path = work_path(options_, "serve.hbmidx");
    builder.write(*util::default_store(), index_path);
    t.index_export_s = now_s() - t0;

    t0 = now_s();
    index_ = std::make_unique<serve::Index>(
        serve::Index::load(*util::default_store(), index_path));
    t.index_load_s = now_s() - t0;

    t0 = now_s();
    build_batches();
    t.scenario_s = now_s() - t0;

    // The in-process workers' fallback chips, built once, as the server
    // builds its workers'.
    t0 = now_s();
    for (int w = 0; w < kServerThreads; ++w) {
      worker_chips_.push_back(std::make_unique<bender::HbmChip>(
          dram::chip_profiles(index_->manifest().platform_seed)[kChip]));
      fallbacks_.push_back(
          std::make_unique<serve::FallbackSession>(*worker_chips_[w], *map_));
    }
    t.platform_s += now_s() - t0;
    return t;
  }

  /// A fresh engine, so the round's overlay starts empty.
  void prepare_round() override {
    engine_ = std::make_unique<serve::QueryEngine>(*index_);
  }

  /// One round in process: two worker threads schedule the sessions'
  /// connections exactly like the BatchServer's workers (one connection at
  /// a time, in arrival order) and answer each batch with
  /// QueryEngine::run_batch. Like the server's workers, each keeps its
  /// fallback chip across rounds; FallbackSession::canonical() resets it
  /// before every simulation. A connection's first batch waits in the
  /// queue while both workers are busy: the head-of-line wait.
  RoundResult round(SpanSink* spans) override {
    RoundResult result;
    serve::QueryEngine& engine = *engine_;
    struct Connection {
      int session = 0;
      std::size_t first = 0;  // batch index
      double opened_at = 0.0;
    };
    std::mutex mu;  // guards queue, digests, result, counters
    std::deque<Connection> queue;
    for (int s = 0; s < kSessions; ++s) queue.push_back({s, 0, now_s()});
    std::vector<std::uint64_t> digests(kSessions, kEmptyDigest);
    serve::ServeCounters counters;
    bender::ProbeCounters probes;
    const auto worker = [&](int w) {
      bender::HbmChip& chip = *worker_chips_[w];
      serve::FallbackSession& fallback = *fallbacks_[w];
      const bender::ProbeCounters probes0 = chip.probe_counters();
      serve::QueryScratch scratch;
      serve::ServeCounters mine;
      std::string response;
      std::vector<double> latencies;
      while (true) {
        Connection c;
        {
          std::lock_guard lock(mu);
          if (queue.empty()) break;
          c = queue.front();
          queue.pop_front();
        }
        const auto& batches = batches_[c.session];
        const std::size_t end = std::min<std::size_t>(
            batches.size(), c.first + size_.batches_per_connection);
        std::uint64_t digest;
        {
          std::lock_guard lock(mu);
          digest = digests[c.session];
        }
        std::uint64_t failed = 0;
        for (std::size_t b = c.first; b < end; ++b) {
          response.clear();
          const auto simulations = mine.fallback_simulations;
          const double t0 = now_s();
          engine.run_batch(batches[b], response, scratch, &fallback, mine);
          const double t1 = now_s();
          latencies.push_back(t1 - (b == c.first ? c.opened_at : t0));
          if (spans != nullptr) {
            spans->add("serve.engine", t1 - t0);
            if (mine.fallback_simulations != simulations) {
              spans->add("study.search", t1 - t0,
                         mine.fallback_simulations - simulations);
            }
          }
          if (!well_formed(batches[b], response)) ++failed;
          digest = fnv1a(response, digest);
        }
        std::lock_guard lock(mu);
        digests[c.session] = digest;
        result.attempted += end - c.first;
        result.failed += failed;
        if (end < batches.size()) {
          queue.push_back({c.session, end, now_s()});
        }
      }
      std::lock_guard lock(mu);
      counters.fold(mine);
      const auto& p = chip.probe_counters();
      probes.hc_probes += p.hc_probes - probes0.hc_probes;
      probes.hammers_replayed += p.hammers_replayed - probes0.hammers_replayed;
      probes.hammers_saved += p.hammers_saved - probes0.hammers_saved;
      result.latencies_s.insert(result.latencies_s.end(), latencies.begin(),
                                latencies.end());
    };
    std::thread second(worker, 1);
    worker(0);
    second.join();

    for (const auto d : digests) result.digest = fnv1a(hex64(d), result.digest);
    if (result.failed != 0) {
      result.problems.push_back("malformed or error responses");
    }
    check_counters(counters, result);
    result.counts["study.hc_probes"] = static_cast<double>(probes.hc_probes);
    result.counts["study.hammers_replayed"] =
        static_cast<double>(probes.hammers_replayed);
    result.counts["study.hammers_saved"] =
        static_cast<double>(probes.hammers_saved);
    return result;
  }

  /// The traced run's socket pass: the same batches through a BatchServer
  /// with two workers, four closed-loop client sessions on one generator
  /// thread. Its answers and counters must equal the in-process rounds'.
  std::optional<RoundResult> cross_check(SpanSink& spans) override {
    RoundResult result;
    RunningServer server(*index_, socket_path());
    std::vector<std::uint64_t> digests(kSessions, kEmptyDigest);
    std::vector<double> first_latencies;
    drive(result, digests, first_latencies);
    const serve::BatchServerReport report = server.stop();
    for (const auto d : digests) result.digest = fnv1a(hex64(d), result.digest);
    check_counters(report.counters, result);
    socket_connections_ = static_cast<double>(report.connections);
    double total = 0.0;
    for (const double l : result.latencies_s) total += l;
    spans.add("serve.socket", total, result.latencies_s.size());
    // Accept wait: a connection's first batch waits for a worker to finish
    // another session's connection.
    auto sorted = result.latencies_s;
    std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                     sorted.end());
    const double typical = sorted[sorted.size() / 2];
    for (const double first : first_latencies) {
      spans.add("serve.accept_wait", std::max(0.0, first - typical));
    }
    return result;
  }

  void per_layer(const RoundResult& last, const SpanSink& spans, int rounds,
                 std::map<std::string, double>& out) override {
    for (const auto& [name, value] : last.counts) out[name] = value;
    const double n = rounds > 0 ? rounds : 1;
    out["serve.engine_s"] = spans.get("serve.engine").seconds / n;
    const Span search = spans.get("study.search");
    out["study.searches"] = static_cast<double>(search.count) / n;
    out["study.search_s"] = search.seconds / n;
    // The socket pass is one round.
    out["serve.connections"] = socket_connections_;
    out["serve.socket_s"] = spans.get("serve.socket").seconds;
    const Span wait = spans.get("serve.accept_wait");
    out["serve.accept_wait_ms"] =
        wait.count ? 1e3 * wait.seconds / static_cast<double>(wait.count)
                   : 0.0;
  }

 private:
  [[nodiscard]] std::string socket_path() const {
    return work_path(options_, "serve.sock");
  }

  /// The round's request stream, a pure function of the seed.
  void build_batches() {
    const Zipf zipf(size_.rows * static_cast<int>(study::kAllPatterns.size()),
                    1.1);
    const std::uint64_t seed = util::hash_key(options_.seed, 0x21BF);
    const int miss_offset = static_cast<int>(seed % (3 * kInnerRows));
    batches_.assign(kSessions, {});
    const int per_session = size_.connections * size_.batches_per_connection;
    // Miss j of session s: distinct rows for every (s, j) of a round.
    const int misses_per_session = per_session / size_.miss_every;
    const auto miss_row = [&](int s, int j) {
      const int k = (miss_offset + s * misses_per_session + j) % (3 * kInnerRows);
      return inner_row(kCoveredSubarray + 1 + k / kInnerRows, k % kInnerRows);
    };
    for (int s = 0; s < kSessions; ++s) {
      int misses = 0;
      std::string miss_pattern;
      for (int b = 0; b < per_session; ++b) {
        std::string batch;
        for (int q = 0; q < size_.queries_per_batch; ++q) {
          const auto u = [&](int field) {
            return util::uniform(seed, s, b, q, field);
          };
          // Popularity over (row, pattern) cells, scattered over the
          // covered rows so the hot cells are not adjacent.
          const int cell = static_cast<int>(util::permute_below(
              seed, static_cast<std::uint64_t>(size_.rows) * 4,
              static_cast<std::uint64_t>(zipf.rank(u(0)))));
          const int row = row_lo_ + cell / 4;
          const std::string pattern =
              study::to_string(study::kAllPatterns[cell % 4]);
          const std::string where =
              " 0 0 0 " + std::to_string(row) + " " + pattern;
          // Equal shares of the four query kinds (an assumption).
          const double kind = u(1);
          if (q == 0 && b % size_.miss_every == size_.miss_every / 4) {
            // A row outside the index: simulated, recorded in the overlay.
            miss_pattern = pattern;
            batch += "hc_first 0 0 0 " +
                     std::to_string(miss_row(s, misses++)) + " " +
                     miss_pattern + "\n";
          } else if (q == 0 && b % size_.miss_every ==
                                   3 * size_.miss_every / 4) {
            // The same session's last miss again: an overlay hit.
            batch += "hc_first 0 0 0 " +
                     std::to_string(miss_row(s, misses - 1)) + " " +
                     miss_pattern + "\n";
          } else if (kind < 0.25) {
            batch += "hc_first" + where + "\n";
          } else if (kind < 0.5) {
            batch += "hc_nth " +
                     std::to_string(2 + static_cast<int>(u(2) * (kDepth - 1))) +
                     where + "\n";
          } else if (kind < 0.75) {
            // Just under a measured rung, so the index alone answers it.
            batch += "ber " +
                     std::to_string(ber_count(row, cell % 4,
                                              1 + zipf.rank(u(2)) % kDepth)) +
                     where + "\n";
          } else {
            batch += "min_retention 0 0 0 " + std::to_string(row) + "\n";
          }
        }
        batches_[s].push_back(std::move(batch));
      }
    }
  }

  /// A ber count the index answers without simulating: one below rung k
  /// of the row (the engine needs a measured rung above the count).
  [[nodiscard]] std::uint64_t ber_count(int row, int pattern_id, int k) const {
    const auto* population = index_->find(
        {0, 0, 0, static_cast<std::uint32_t>(pattern_id), 0});
    const auto rung = index_->record(*population, static_cast<std::uint32_t>(row))
                          .rung(k);
    return rung == serve::kNoFlip ? 1000 : rung - 1;
  }

  /// Runs every session's connections to completion, closed loop.
  void drive(RoundResult& result, std::vector<std::uint64_t>& digests,
             std::vector<double>& first_latencies) {
    struct Session {
      int fd = -1;
      std::size_t next = 0;   // next batch index
      int in_connection = 0;  // batches sent on this connection
      double sent_at = 0.0;
      bool waiting = false;
    };
    std::vector<Session> sessions(kSessions);
    const std::string path = socket_path();
    const auto send_next = [&](int s) {
      Session& session = sessions[s];
      if (session.fd < 0) {
        session.fd = connect_to(path);
        session.in_connection = 0;
      }
      session.sent_at = now_s();
      if (session.fd < 0 ||
          !serve::write_frame(session.fd, batches_[s][session.next])) {
        // A refused connection or a dropped write fails the batch.
        ++result.attempted;
        ++result.failed;
        result.problems.push_back("session " + std::to_string(s) +
                                  " lost its connection");
        if (session.fd >= 0) ::close(session.fd);
        session.fd = -1;
        ++session.next;
        return;
      }
      session.waiting = true;
    };
    const auto total = batches_[0].size();
    for (int s = 0; s < kSessions; ++s) send_next(s);
    std::string response;
    while (true) {
      std::vector<pollfd> fds;
      std::vector<int> owner;
      for (int s = 0; s < kSessions; ++s) {
        if (sessions[s].waiting) {
          fds.push_back({sessions[s].fd, POLLIN, 0});
          owner.push_back(s);
        }
      }
      if (fds.empty()) {
        bool more = false;
        for (int s = 0; s < kSessions; ++s) {
          if (sessions[s].next < total) {
            send_next(s);
            more = true;
          }
        }
        if (!more) break;
        continue;
      }
      if (::poll(fds.data(), fds.size(), 10'000) <= 0) {
        throw std::runtime_error("serve_zipf: no response within 10 s");
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        const int s = owner[i];
        Session& session = sessions[s];
        session.waiting = false;
        ++result.attempted;
        const bool ok = serve::read_frame(session.fd, response);
        const double latency = now_s() - session.sent_at;
        const std::string& request = batches_[s][session.next];
        if (!ok || !well_formed(request, response)) {
          ++result.failed;
          result.problems.push_back(
              ok ? "malformed response to batch " +
                       std::to_string(session.next) + " of session " +
                       std::to_string(s)
                 : "dropped connection in session " + std::to_string(s));
        }
        digests[s] = fnv1a(response, digests[s]);
        result.latencies_s.push_back(latency);
        if (session.in_connection == 0) first_latencies.push_back(latency);
        ++session.in_connection;
        ++session.next;
        if (!ok || session.in_connection == size_.batches_per_connection) {
          ::close(session.fd);
          session.fd = -1;
        }
        if (session.next < total) send_next(s);
      }
    }
  }

  /// One response line per query and no error line.
  static bool well_formed(const std::string& request,
                          const std::string& response) {
    const auto lines = [](const std::string& text) {
      return std::count(text.begin(), text.end(), '\n');
    };
    return lines(request) == lines(response) &&
           response.find("error,") == std::string::npos;
  }

  /// serve.* counters into the fingerprint, plus the invariants every
  /// batch stream must keep.
  static void check_counters(const serve::ServeCounters& c,
                             RoundResult& result) {
    obs::MetricsRegistry metrics;
    metrics.add("serve.batches", c.batches);
    metrics.add("serve.queries", c.queries);
    metrics.add("serve.index_hits", c.hits);
    metrics.add("serve.overlay_hits", c.overlay_hits);
    metrics.add("serve.misses", c.misses);
    metrics.add("serve.fallback_simulations", c.fallback_simulations);
    metrics.add("serve.errors", c.errors);
    metrics.add("serve.bytes_served", c.bytes_served);
    result.fingerprint = metrics.deterministic_fingerprint();
    for (const char* name :
         {"serve.queries", "serve.index_hits", "serve.overlay_hits",
          "serve.misses", "serve.fallback_simulations", "serve.errors",
          "serve.bytes_served"}) {
      result.counts[name] = static_cast<double>(metrics.counter(name));
    }
    if (c.errors != 0) {
      ++result.failed;
      result.problems.push_back("serve.errors = " + std::to_string(c.errors));
    }
    if (c.hits + c.overlay_hits + c.misses != c.queries) {
      ++result.failed;
      result.problems.push_back("index_hits + overlay_hits + misses != "
                                "queries");
    }
    if (c.misses == 0 || c.overlay_hits == 0) {
      ++result.failed;
      result.problems.push_back("the round took no miss or no overlay hit");
    }
  }

  Options options_;
  Size size_;
  std::unique_ptr<bender::HbmChip> chip_;
  std::unique_ptr<study::AddressMap> map_;
  std::unique_ptr<serve::Index> index_;
  std::vector<std::unique_ptr<bender::HbmChip>> worker_chips_;
  std::vector<std::unique_ptr<serve::FallbackSession>> fallbacks_;
  std::unique_ptr<serve::QueryEngine> engine_;
  int row_lo_ = 0;
  std::vector<SessionBatches> batches_;
  double socket_connections_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_zipf(const Options& options) {
  return std::make_unique<ServeZipf>(options);
}

}  // namespace perfbench
