// perfbench_harness: the parts of the limbo-tools benchmark that need the
// library itself. perfbench/run.py drives it; every subcommand prints one
// JSON object on stdout.
//
//   check-fit      serves a seeded sample of training rows through
//                  serve::Engine and compares them with the bundle's stored
//                  assignments and losses.
//   check-schemes  recomputes every reported scheme's J-measure with a fresh
//                  EntropyOracle.
//   load           open-loop TCP load on a fixed ladder of offered rates
//                  against a running limbo-serve, with the periodic
//                  refit -> reload write side, then a byte check of every
//                  response against the model version that could answer it.
//   trace          the traced per-layer run: times calls into each module's
//                  public functions from here, one span per call, and
//                  snapshots obs counters after each call.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/attribute_grouping.h"
#include "core/fd_rank.h"
#include "core/info.h"
#include "core/limbo.h"
#include "core/structure_summary.h"
#include "core/tuple_clustering.h"
#include "core/value_clustering.h"
#include "fd/fdep.h"
#include "fd/min_cover.h"
#include "fd/tane.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "model/refit.h"
#include "obs/counters.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "schemes/entropy_oracle.h"
#include "schemes/mine.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/json.h"

extern char** environ;

namespace {

using namespace limbo;  // NOLINT
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_harness: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T OrDie(util::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void OkOrDie(const util::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// --- flags ------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) Die("bad argument " + arg);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_.insert_or_assign(arg.substr(2), std::string(1, '1'));
      } else {
        kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }
  std::string Str(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) Die("missing --" + key);
    return it->second;
  }
  double Num(const std::string& key) const { return std::atof(Str(key).c_str()); }
  double Num(const std::string& key, double fallback) const {
    return kv_.count(key) ? Num(key) : fallback;
  }
  size_t Int(const std::string& key) const {
    return static_cast<size_t>(std::atoll(Str(key).c_str()));
  }
  size_t Int(const std::string& key, size_t fallback) const {
    return kv_.count(key) ? Int(key) : fallback;
  }
  std::vector<double> List(const std::string& key) const {
    std::vector<double> out;
    std::stringstream in(Str(key));
    std::string item;
    while (std::getline(in, item, ',')) out.push_back(std::atof(item.c_str()));
    return out;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// --- JSON output --------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    Key(key);
    if (std::isfinite(value)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      body_ += buf;
    } else {
      body_ += "null";
    }
    return *this;
  }
  JsonObject& Int(const std::string& key, uint64_t value) {
    Key(key);
    body_ += std::to_string(value);
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    Key(key);
    util::AppendJsonString(value, &body_);
    return *this;
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    Key(key);
    body_ += json;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_.push_back(',');
    util::AppendJsonString(key, &body_);
    body_.push_back(':');
  }
  std::string body_;
};

std::string Hex64(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t i = std::min(values.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(values.size())));
  return values[i];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

uint64_t HashBytes(const std::string& s) { return model::Fnv1a(s.data(), s.size()); }

// --- spans ----------------------------------------------------------------------

/// In-memory span recorder for the traced run. The harness is single
/// threaded while tracing, so spans nest strictly: a span's parent is
/// whichever span was open when it began.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the tracer's origin
    double end = 0.0;
    int parent = -1;
    std::vector<obs::CounterValue> counters;  // nonzero deltas over the span
  };

  explicit Tracer(uint64_t run_id) : run_id_(run_id), origin_(Clock::now()) {}

  int Begin(const std::string& name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = Now();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    before_.push_back(obs::SnapshotCounters());
    return open_.back();
  }

  double End(int id) {
    Span& span = spans_[id];
    span.end = Now();
    const std::vector<obs::CounterValue> after = obs::SnapshotCounters();
    const std::vector<obs::CounterValue>& before = before_.back();
    for (const obs::CounterValue& c : after) {
      uint64_t prior = 0;
      for (const obs::CounterValue& b : before) {
        if (b.name == c.name) prior = b.value;
      }
      if (c.value > prior) span.counters.push_back({c.name, c.value - prior, c.scheduling});
    }
    before_.pop_back();
    open_.pop_back();
    return span.end - span.start;
  }

  /// Counter delta `name` recorded on span `id` (0 when it did not fire).
  uint64_t Counter(int id, const std::string& name) const {
    for (const obs::CounterValue& c : spans_[id].counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }

  double Duration(int id) const { return spans_[id].end - spans_[id].start; }

  /// A span's duration minus the time its direct children cover.
  double SelfTime(int id) const {
    double self = Duration(id);
    for (const Span& s : spans_) {
      if (&s != &spans_[id] && s.parent == id) self -= s.end - s.start;
    }
    return self;
  }

  const std::vector<Span>& spans() const { return spans_; }

  std::string ToJson() const {
    std::string out = "{\"run_id\":" + std::to_string(run_id_) + ",\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject o;
      o.Int("id", i).Str("name", s.name).Num("start_s", s.start).Num("end_s", s.end);
      o.Raw("parent", s.parent < 0 ? "null" : std::to_string(s.parent));
      o.Int("run_id", run_id_).Num("self_s", SelfTime(static_cast<int>(i)));
      std::string counters = "{";
      for (const obs::CounterValue& c : s.counters) {
        if (counters.size() > 1) counters.push_back(',');
        util::AppendJsonString(c.name, &counters);
        counters.push_back(':');
        counters += std::to_string(c.value);
      }
      o.Raw("counters", counters + "}");
      if (i > 0) out.push_back(',');
      out += o.Done();
    }
    return out + "]}";
  }

 private:
  double Now() const { return SecondsBetween(origin_, Clock::now()); }

  uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<std::vector<obs::CounterValue>> before_;
};

/// RAII span over one call into a layer.
class Traced {
 public:
  Traced(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~Traced() {
    if (open_) tracer_->End(id_);
  }
  Traced(const Traced&) = delete;
  Traced& operator=(const Traced&) = delete;
  double End() {
    open_ = false;
    return tracer_->End(id_);
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  bool open_ = true;
};

// --- serve_mixed constants -----------------------------------------------------------

/// Load-generator connections, in the TCP run and the traced in-process
/// server alike; with the server's one worker and the generator thread
/// this stays within a 4-CPU host.
constexpr size_t kConns = 2;
/// How long after a step's last send the generator waits for replies; the
/// rest count as unanswered.
constexpr double kDrainSeconds = 10.0;
/// The name limbo-serve registers the served bundle under (its file stem).
const char* const kModelName = "model";

// --- request stream ----------------------------------------------------------------

enum RequestKind : uint8_t { kMissAssign = 0, kDuplicates, kHot, kBadArgument, kNumKinds };
const char* const kKindNames[kNumKinds] = {"miss_assign", "duplicates", "hot", "bad_argument"};

struct RequestStream {
  std::vector<std::string> lines;
  std::vector<uint8_t> kinds;
};

std::string RowQuery(const char* op, const relation::Relation& rel, relation::TupleId t) {
  std::string q = "{\"op\":\"";
  q += op;
  q += "\",\"row\":[";
  for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
    if (a > 0) q.push_back(',');
    util::AppendJsonString(rel.TextAt(t, a), &q);
  }
  return q + "]}";
}

/// Uniform double in [0, 1) from the generator's raw bits (the standard
/// distributions are implementation-defined; this is not).
double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// The seeded serve_mixed request mix (shares out of 1000): 300 assigns of
/// unseen rows (kernel + cache miss), 100 duplicates of unseen rows, 570
/// draws from a skewed hot pool of repeated assign / valuegroup / attrs /
/// fds / schemes / info requests (cache hits), 30 well-formed requests
/// with bad arguments (typed errors).
RequestStream BuildRequests(const relation::Relation& train, const relation::Relation& unseen,
                            uint64_t seed, size_t count) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 17);
  std::vector<std::string> hot;
  for (int i = 0; i < 48; ++i) {
    hot.push_back(RowQuery("assign", train, static_cast<relation::TupleId>(rng() % train.NumTuples())));
  }
  for (int i = 0; i < 24;) {
    const auto t = static_cast<relation::TupleId>(rng() % train.NumTuples());
    const auto a = static_cast<relation::AttributeId>(rng() % train.NumAttributes());
    if (train.TextAt(t, a).empty()) continue;
    std::string q = "{\"op\":\"valuegroup\",\"attr\":";
    util::AppendJsonString(train.schema().Name(a), &q);
    q += ",\"value\":";
    util::AppendJsonString(train.TextAt(t, a), &q);
    hot.push_back(q + "}");
    ++i;
  }
  for (int limit = 1; limit <= 8; ++limit) {
    hot.push_back("{\"op\":\"fds\",\"limit\":" + std::to_string(limit) + "}");
    hot.push_back("{\"op\":\"schemes\",\"limit\":" + std::to_string(limit) + "}");
  }
  hot.push_back("{\"op\":\"attrs\"}");
  hot.push_back("{\"op\":\"info\"}");
  for (size_t i = hot.size() - 1; i > 0; --i) std::swap(hot[i], hot[rng() % (i + 1)]);

  const std::vector<std::string> bad = {
      "{\"op\":\"fds\",\"limit\":-1}",
      "{\"op\":\"schemes\",\"limit\":2.5}",
      "{\"op\":\"assign\",\"row\":[\"x\"]}",
      "{\"op\":\"duplicates\"}",
      "{\"op\":\"valuegroup\",\"attr\":\"Year\"}",
      "{\"op\":\"valuegroup\",\"attr\":\"NoSuchAttribute\",\"value\":\"x\"}",
      "{\"op\":\"no_such_op\"}",
  };

  RequestStream stream;
  stream.lines.reserve(count);
  stream.kinds.reserve(count);
  size_t miss_cursor = 0;
  size_t dup_cursor = unseen.NumTuples() / 2;
  for (size_t i = 0; i < count; ++i) {
    const uint64_t r = rng() % 1000;
    if (r < 300) {
      stream.lines.push_back(RowQuery("assign", unseen, static_cast<relation::TupleId>(miss_cursor++ % unseen.NumTuples())));
      stream.kinds.push_back(kMissAssign);
    } else if (r < 400) {
      stream.lines.push_back(RowQuery("duplicates", unseen, static_cast<relation::TupleId>(dup_cursor++ % unseen.NumTuples())));
      stream.kinds.push_back(kDuplicates);
    } else if (r < 970) {
      const double u = Unit(rng);
      stream.lines.push_back(hot[static_cast<size_t>(u * u * u * static_cast<double>(hot.size()))]);
      stream.kinds.push_back(kHot);
    } else {
      stream.lines.push_back(bad[rng() % bad.size()]);
      stream.kinds.push_back(kBadArgument);
    }
  }
  return stream;
}

// --- open-loop load generator --------------------------------------------------------

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_sent = 0;
  std::string in;
  std::deque<uint32_t> pending;  // record indices awaiting a response
  bool broken = false;
};

/// Flushes as much of conn->out as the socket takes. False on error.
bool FlushOut(Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t w = ::send(conn->fd, conn->out.data() + conn->out_sent,
                             conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (w <= 0) return false;
    conn->out_sent += static_cast<size_t>(w);
  }
  if (conn->out_sent == conn->out.size()) {
    conn->out.clear();
    conn->out_sent = 0;
  }
  return true;
}

/// Reads what is available; calls on_line for each complete line. False on
/// error or orderly close.
template <typename OnLine>
bool ReadIn(Connection* conn, OnLine on_line) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    conn->in.append(chunk, static_cast<size_t>(n));
  }
  size_t start = 0;
  for (;;) {
    const size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) break;
    on_line(std::string_view(conn->in).substr(start, nl - start));
    start = nl + 1;
  }
  conn->in.erase(0, start);
  return true;
}

/// One request as the generator saw it.
struct Record {
  uint32_t request = 0;   // index into the request stream
  uint16_t version_lo = 0;  // reloads acknowledged before the send
  uint16_t version_hi = 0;  // reloads sent before the response arrived
  bool answered = false;
  float latency_us = 0.0f;  // response time minus scheduled send time
  float lag_us = 0.0f;      // actual send time minus scheduled send time
  uint64_t response_hash = 0;
};

/// The write side of serve_mixed: refit the served bundle with
/// `limbo-tool refit`, swap it into place, then reload it over an admin
/// connection.
struct WriteSide {
  std::vector<std::string> wrapper;  // argv prefix for the refit, e.g. taskset
  std::string tool;         // limbo-tool binary
  std::string served;       // path limbo-serve registered
  std::string refit_rows;   // CSV of rows each refit absorbs
  std::string versions_dir; // v<k>.limbo per model version, for the checker
};

struct WriteCycle {
  double refit_ms = 0.0;
  double reload_ms = 0.0;
  bool ok = false;
};

struct LadderOptions {
  std::vector<double> rates_qps;  // offered rates, ascending
  double step_seconds = 0.0;
  /// A step passes when every request was answered and both the step's
  /// p99 latency and the generator's p99 lag are within this limit.
  double p99_limit_us = 0.0;
};

/// A step's percentiles are taken per window and the median over windows
/// reported, so that one scheduler hiccup on a shared host (or the window
/// holding the step's reload) moves one window, not the step's figure.
constexpr size_t kWindows = 8;

struct StepResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // answered / (last reply - step start)
  size_t sent = 0;
  size_t unanswered = 0;
  double p50_us = 0.0;       // each: median over kWindows of the window's percentile
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::vector<double> window_p99_us;
  double lag_p99_us = 0.0;  // same, for how late the generator sent
  bool passed = false;
};

struct LoadRun {
  std::vector<Record> records;
  std::vector<StepResult> steps;
  std::vector<WriteCycle> cycles;
  uint16_t versions = 1;  // model versions a reply may have come from
};

pid_t SpawnQuiet(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  const int rc = posix_spawnp(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Drives `stream` open-loop over kConns connections at each offered rate
/// of `ladder` for `step_seconds`, round-robin across connections. With a
/// write side, one refit -> reload cycle starts a quarter into each step.
/// Between steps the generator waits for every outstanding reply (up to
/// kDrainSeconds; the rest count as unanswered).
LoadRun RunLadder(int port, const RequestStream& stream, const LadderOptions& options,
                  const WriteSide* write) {
  const std::vector<double>& ladder = options.rates_qps;
  const double step_seconds = options.step_seconds;
  LoadRun run;
  std::vector<Connection> conns(kConns);
  for (Connection& c : conns) {
    c.fd = ConnectLoopback(port);
    if (c.fd < 0) Die("cannot connect to port " + std::to_string(port));
  }
  size_t cursor = 0;
  uint16_t acked = 1;      // version serving before this point
  uint16_t announced = 1;  // highest version a reply may already come from

  for (size_t step = 0; step < ladder.size(); ++step) {
    const double rate = ladder[step];
    const size_t planned = static_cast<size_t>(rate * step_seconds);
    const size_t first_record = run.records.size();
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    const auto due_at = [&](size_t i) {
      return t0 + std::chrono::nanoseconds(static_cast<int64_t>(1e9 * static_cast<double>(i) / rate));
    };
    const Clock::time_point step_end = due_at(planned);
    const Clock::time_point cycle_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(step_seconds / 4));
    const Clock::time_point drain_deadline = step_end + std::chrono::duration_cast<Clock::duration>(
                                                            std::chrono::duration<double>(kDrainSeconds));
    // Write-side state for this step's cycle.
    enum { kIdle, kRefitting, kReloading, kCycleDone } phase = write ? kIdle : kCycleDone;
    pid_t refit_pid = -1;
    Clock::time_point refit_start, reload_start;
    Connection admin;
    WriteCycle cycle;
    std::string version_file;

    size_t next = 0;
    size_t outstanding_step = 0;
    for (;;) {
      const Clock::time_point now = Clock::now();
      // Send everything that is due.
      while (next < planned && due_at(next) <= now) {
        Record rec;
        rec.request = static_cast<uint32_t>(cursor++ % stream.lines.size());
        rec.version_lo = acked;
        rec.lag_us = static_cast<float>(std::chrono::duration<double, std::micro>(now - due_at(next)).count());
        Connection& c = conns[next % kConns];
        c.out += stream.lines[rec.request];
        c.out.push_back('\n');
        c.pending.push_back(static_cast<uint32_t>(run.records.size()));
        run.records.push_back(rec);
        ++next;
        ++outstanding_step;
      }
      for (Connection& c : conns) {
        if (!c.broken && !c.out.empty() && !FlushOut(&c)) c.broken = true;
      }
      // Write side.
      if (phase == kIdle && now >= cycle_at) {
        version_file = write->versions_dir + "/v" + std::to_string(announced + 1) + ".limbo";
        refit_start = now;
        std::vector<std::string> argv = write->wrapper;
        for (std::string arg : {write->tool, std::string("refit"), write->served,
                                "--input=" + write->refit_rows, "--model-out=" + version_file,
                                std::string("--threads=1")}) {
          argv.push_back(std::move(arg));
        }
        refit_pid = SpawnQuiet(argv);
        phase = refit_pid > 0 ? kRefitting : kCycleDone;
      } else if (phase == kRefitting) {
        int status = 0;
        const pid_t done = ::waitpid(refit_pid, &status, WNOHANG);
        if (done == refit_pid) {
          cycle.refit_ms = 1e3 * SecondsBetween(refit_start, Clock::now());
          const std::string staged = write->served + ".next";
          ::unlink(staged.c_str());
          if (WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
              ::link(version_file.c_str(), staged.c_str()) == 0 &&
              ::rename(staged.c_str(), write->served.c_str()) == 0 &&
              (admin.fd = ConnectLoopback(port)) >= 0) {
            admin.out = "{\"op\":\"reload\"}\n";
            reload_start = Clock::now();
            ++announced;
            phase = FlushOut(&admin) ? kReloading : kCycleDone;
          } else {
            phase = kCycleDone;
          }
        }
      }
      const bool sending_done = next >= planned;
      if (sending_done && outstanding_step == 0 && phase == kCycleDone) break;
      if (sending_done && Clock::now() > drain_deadline && phase != kRefitting) break;
      // Wait for replies or the next due time.
      std::vector<pollfd> fds;
      for (Connection& c : conns) {
        short events = POLLIN;
        if (!c.out.empty()) events |= POLLOUT;
        fds.push_back({c.fd, events, 0});
      }
      if (phase == kReloading) fds.push_back({admin.fd, POLLIN, 0});
      int64_t wait_ns = 1000000;  // 1 ms cap keeps the write side polled
      if (next < planned) {
        wait_ns = std::min<int64_t>(wait_ns, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                 due_at(next) - Clock::now()).count());
      }
      if (wait_ns < 0) wait_ns = 0;
      const timespec ts{static_cast<time_t>(wait_ns / 1000000000), static_cast<long>(wait_ns % 1000000000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready <= 0) continue;
      const Clock::time_point arrived = Clock::now();
      for (size_t i = 0; i < conns.size(); ++i) {
        Connection& c = conns[i];
        if (c.broken || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const bool alive = ReadIn(&c, [&](std::string_view line) {
          if (c.pending.empty()) return;
          Record& rec = run.records[c.pending.front()];
          c.pending.pop_front();
          rec.answered = true;
          rec.version_hi = announced;
          rec.response_hash = model::Fnv1a(line.data(), line.size());
          // Connections with replies still pending are reopened between
          // steps, so every reply here belongs to the current step.
          const size_t index = static_cast<size_t>(&rec - run.records.data());
          rec.latency_us = static_cast<float>(std::chrono::duration<double, std::micro>(
                                                  arrived - due_at(index - first_record)).count());
          --outstanding_step;
        });
        if (!alive) c.broken = true;
      }
      if (phase == kReloading && (fds.back().revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        bool got = false;
        const bool alive = ReadIn(&admin, [&](std::string_view line) {
          got = true;
          cycle.ok = line.find("\"ok\":true") != std::string_view::npos &&
                     line.find("\"version\":" + std::to_string(announced)) != std::string_view::npos;
        });
        if (got || !alive) {
          cycle.reload_ms = 1e3 * SecondsBetween(reload_start, Clock::now());
          if (cycle.ok) acked = announced;
          ::close(admin.fd);
          admin.fd = -1;
          phase = kCycleDone;
        }
      }
    }
    if (write) run.cycles.push_back(cycle);
    if (admin.fd >= 0) ::close(admin.fd);

    StepResult result;
    result.offered_qps = rate;
    result.sent = planned;
    std::vector<double> window_p50, window_p90, window_p99, window_lag;
    size_t answered = 0;
    std::vector<double> window_latencies[kWindows], window_lags[kWindows];
    double last_reply_s = 0.0;
    for (size_t r = first_record; r < run.records.size(); ++r) {
      const Record& rec = run.records[r];
      const size_t window = (r - first_record) * kWindows / std::max<size_t>(planned, 1);
      window_lags[window].push_back(rec.lag_us);
      if (rec.answered) {
        ++answered;
        window_latencies[window].push_back(rec.latency_us);
        last_reply_s = std::max(last_reply_s, static_cast<double>(r - first_record) / rate + 1e-6 * rec.latency_us);
      } else {
        ++result.unanswered;
      }
    }
    for (size_t w = 0; w < kWindows; ++w) {
      if (!window_latencies[w].empty()) {
        window_p50.push_back(Percentile(window_latencies[w], 0.5));
        window_p90.push_back(Percentile(window_latencies[w], 0.9));
        window_p99.push_back(Percentile(window_latencies[w], 0.99));
      }
      if (!window_lags[w].empty()) window_lag.push_back(Percentile(window_lags[w], 0.99));
    }
    result.p50_us = Median(window_p50);
    result.p90_us = Median(window_p90);
    result.p99_us = Median(window_p99);
    result.window_p99_us = window_p99;
    result.lag_p99_us = Median(window_lag);
    result.achieved_qps =
        last_reply_s > 0.0 ? static_cast<double>(planned - result.unanswered) / last_reply_s : 0.0;
    result.passed = result.unanswered == 0 && answered > 0 &&
                    result.p99_us <= options.p99_limit_us && result.lag_p99_us <= options.p99_limit_us;
    run.steps.push_back(result);
    // Replies that never came (counted unanswered above) make the
    // connection's FIFO useless: reopen it.
    for (Connection& c : conns) {
      if (c.pending.empty() && !c.broken) continue;
      ::close(c.fd);
      c = Connection();
      c.fd = ConnectLoopback(port);
      if (c.fd < 0) Die("cannot reconnect to port " + std::to_string(port));
    }
  }
  for (Connection& c : conns) ::close(c.fd);
  run.versions = announced;
  return run;
}

/// Counts responses that match no model version that could have answered
/// them. Expected bytes come from an in-process Registry that replays the
/// server's reload sequence over the saved version files, with the cache
/// off (cached and uncached responses are byte-identical by contract).
size_t CountMismatches(const LoadRun& run, const RequestStream& stream, const std::string& model_name,
                       const std::string& versions_dir, const std::string& scratch_dir) {
  const std::string path = scratch_dir + "/" + model_name + ".limbo";
  serve::Registry registry;
  core::LossKernel kernel;
  std::vector<char> matched(run.records.size(), 0);
  for (uint16_t v = 1; v <= run.versions; ++v) {
    const std::string source = versions_dir + "/v" + std::to_string(v) + ".limbo";
    ::unlink(path.c_str());
    if (::link(source.c_str(), path.c_str()) != 0) Die("cannot stage " + source);
    OkOrDie(v == 1 ? registry.AddModel(model_name, path) : registry.Reload(model_name),
            "checker load of " + source);
    std::vector<int64_t> slot(stream.lines.size(), -1);
    std::vector<std::string> lines;
    std::vector<size_t> wanted;
    for (size_t r = 0; r < run.records.size(); ++r) {
      const Record& rec = run.records[r];
      if (!rec.answered || matched[r] || v < rec.version_lo || v > rec.version_hi) continue;
      if (slot[rec.request] < 0) {
        slot[rec.request] = static_cast<int64_t>(lines.size());
        lines.push_back(stream.lines[rec.request]);
      }
      wanted.push_back(r);
    }
    std::vector<uint64_t> hashes;
    for (size_t begin = 0; begin < lines.size(); begin += 256) {
      const size_t end = std::min(lines.size(), begin + 256);
      for (const std::string& response :
           registry.HandleBatch(std::span<const std::string>(lines.data() + begin, end - begin), &kernel)) {
        hashes.push_back(HashBytes(response));
      }
    }
    for (size_t r : wanted) {
      if (hashes[slot[run.records[r].request]] == run.records[r].response_hash) matched[r] = 1;
    }
  }
  size_t mismatches = 0;
  for (size_t r = 0; r < run.records.size(); ++r) {
    if (run.records[r].answered && !matched[r]) ++mismatches;
  }
  return mismatches;
}

// --- subcommands -------------------------------------------------------------------------

relation::Relation ReadRelation(const std::string& path) {
  return OrDie(relation::ReadCsv(path), "read " + path);
}

int CmdCheckFit(const Flags& flags) {
  const relation::Relation rel = ReadRelation(flags.Str("csv"));
  auto engine = serve::Engine::Open(flags.Str("bundle"));
  const size_t sample = flags.Int("sample");
  if (!engine.ok()) {
    std::printf("%s\n", JsonObject().Int("checked", sample).Int("failed", sample)
                            .Str("error", engine.status().ToString()).Done().c_str());
    return 0;
  }
  const model::ModelBundle& bundle = engine->bundle();
  std::mt19937_64 rng(flags.Int("seed"));
  core::LossKernel kernel;
  size_t failed = 0;
  for (size_t i = 0; i < sample; ++i) {
    const auto t = static_cast<relation::TupleId>(rng() % rel.NumTuples());
    std::vector<std::string> fields;
    for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) fields.push_back(rel.TextAt(t, a));
    uint32_t label = 0;
    double loss = 0.0;
    size_t oov = 0;
    const util::Status s = engine->AssignRow(fields, &kernel, &label, &loss, &oov);
    if (!s.ok() || t >= bundle.assignments.size() || label != bundle.assignments[t] ||
        loss != bundle.assignment_loss[t] || oov != 0) {
      ++failed;
    }
  }
  std::printf("%s\n", JsonObject().Int("checked", sample).Int("failed", failed)
                          .Str("checksum", Hex64(bundle.payload_checksum)).Done().c_str());
  return 0;
}

/// Parses "[A,B]" (schema names) into an attribute set.
bool ParseAttributeSet(const std::string& text, const relation::Schema& schema, fd::AttributeSet* out) {
  if (text.size() < 2 || text.front() != '[' || text.back() != ']') return false;
  *out = fd::AttributeSet();
  std::stringstream in(text.substr(1, text.size() - 2));
  std::string name;
  while (std::getline(in, name, ',')) {
    bool found = false;
    for (relation::AttributeId a = 0; a < schema.NumAttributes(); ++a) {
      if (schema.Name(a) == name) {
        *out = out->With(a);
        found = true;
      }
    }
    if (!found) return false;
  }
  return true;
}

int CmdCheckSchemes(const Flags& flags) {
  const relation::Relation rel = ReadRelation(flags.Str("csv"));
  const double epsilon = flags.Num("epsilon");
  std::ifstream output(flags.Str("output"));
  struct Reported {
    fd::AttributeSet separator;
    std::vector<fd::AttributeSet> bags;
    double j = 0.0;
    bool parsed = false;
  };
  std::vector<Reported> reported;
  size_t announced = 0;
  std::string line;
  while (std::getline(output, line)) {
    if (line.rfind("# H(Omega)", 0) == 0) {
      const size_t semi = line.find("; ");
      if (semi != std::string::npos) announced = std::strtoull(line.c_str() + semi + 2, nullptr, 10);
      continue;
    }
    if (line.empty() || line[0] != '{') continue;
    // "{[A,B] | [A,C]} sep [A] j=0.0123"
    Reported r;
    const size_t close = line.find("} sep ");
    const size_t jpos = line.rfind(" j=");
    if (close != std::string::npos && jpos != std::string::npos && jpos > close) {
      r.parsed = ParseAttributeSet(line.substr(close + 6, jpos - close - 6), rel.schema(), &r.separator);
      r.j = std::atof(line.c_str() + jpos + 3);
      const std::string bags = line.substr(1, close - 1);
      size_t start = 0;
      while (r.parsed && start <= bags.size()) {
        size_t bar = bags.find(" | ", start);
        if (bar == std::string::npos) bar = bags.size();
        fd::AttributeSet bag;
        r.parsed = ParseAttributeSet(bags.substr(start, bar - start), rel.schema(), &bag);
        r.bags.push_back(bag);
        start = bar + 3;
      }
    }
    reported.push_back(std::move(r));
  }
  relation::RelationRowSource source(rel);
  schemes::EntropyOracle oracle(source);
  const double h_omega =
      OrDie(oracle.H(fd::AttributeSet::Full(rel.NumAttributes())), "H(Omega)");
  size_t failed = reported.size() == announced && !reported.empty() ? 0 : 1;
  double max_error = 0.0;
  for (const Reported& r : reported) {
    if (!r.parsed || r.bags.size() < 2) {
      ++failed;
      continue;
    }
    double sum = 0.0;
    for (fd::AttributeSet bag : r.bags) sum += OrDie(oracle.H(bag), "H(bag)");
    const double hsep = OrDie(oracle.H(r.separator), "H(sep)");
    double j = sum - static_cast<double>(r.bags.size() - 1) * hsep - h_omega;
    if (j < 0.0) j = 0.0;
    // The tool prints J with 4 decimals.
    const double error = std::fabs(j - r.j);
    max_error = std::max(max_error, error);
    if (j > epsilon || error > 0.5e-4 + 1e-12) ++failed;
  }
  std::printf("%s\n", JsonObject().Int("checked", reported.size()).Int("failed", failed)
                          .Num("max_j_error", max_error).Done().c_str());
  return 0;
}

std::string StepsJson(const LoadRun& run) {
  std::string out = "[";
  for (size_t i = 0; i < run.steps.size(); ++i) {
    const StepResult& s = run.steps[i];
    JsonObject o;
    o.Num("offered_qps", s.offered_qps).Num("achieved_qps", s.achieved_qps)
        .Int("sent", s.sent).Int("unanswered", s.unanswered).Num("p50_us", s.p50_us)
        .Num("p90_us", s.p90_us).Num("p99_us", s.p99_us).Num("lag_p99_us", s.lag_p99_us).Raw("passed", s.passed ? "true" : "false");
    std::string windows = "[";
    for (double w : s.window_p99_us) {
      if (windows.size() > 1) windows.push_back(',');
      windows += std::to_string(w);
    }
    o.Raw("window_p99_us", windows + "]");
    if (i > 0) out.push_back(',');
    out += o.Done();
  }
  return out + "]";
}

int CmdLoad(const Flags& flags) {
  const relation::Relation train = ReadRelation(flags.Str("train"));
  const relation::Relation unseen = ReadRelation(flags.Str("unseen"));
  LadderOptions options;
  options.rates_qps = flags.List("ladder");
  options.step_seconds = flags.Num("step-seconds");
  options.p99_limit_us = flags.Num("p99-limit-us");
  // The stream repeats past this length; its unseen rows cycle anyway.
  const RequestStream stream = BuildRequests(train, unseen, flags.Int("seed"), 200000);
  WriteSide write;
  std::stringstream wrapper(flags.Str("refit-wrapper"));
  for (std::string arg; std::getline(wrapper, arg, ',');) write.wrapper.push_back(arg);
  write.tool = flags.Str("tool");
  write.served = flags.Str("served");
  write.refit_rows = flags.Str("refit-rows");
  write.versions_dir = flags.Str("versions-dir");
  LoadRun run = RunLadder(static_cast<int>(flags.Int("port")), stream, options, &write);
  // Fault injection for the smoke mode: alter one byte of one response.
  const size_t corrupt = flags.Int("corrupt-response", 0);
  if (corrupt > 0 && corrupt <= run.records.size()) run.records[corrupt - 1].response_hash ^= 0x5a;

  const size_t mismatches =
      CountMismatches(run, stream, kModelName, write.versions_dir, flags.Str("scratch-dir"));
  size_t attempted = run.records.size() + run.cycles.size();
  size_t failed = mismatches;
  std::vector<double> reload_ms, refit_ms;
  for (const WriteCycle& c : run.cycles) {
    if (!c.ok) ++failed;
    reload_ms.push_back(c.reload_ms);
    refit_ms.push_back(c.refit_ms);
  }
  // The highest rate the server sustained: the last step of the passing
  // run of steps from the bottom of the ladder.
  double max_qps = 0.0;
  for (const StepResult& s : run.steps) {
    if (!s.passed) break;
    max_qps = s.achieved_qps;
  }
  std::vector<size_t> kind_counts(kNumKinds, 0);
  size_t answered = 0;
  for (const Record& rec : run.records) {
    ++kind_counts[stream.kinds[rec.request]];
    if (rec.answered) {
      ++answered;
    } else {
      ++failed;
    }
  }
  std::string mix = "{";
  for (int k = 0; k < kNumKinds; ++k) {
    if (k > 0) mix.push_back(',');
    util::AppendJsonString(kKindNames[k], &mix);
    mix += ":" + std::to_string(kind_counts[k]);
  }
  JsonObject o;
  o.Int("attempted", attempted).Int("failed", failed).Int("answered", answered)
      .Int("mismatched", mismatches).Int("conns", kConns)
      .Int("versions", run.versions).Raw("mix", mix + "}").Raw("steps", StepsJson(run))
      .Num("reload_ms", Median(reload_ms)).Num("refit_ms", Median(refit_ms))
      .Int("write_cycles", run.cycles.size()).Num("max_qps", max_qps);
  std::printf("%s\n", o.Done().c_str());
  return 0;
}

// --- traced run -------------------------------------------------------------------------------

/// Per-layer metrics of one traced run, by name.
class LayerMetrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::string ToJson() const {
    JsonObject o;
    for (const auto& [name, value] : values_) o.Num(name, value);
    return o.Done();
  }

 private:
  std::map<std::string, double> values_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

size_t FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<size_t>(st.st_size) : 0;
}

/// fit_dblp: the fit as the CLI composes it (ReadCsv -> FitModel -> Save),
/// then the same pipeline replayed one public step at a time so each
/// layer gets its own span.
void TraceFit(const Flags& flags, Tracer* tracer, LayerMetrics* m, double* traced_job_s) {
  const size_t threads = flags.Int("threads");
  relation::Relation rel;
  double job = 0.0;
  {
    Traced span(tracer, "relation.read");
    rel = ReadRelation(flags.Str("csv"));
    const double s = span.End();
    job += s;
    m->Set("relation.read_s", s);
  }
  m->Set("relation.values", static_cast<double>(rel.dictionary().NumValues()));
  model::FitOptions fit_options;
  fit_options.threads = threads;
  model::ModelBundle bundle;
  {
    Traced span(tracer, "model.fit");
    bundle = OrDie(model::FitModel(rel, fit_options), "FitModel");
    job += span.End();
  }
  const std::string out = flags.Str("bundle-out");
  {
    Traced span(tracer, "model.save");
    OkOrDie(model::Save(bundle, out), "Save");
    const double s = span.End();
    job += s;
    m->Set("model.save_s", s);
  }
  m->Set("model.bundle_bytes", static_cast<double>(FileBytes(out)));
  *traced_job_s = job;
  {
    Traced span(tracer, "model.load");
    OrDie(serve::Engine::Open(out), "Engine::Open");
    m->Set("model.load_s", span.End());
  }

  Traced replay(tracer, "core.replay");
  std::vector<core::Dcf> objects;
  {
    Traced span(tracer, "core.build_objects");
    objects = core::BuildTupleObjects(rel);
    m->Set("core.build_objects_s", span.End());
  }
  {
    core::LimboOptions options;
    options.phi = fit_options.phi_t;
    options.k = fit_options.k;
    options.threads = threads;
    options.freeze_tree = fit_options.refit_state;
    Traced span(tracer, "core.run_limbo");
    const core::LimboResult run = OrDie(core::RunLimbo(objects, options), "RunLimbo");
    span.End();
    m->Set("core.phase1_s", run.timings.phase1_seconds);
    m->Set("core.phase1_leaves", static_cast<double>(run.leaves.size()));
    m->Set("core.phase2_s", run.timings.phase2_seconds);
    m->Set("core.phase2_distance_evals", static_cast<double>(run.timings.phase2_distance_evals));
    m->Set("core.aib.merges", static_cast<double>(tracer->Counter(span.id(), "aib.merges")));
    const double hits = static_cast<double>(tracer->Counter(span.id(), "aib.nn_cache.hits"));
    const double misses = static_cast<double>(tracer->Counter(span.id(), "aib.nn_cache.misses"));
    m->Set("core.aib.nn_cache_hit_ratio", Ratio(hits, hits + misses));
    m->Set("core.phase3_s", run.timings.phase3_seconds);
    m->Set("core.phase3_distance_evals", static_cast<double>(run.timings.phase3_distance_evals));
  }
  core::StructureSummaryOptions summary_options;
  summary_options.phi_t = fit_options.phi_t;
  summary_options.phi_v = fit_options.phi_v;
  summary_options.psi = fit_options.psi;
  {
    Traced span(tracer, "core.summary");
    OrDie(core::SummarizeStructure(rel, summary_options), "SummarizeStructure");
    m->Set("core.summary_s", span.End());
  }
  // SummarizeStructure's steps, one call each, composed as it composes
  // them on a relation above large_relation_threshold.
  Traced steps(tracer, "core.summary_steps");
  {
    core::DuplicateTupleOptions options;
    options.phi_t = summary_options.phi_t;
    Traced span(tracer, "core.duplicates");
    OrDie(core::FindDuplicateTuples(rel, options), "FindDuplicateTuples");
    m->Set("core.duplicates_s", span.End());
  }
  const bool large = rel.NumTuples() > summary_options.large_relation_threshold;
  std::vector<uint32_t> labels;
  core::ValueClusteringOptions value_options;
  value_options.phi_v = summary_options.phi_v;
  {
    Traced span(tracer, "core.double_clustering");
    if (large) {
      const std::vector<core::Dcf> tuple_objects = core::BuildTupleObjects(rel);
      core::WeightedRows rows;
      for (const core::Dcf& o : tuple_objects) {
        rows.weights.push_back(o.p);
        rows.rows.push_back(o.cond);
      }
      const double info = core::MutualInformation(rows);
      core::LimboOptions options;
      options.phi = summary_options.phi_t_double_clustering;
      const std::vector<core::Dcf> leaves = core::LimboPhase1(
          tuple_objects, options,
          summary_options.phi_t_double_clustering * info / static_cast<double>(tuple_objects.size()));
      labels = OrDie(core::LimboPhase3(tuple_objects, leaves), "LimboPhase3");
      value_options.tuple_labels = &labels;
      value_options.num_tuple_clusters = leaves.size();
    }
    m->Set("core.double_clustering_s", span.End());
  }
  core::ValueClusteringResult values;
  {
    Traced span(tracer, "core.value_clustering");
    values = OrDie(core::ClusterValues(rel, value_options), "ClusterValues");
    m->Set("core.value_clustering_s", span.End());
  }
  core::AttributeGroupingResult grouping;
  bool has_grouping = false;
  {
    Traced span(tracer, "core.attribute_grouping");
    if (!values.duplicate_groups.empty()) {
      auto g = core::GroupAttributes(rel, values);
      has_grouping = g.ok();
      if (has_grouping) grouping = std::move(g).value();
    }
    m->Set("core.attribute_grouping_s", span.End());
  }
  std::vector<fd::FunctionalDependency> fds;
  {
    Traced span(tracer, "fd.mining");
    if (large) {
      fd::TaneOptions options;
      options.min_lhs = 1;
      fds = OrDie(fd::Tane::Mine(rel, options), "Tane::Mine");
    } else {
      fds = OrDie(fd::Fdep::Mine(rel), "Fdep::Mine");
    }
    m->Set("fd.mining_s", span.End());
  }
  m->Set("fd.fds_mined", static_cast<double>(fds.size()));
  {
    Traced span(tracer, "core.fd_rank");
    const auto cover = fd::MinimumCover(fds, /*merge_same_lhs=*/false);
    if (has_grouping) {
      core::FdRankOptions options;
      options.psi = summary_options.psi;
      OrDie(core::RankFds(cover, grouping, options), "RankFds");
    }
    m->Set("core.fd_rank_s", span.End());
  }
}

/// schemes_dblp: ReadCsv, then the entropy oracle and miner as the CLI
/// composes them.
void TraceSchemes(const Flags& flags, Tracer* tracer, LayerMetrics* m, double* traced_job_s) {
  relation::Relation rel;
  {
    Traced span(tracer, "relation.read");
    rel = ReadRelation(flags.Str("csv"));
    const double s = span.End();
    *traced_job_s = s;
    m->Set("relation.read_s", s);
  }
  m->Set("relation.values", static_cast<double>(rel.dictionary().NumValues()));
  relation::RelationRowSource source(rel);
  schemes::EntropyOracleOptions oracle_options;
  oracle_options.threads = flags.Int("threads");
  schemes::EntropyOracle oracle(source, oracle_options);
  schemes::MineOptions options;
  options.epsilon = flags.Num("epsilon");
  Traced span(tracer, "schemes.mine");
  const schemes::MineResult result = OrDie(schemes::MineAcyclicSchemes(oracle, options), "MineAcyclicSchemes");
  const double s = span.End();
  *traced_job_s += s;
  const schemes::EntropyOracle::Stats& stats = oracle.stats();
  m->Set("schemes.mine_s", s);
  m->Set("schemes.oracle.passes", static_cast<double>(stats.passes));
  m->Set("schemes.oracle.rows_read", static_cast<double>(stats.rows_read));
  m->Set("schemes.oracle.sets_counted", static_cast<double>(stats.sets_counted));
  m->Set("schemes.oracle.memo_hits", static_cast<double>(stats.memo_hits));
  m->Set("schemes.oracle.ns_per_set_row",
         Ratio(1e9 * s, static_cast<double>(stats.sets_counted) * static_cast<double>(rel.NumTuples())));
  m->Set("schemes.mine.prune_ratio",
         Ratio(static_cast<double>(result.pairs_pruned),
               static_cast<double>(result.pairs_pruned + result.pairs_evaluated)));
}

/// Replays `lines` through Registry::HandleBatch in batches of batch_max.
void ReplayBatches(serve::Registry* registry, const std::vector<std::string>& lines, size_t batch_max) {
  core::LossKernel kernel;
  for (size_t begin = 0; begin < lines.size(); begin += batch_max) {
    const size_t end = std::min(lines.size(), begin + batch_max);
    registry->HandleBatch(std::span<const std::string>(lines.data() + begin, end - begin), &kernel);
  }
}

/// serve_mixed: the seeded request stream replayed in process through
/// each layer of the request path, the write side (RefitModel + Reload),
/// and an in-process serve::Server at the high offered rate.
void TraceServe(const Flags& flags, Tracer* tracer, LayerMetrics* m, double* traced_job_s,
                double* untraced_job_s) {
  const size_t batch_max = flags.Int("batch-max");
  RequestStream stream;
  {
    Traced span(tracer, "harness.requests");
    const relation::Relation train = ReadRelation(flags.Str("train"));
    const relation::Relation unseen = ReadRelation(flags.Str("unseen"));
    stream = BuildRequests(train, unseen, flags.Int("seed"), flags.Int("requests"));
  }
  const std::string bundle_path = flags.Str("bundle");
  const std::string name = kModelName;
  {
    Traced span(tracer, "model.load");
    OrDie(serve::Engine::Open(bundle_path), "Engine::Open");
    m->Set("model.load_s", span.End());
  }
  // Untraced reference for the overhead ratio: the same replay, obs off.
  {
    Traced span(tracer, "harness.untraced_reference");
    obs::SetEnabled(false);
    // The first replay warms the allocator and page cache for both timed
    // replays; only the second is the reference.
    for (int pass = 0; pass < 2; ++pass) {
      serve::Registry registry({}, flags.Int("cache-entries"));
      OkOrDie(registry.AddModel(name, bundle_path), "AddModel");
      const Clock::time_point start = Clock::now();
      ReplayBatches(&registry, stream.lines, batch_max);
      *untraced_job_s = SecondsBetween(start, Clock::now());
    }
    obs::SetEnabled(true);
  }
  serve::Registry registry({}, flags.Int("cache-entries"));
  OkOrDie(registry.AddModel(name, bundle_path), "AddModel");
  {
    Traced span(tracer, "serve.registry.batch");
    ReplayBatches(&registry, stream.lines, batch_max);
    const double s = span.End();
    *traced_job_s = s;
    m->Set("serve.registry.batch_us_per_req", 1e6 * s / static_cast<double>(stream.lines.size()));
    const double hits = static_cast<double>(registry.CacheHits());
    m->Set("serve.cache.hit_ratio", Ratio(hits, hits + static_cast<double>(registry.CacheMisses())));
    m->Set("serve.batch.dup_row_ratio",
           Ratio(static_cast<double>(tracer->Counter(span.id(), "serve.batch.dup_rows")),
                 static_cast<double>(tracer->Counter(span.id(), "serve.batch.rows"))));
  }
  std::vector<util::JsonValue> parsed;
  parsed.reserve(stream.lines.size());
  {
    Traced span(tracer, "util.json.parse");
    for (const std::string& line : stream.lines) parsed.push_back(OrDie(util::ParseJson(line), "ParseJson"));
    m->Set("util.json.parse_us", 1e6 * span.End() / static_cast<double>(stream.lines.size()));
  }
  const std::shared_ptr<const serve::Engine> engine = registry.Lookup(name);
  core::LossKernel kernel;
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (stream.kinds[i] != kMissAssign && stream.kinds[i] != kDuplicates) continue;
      std::vector<std::string> fields;
      for (const util::JsonValue& f : parsed[i].Find("row")->array) fields.push_back(f.str);
      rows.push_back(std::move(fields));
    }
    Traced span(tracer, "serve.engine.assign_batch");
    for (size_t begin = 0; begin < rows.size(); begin += batch_max) {
      const size_t end = std::min(rows.size(), begin + batch_max);
      engine->AssignBatch(std::span<const std::vector<std::string>>(rows.data() + begin, end - begin), &kernel);
    }
    m->Set("serve.engine.assign_us_per_row", 1e6 * span.End() / static_cast<double>(std::max<size_t>(rows.size(), 1)));
  }
  {
    std::vector<const util::JsonValue*> lookups;
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (stream.kinds[i] == kHot && parsed[i].Find("row") == nullptr) lookups.push_back(&parsed[i]);
    }
    Traced span(tracer, "serve.engine.lookups");
    for (size_t begin = 0; begin < lookups.size(); begin += batch_max) {
      const size_t end = std::min(lookups.size(), begin + batch_max);
      engine->HandleRequests(std::span<const util::JsonValue* const>(lookups.data() + begin, end - begin), &kernel);
    }
    m->Set("serve.engine.lookup_us_per_req",
           1e6 * span.End() / static_cast<double>(std::max<size_t>(lookups.size(), 1)));
  }
  {
    const model::ModelBundle parent = OrDie(model::Load(bundle_path), "Load");
    relation::CsvFileSource rows =
        OrDie(relation::CsvFileSource::Open(flags.Str("refit-rows")), "open refit rows");
    model::RefitOptions options;
    options.threads = 1;
    Traced span(tracer, "model.refit");
    const model::RefitResult refit = OrDie(model::RefitModel(parent, rows, options), "RefitModel");
    m->Set("model.refit_s", span.End());
    Traced save(tracer, "model.save");
    OkOrDie(model::Save(refit.bundle, bundle_path), "Save refit");
    m->Set("model.save_s", save.End());
    m->Set("model.bundle_bytes", static_cast<double>(FileBytes(bundle_path)));
  }
  {
    Traced span(tracer, "serve.registry.reload");
    OkOrDie(registry.Reload(name), "Reload");
    m->Set("serve.registry.reload_ms", 1e3 * span.End());
  }
  {
    serve::ServerOptions options;
    options.workers = flags.Int("workers");
    options.batch_max = batch_max;
    options.poll_ms = 20;
    std::unique_ptr<serve::Server> server = OrDie(serve::Server::Start(&registry, options), "Server::Start");
    std::atomic<int> stop{0};
    std::thread reactor([&] { server->Run(&stop); });
    LadderOptions ladder;
    ladder.rates_qps = {flags.Num("high-qps")};
    ladder.step_seconds = flags.Num("step-seconds");
    Traced span(tracer, "serve.server");
    const LoadRun run = RunLadder(server->port(), stream, ladder, nullptr);
    span.End();
    stop.store(1);
    reactor.join();
    m->Set("serve.server.mean_batch",
           Ratio(static_cast<double>(server->batched_requests()), static_cast<double>(server->batches())));
    m->Set("serve.server.sheds", static_cast<double>(server->sheds()));
    m->Set("loadgen.lag_us.p99", run.steps[0].lag_p99_us);
  }
}

int CmdTrace(const Flags& flags) {
  const std::string workload = flags.Str("workload");
  obs::SetEnabled(true);
  obs::ResetCounters();
  Tracer tracer(flags.Int("run-id"));
  LayerMetrics m;
  double traced_job_s = 0.0;
  double untraced_job_s = flags.Num("untraced-job-s", 0.0);
  {
    Traced root(&tracer, "run");
    if (workload == "fit_dblp") {
      TraceFit(flags, &tracer, &m, &traced_job_s);
    } else if (workload == "schemes_dblp") {
      TraceSchemes(flags, &tracer, &m, &traced_job_s);
    } else if (workload == "serve_mixed") {
      TraceServe(flags, &tracer, &m, &traced_job_s, &untraced_job_s);
    } else {
      Die("unknown workload " + workload);
    }
  }
  m.Set("trace.overhead_ratio", Ratio(traced_job_s, untraced_job_s));
  m.Set("trace.unaccounted_s", tracer.SelfTime(0));
  std::ofstream spans(flags.Str("spans-out"), std::ios::binary);
  spans << tracer.ToJson() << "\n";
  if (!spans) Die("cannot write spans");

  // Self time by span name, largest first; the root's self time is the
  // part of the run no layer span covers.
  std::map<std::string, std::pair<double, size_t>> self;
  for (size_t i = 1; i < tracer.spans().size(); ++i) {
    auto& slot = self[tracer.spans()[i].name];
    slot.first += tracer.SelfTime(static_cast<int>(i));
    ++slot.second;
  }
  std::vector<std::pair<std::string, std::pair<double, size_t>>> rows(self.begin(), self.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) { return a.second.first > b.second.first; });
  std::string table = "[";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) table.push_back(',');
    table += JsonObject().Str("span", rows[i].first).Int("calls", rows[i].second.second)
                 .Num("self_s", rows[i].second.first).Done();
  }
  table += "]";
  std::printf("%s\n", JsonObject().Raw("metrics", m.ToJson()).Raw("self_times", table)
                          .Num("wall_s", tracer.Duration(0)).Num("unaccounted_s", tracer.SelfTime(0))
                          .Done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) Die("usage: perfbench_harness <check-fit|check-schemes|load|trace> [--flag=value ...]");
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (command == "check-fit") return CmdCheckFit(flags);
  if (command == "check-schemes") return CmdCheckSchemes(flags);
  if (command == "load") return CmdLoad(flags);
  if (command == "trace") return CmdTrace(flags);
  Die("unknown command " + command);
}
