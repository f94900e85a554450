#include "serve.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <random>
#include <string_view>
#include <thread>
#include <utility>

#include "core/model_io.h"
#include "core/predictor.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/model_service.h"

namespace perfbench {

namespace {

enum class QueryType : uint8_t {
  kDiffusion,   // Single candidate.
  kFanout,      // 16-candidate diffusion.
  kPosterior,
  kTimestamp,
  kLink,
};

/// The hot mix's posts, and the mixed mix's fan-out width and reload
/// period.
constexpr size_t kHotPosts = 512;
constexpr int kFanout = 16;
constexpr double kReloadPeriodS = 0.2;
/// Steps the slo_rps ladder takes when the limit lies 3-5 brackets above
/// the heavy rate: the bracket climb plus four bisections.
constexpr double kLadderSteps = 10.0;
/// Every n-th request of a phase is recomputed bit for bit; every n-th
/// carries a client span in the traced run.
constexpr int64_t kVerifyEvery = 61;
constexpr int64_t kSpanEvery = 8;
/// A request still unanswered this long after the end of its phase's
/// schedule has timed out.
constexpr double kHardTimeoutS = 3.0;
/// Over capacity, for the measured fixed-rate phases: the oldest request
/// unanswered for a second, or under 99% answered within 2% of the phase
/// after its schedule ends. A short host stall at the end of a phase is not
/// a capacity limit; a server that cannot keep up misses either test. The
/// ladder's steps give up sooner, so over-capacity steps stay short.
constexpr double kMeasuredGiveUpS = 1.0;
constexpr double kMeasuredGrace = 0.02;
/// Client-side request outcomes besides an HTTP status.
constexpr int kRefused = -1;  // Connection refused or reset.
constexpr int kNotSent = -2;  // Left unsent after the client gave up.

/// Keeps the predictor replay's results observable.
volatile double g_replay_sink = 0.0;

std::string WordsJson(std::span<const cold::text::WordId> words) {
  std::string out = "[";
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(words[i]);
  }
  return out + "]";
}

double CounterSum(const cold::obs::TelemetrySnapshot& snap,
                  const std::string& name) {
  double sum = 0.0;
  for (const auto& c : snap.counters) {
    if (c.name == name) sum += static_cast<double>(c.value);
  }
  return sum;
}

const cold::obs::HistogramSnapshot* FindHistogram(
    const cold::obs::TelemetrySnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// A TCP_NODELAY connection to the server on the loopback interface, or -1.
int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Sends POST /admin/reload on the blocking keep-alive connection `fd` and
/// reads the whole answer; true when it is a 200.
bool PostReload(int fd) {
  static constexpr std::string_view kRequest =
      "POST /admin/reload HTTP/1.1\r\nHost: perfbench\r\n"
      "Content-Length: 0\r\n\r\n";
  for (size_t off = 0; off < kRequest.size();) {
    const ssize_t w = send(fd, kRequest.data() + off, kRequest.size() - off,
                           MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<size_t>(w);
    } else if (w < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  std::string in;
  char buf[4096];
  while (true) {
    const size_t header_end = in.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const size_t cl = in.find("Content-Length: ");
      const size_t length =
          cl < header_end ? std::strtoul(in.c_str() + cl + 16, nullptr, 10)
                          : 0;
      if (in.size() >= header_end + 4 + length) {
        return in.compare(0, 12, "HTTP/1.1 200") == 0;
      }
    }
    const ssize_t r = recv(fd, buf, sizeof(buf), 0);
    if (r > 0) {
      in.append(buf, static_cast<size_t>(r));
    } else if (r < 0 && errno == EINTR) {
      continue;
    } else {
      return false;  // Closed, or no answer within the receive timeout.
    }
  }
}

}  // namespace

/// One request in full, for writing it out and for checking its answer.
struct ServeStage::Query {
  QueryType type = QueryType::kDiffusion;
  cold::text::PostId post = 0;
  cold::text::UserId author = 0;
  std::vector<int32_t> candidates;  // Diffusion targets, or the link target.
};

/// A request as planned: which pool post, which endpoint, and the salt its
/// candidates are drawn from.
struct ServeStage::Planned {
  uint32_t pool = 0;
  QueryType type = QueryType::kDiffusion;
  uint64_t salt = 0;
};

/// A query post of the workload, with its words already in JSON.
struct ServeStage::PoolPost {
  cold::text::PostId post = 0;
  cold::text::UserId author = 0;
  std::string words_json;
};

ServeStage::Query ServeStage::Materialize(const Planned& plan) const {
  const PoolPost& p = pool_[plan.pool];
  Query q;
  q.type = plan.type;
  q.post = p.post;
  q.author = p.author;
  const int targets = plan.type == QueryType::kFanout ? kFanout : 1;
  uint64_t state = plan.salt;
  for (int c = 0; c < targets; ++c) {
    // SplitMix64: a cheap, seedable stream for the candidate users.
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    q.candidates.push_back(static_cast<int32_t>(
        z % static_cast<uint64_t>(reference_->estimates().U)));
  }
  return q;
}

void ServeStage::AppendRequest(const Planned& plan, int64_t id,
                               std::string* out) const {
  const Query q = Materialize(plan);
  const std::string& words = pool_[plan.pool].words_json;
  const std::string author = std::to_string(q.author);
  const char* path = "/v1/diffusion";
  std::string body;
  switch (q.type) {
    case QueryType::kDiffusion:
      body = "{\"publisher\":" + author + ",\"candidate\":" +
             std::to_string(q.candidates[0]) + ",\"words\":" + words + "}";
      break;
    case QueryType::kFanout: {
      body = "{\"publisher\":" + author + ",\"candidates\":[";
      for (size_t c = 0; c < q.candidates.size(); ++c) {
        if (c > 0) body += ',';
        body += std::to_string(q.candidates[c]);
      }
      body += "],\"words\":" + words + "}";
      break;
    }
    case QueryType::kPosterior:
      path = "/v1/topic_posterior";
      body = "{\"author\":" + author + ",\"words\":" + words + "}";
      break;
    case QueryType::kTimestamp:
      path = "/v1/timestamp";
      body = "{\"author\":" + author + ",\"words\":" + words + "}";
      break;
    case QueryType::kLink:
      path = "/v1/link";
      body = "{\"source\":" + author + ",\"target\":" +
             std::to_string(q.candidates[0]) + "}";
      break;
  }
  *out += "POST ";
  *out += path;
  *out += " HTTP/1.1\r\nHost: perfbench\r\nX-Request-Id: ";
  *out += std::to_string(id);
  *out += "\r\nContent-Type: application/json\r\nContent-Length: ";
  *out += std::to_string(body.size());
  *out += "\r\n\r\n";
  *out += body;
}

/// The open-loop load generator: one busy-polling thread, `connections`
/// non-blocking keep-alive sockets, requests written when due (pipelined
/// behind any still in flight) and responses matched in order per
/// connection.
class ServeStage::Client {
 public:
  Client(int port, int connections) : port_(port), conns_(connections) {}
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) continue;
      c = Conn();
      c.fd = ConnectLoopback(port_);
      if (c.fd < 0) return false;
      fcntl_nonblock(c.fd);
    }
    return true;
  }

  void Close() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) close(c.fd);
      c = Conn();
    }
  }

  /// Per-request outcome of one phase.
  struct Outcome {
    std::vector<double> done;  // Now() at receipt; < 0 when not answered.
    /// HTTP status; 0 unanswered, kRefused, or kNotSent after give-up.
    std::vector<int> status;
    std::vector<double> lag;   // Send time minus due time.
    std::vector<std::pair<int64_t, std::string>> bodies;  // Verify sample.
    double client_cpu_s = 0.0;
    bool gave_up = false;
  };

  /// Sends each request when due until `deadline`. Once the oldest
  /// unanswered request is `give_up_after` seconds old the server is past
  /// capacity: the rest of the schedule is not sent (kNotSent) and the
  /// backlog drains, so an over-capacity step stays short and fails none.
  Outcome Run(const std::function<void(size_t, std::string*)>& append_request,
              const std::vector<double>& due, double deadline,
              double give_up_after) {
    const size_t n = due.size();
    Outcome out;
    out.done.assign(n, -1.0);
    out.status.assign(n, 0);
    out.lag.reserve(n);
    const double cpu0 = ThreadCpuSeconds();
    size_t next = 0;
    int64_t outstanding = 0;
    std::vector<pollfd> fds(conns_.size());
    while (true) {
      double now = Now();
      while (next < n && due[next] <= now) {
        Conn& c = conns_[next % conns_.size()];
        if (c.fd < 0) {
          out.status[next] = kRefused;
        } else {
          append_request(next, &c.out);
          c.inflight.push_back(static_cast<int64_t>(next));
          ++outstanding;
        }
        out.lag.push_back(now - due[next]);
        ++next;
      }
      for (Conn& c : conns_) Flush(&c, &out, &outstanding);
      for (const Conn& c : conns_) {
        if (next < n && !c.inflight.empty() &&
            now - due[static_cast<size_t>(c.inflight.front())] >
                give_up_after) {
          out.gave_up = true;
          for (; next < n; ++next) out.status[next] = kNotSent;
        }
      }
      if (next == n && outstanding == 0) break;
      if (now > deadline) break;
      // Busy-poll: a sleeping generator would add its own timer and
      // wake-up delays (tens of microseconds in a VM) to every latency.
      for (size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events = static_cast<short>(
            POLLIN | (conns_[i].out.size() > conns_[i].out_off ? POLLOUT : 0));
        fds[i].revents = 0;
      }
      poll(fds.data(), fds.size(), 0);
      for (size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
          Receive(&conns_[i], &out, &outstanding);
        }
      }
    }
    // Whatever is still in flight timed out; the connections are reset so
    // late answers cannot be matched to the next phase's requests.
    if (outstanding > 0) Close();
    out.client_cpu_s = ThreadCpuSeconds() - cpu0;
    return out;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::deque<int64_t> inflight;
  };

  static void fcntl_nonblock(int fd) {
    int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }

  void Fail(Conn* c, Outcome* out, int64_t* outstanding) {
    for (int64_t id : c->inflight) {
      out->status[static_cast<size_t>(id)] = kRefused;
    }
    *outstanding -= static_cast<int64_t>(c->inflight.size());
    close(c->fd);
    *c = Conn();
  }

  void Flush(Conn* c, Outcome* out, int64_t* outstanding) {
    while (c->fd >= 0 && c->out_off < c->out.size()) {
      ssize_t w = send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c->out_off += static_cast<size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (w < 0 && errno == EINTR) {
        continue;
      } else {
        Fail(c, out, outstanding);
      }
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
    }
  }

  void Receive(Conn* c, Outcome* out, int64_t* outstanding) {
    char buf[65536];
    while (c->fd >= 0) {
      ssize_t r = recv(c->fd, buf, sizeof(buf), 0);
      if (r > 0) {
        c->in.append(buf, static_cast<size_t>(r));
        continue;
      }
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (r < 0 && errno == EINTR) continue;
      Parse(c, out, outstanding);
      Fail(c, out, outstanding);  // Closed by the server.
      return;
    }
    Parse(c, out, outstanding);
  }

  /// Consumes every complete response at the front of the read buffer.
  void Parse(Conn* c, Outcome* out, int64_t* outstanding) {
    const double now = Now();
    size_t pos = 0;
    while (!c->inflight.empty()) {
      size_t header_end = c->in.find("\r\n\r\n", pos);
      if (header_end == std::string::npos) break;
      std::string_view head(c->in.data() + pos, header_end - pos);
      size_t cl = head.find("Content-Length: ");
      size_t length =
          cl == std::string_view::npos
              ? 0
              : static_cast<size_t>(std::strtoul(
                    std::string(head.substr(cl + 16, 12)).c_str(), nullptr,
                    10));
      size_t body = header_end + 4;
      if (c->in.size() < body + length) break;
      const int status = head.size() > 12 ? std::atoi(head.data() + 9) : 0;
      const int64_t id = c->inflight.front();
      c->inflight.pop_front();
      --*outstanding;
      out->done[static_cast<size_t>(id)] = now;
      out->status[static_cast<size_t>(id)] = status;
      if (id % kVerifyEvery == 0) {
        out->bodies.emplace_back(id, c->in.substr(body, length));
      }
      pos = body + length;
    }
    c->in.erase(0, pos);
  }

  int port_;
  std::vector<Conn> conns_;
};

ServeStage::~ServeStage() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  client_.reset();
  service_.reset();
}

std::unique_ptr<ServeStage> ServeStage::Start(
    const ServeSpec& spec, const cold::core::ColdEstimates& estimates,
    int top_communities, const cold::data::PostSplit& posts,
    const std::string& work_dir, uint64_t seed, bool inject_handler,
    Report* report) {
  std::unique_ptr<ServeStage> stage(new ServeStage());
  stage->spec_ = spec;
  stage->inject_handler_ = inject_handler;
  stage->seed_ = seed;
  stage->arena_path_ = work_dir + "/model.coldarn";
  stage->reference_ = std::make_unique<cold::core::ColdPredictor>(
      estimates, top_communities);

  double t0 = Now();
  cold::Status saved = cold::core::SaveArenaSnapshot(
      estimates, top_communities, stage->arena_path_);
  double t1 = Now();
  report->Check(saved.ok(), "arena save: " + saved.ToString());
  if (!saved.ok()) return nullptr;
  stage->arena_save_s_ = t1 - t0;
  SpanLog::Record("core.model_io.arena_save", t0, t1, 0, 0);

  cold::serve::ModelServiceOptions service_options;
  service_options.model_path = stage->arena_path_;
  service_options.top_communities = top_communities;
  service_options.num_replicas = kReplicas;
  stage->service_ =
      std::make_unique<cold::serve::ModelService>(service_options);
  cold::Status loaded = stage->service_->LoadFromFile(stage->arena_path_);
  double t2 = Now();
  report->Check(loaded.ok(), "arena load: " + loaded.ToString());
  if (!loaded.ok()) return nullptr;
  stage->arena_load_s_ = t2 - t1;
  SpanLog::Record("serve.arena_load", t1, t2, 0, 0);

  // The handler wrapper: times ModelService::Handle per request id and
  // hosts the self-test's injected delay.
  ServeStage* self = stage.get();
  cold::serve::HttpServerOptions server_options;
  server_options.num_reactors = kReactors;
  stage->server_ = std::make_unique<cold::serve::HttpServer>(
      server_options, [self](const cold::serve::HttpRequest& request) {
        const double h0 = Now();
        cold::serve::HttpResponse response = self->service_->Handle(request);
        if (self->inject_handler_) SpinFor(kInjectedSlowdown * (Now() - h0));
        const double h1 = Now();
        if (const std::string* rid = request.Header("x-request-id")) {
          const int64_t id = std::strtoll(rid->c_str(), nullptr, 10);
          const int64_t phase = id >> 32;
          const int64_t idx = id & 0xffffffffLL;
          if (phase >= 0 && phase < kMaxPhases &&
              idx < self->handler_slots_[phase].load(
                        std::memory_order_acquire)) {
            self->handler_us_[phase][static_cast<size_t>(idx)].store(
                static_cast<float>((h1 - h0) * 1e6),
                std::memory_order_relaxed);
            if (idx % kSpanEvery == 0) {
              SpanLog::Record("serve.handler", h0, h1, 0, id);
            }
          }
        }
        return response;
      });
  cold::Status started = stage->server_->Start();
  report->Check(started.ok(), "server start: " + started.ToString());
  if (!started.ok()) return nullptr;
  stage->client_ =
      std::make_unique<Client>(stage->server_->port(), kConnections);
  report->Check(stage->client_->Connect(), "client connect");

  // The query pool.
  std::mt19937_64 rng(seed ^ 0x5eed5e7eULL);
  const cold::text::PostStore& source =
      spec.mix == Mix::kHot ? posts.train : posts.test;
  std::vector<cold::text::PostId> ids;
  for (cold::text::PostId d = 0; d < source.num_posts(); ++d) {
    if (source.length(d) > 0) ids.push_back(d);
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  if (spec.mix == Mix::kHot && ids.size() > kHotPosts) {
    ids.resize(kHotPosts);
  }
  double cumulative = 0.0;
  for (size_t r = 0; r < ids.size(); ++r) {
    stage->pool_.push_back(PoolPost{ids[r], source.author(ids[r]),
                                    WordsJson(source.words(ids[r]))});
    cumulative += spec.mix == Mix::kHot
                      ? 1.0 / static_cast<double>(r + 1)  // Zipf, s = 1.
                      : 1.0;
    stage->query_weights_.push_back(cumulative);
  }
  stage->posts_ = &source;
  return stage;
}

PhaseResult ServeStage::RunPhase(double rps, double seconds, bool measured,
                                 Report* report) {
  PhaseResult result;
  result.offered_rps = rps;
  result.seconds = seconds;
  const int phase = phase_index_++;
  if (phase >= kMaxPhases) {
    report->Check(false, "too many serving phases");
    return result;
  }
  // The schedule and the requests come from the seed and the phase number.
  // Requests are kept as compact plans and written out only when due, so a
  // phase of a million requests stays small.
  std::mt19937_64 rng(seed_ * 1000003ULL + static_cast<uint64_t>(phase));
  std::exponential_distribution<double> gap(rps);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> due;
  std::vector<Planned> plans;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    due.push_back(t);
    Planned plan;
    const double pick = unit(rng) * query_weights_.back();
    plan.pool = static_cast<uint32_t>(std::min<size_t>(
        std::lower_bound(query_weights_.begin(), query_weights_.end(), pick) -
            query_weights_.begin(),
        pool_.size() - 1));
    if (spec_.mix == Mix::kMixed) {
      const double mix = unit(rng);
      plan.type = mix < 0.5    ? QueryType::kFanout
                  : mix < 0.7  ? QueryType::kPosterior
                  : mix < 0.85 ? QueryType::kTimestamp
                               : QueryType::kLink;
    }
    plan.salt = rng();
    plans.push_back(plan);
  }
  const size_t n = due.size();

  handler_us_[phase] = std::make_unique<std::atomic<float>[]>(n);
  for (size_t i = 0; i < n; ++i) {
    handler_us_[phase][i].store(-1.0f, std::memory_order_relaxed);
  }
  handler_slots_[phase].store(static_cast<int64_t>(n),
                              std::memory_order_release);

  if (!client_->Connect()) report->Check(false, "client reconnect");
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = Now() + 1e-3;
  for (double& d : due) d += t0;
  const int64_t id_base = static_cast<int64_t>(phase) << 32;
  const Client::Outcome out = client_->Run(
      [&](size_t i, std::string* buffer) {
        AppendRequest(plans[i], id_base | static_cast<int64_t>(i), buffer);
      },
      due, t0 + seconds + kHardTimeoutS,
      measured ? kMeasuredGiveUpS : std::max(0.1, 0.025 * spec_.slo_p99_ms));
  result.server_cpu_s = ProcessCpuSeconds() - cpu0 - out.client_cpu_s;

  // Over capacity: the server has not answered 99% of the offered
  // requests shortly after the schedule ends.
  const double on_time =
      t0 + seconds +
      std::max({0.02, 5e-3 * spec_.slo_p99_ms,
                measured ? kMeasuredGrace * seconds : 0.0});
  for (size_t i = 0; i < n; ++i) {
    const int status = out.status[i];
    if (status == kNotSent) continue;
    ++result.sent;
    if (status >= 200 && status < 300) {
      ++result.completed;
      if (out.done[i] <= on_time) ++result.completed_on_time;
      const double latency_us = (out.done[i] - due[i]) * 1e6;
      result.latency_ms.push_back(latency_us * 1e-3);
      const float handler = handler_us_[phase][i].load(std::memory_order_relaxed);
      if (handler >= 0.0f) {
        result.handler_us.push_back(handler);
        result.transport_us.push_back(latency_us - handler);
      }
      if (measured && static_cast<int64_t>(i) % kSpanEvery == 0) {
        SpanLog::Record("client.request", due[i], out.done[i], 0,
                        id_base | static_cast<int64_t>(i));
      }
    } else {
      ++result.failed;
    }
  }
  result.over_capacity =
      out.gave_up ||
      static_cast<double>(result.completed_on_time) <
      0.99 * static_cast<double>(result.sent);
  result.p50_ms = Quantile(result.latency_ms, 0.5);
  result.p99_ms = Quantile(result.latency_ms, 0.99);
  std::vector<double> lag_ms;
  lag_ms.reserve(out.lag.size());
  for (double l : out.lag) lag_ms.push_back(l * 1e3);
  result.generator_lag_p99_ms = Quantile(lag_ms, 0.99);

  std::vector<std::pair<Query, std::string>> samples;
  for (const auto& [id, body] : out.bodies) {
    if (out.status[static_cast<size_t>(id)] != 200) continue;
    samples.emplace_back(Materialize(plans[static_cast<size_t>(id)]), body);
  }
  Verify(samples, &result, report);
  return result;
}

void ServeStage::Verify(
    const std::vector<std::pair<Query, std::string>>& samples,
    PhaseResult* result, Report* report) {
  auto same_array = [](const cold::serve::Json* arr,
                       const std::vector<double>& want) {
    if (arr == nullptr || !arr->is_array()) return false;
    const auto& got = arr->as_array();
    if (got.size() != want.size()) return false;
    for (size_t i = 0; i < want.size(); ++i) {
      if (!got[i].is_number() || got[i].as_number() != want[i]) return false;
    }
    return true;
  };
  for (const auto& [q, body] : samples) {
    auto parsed = cold::serve::Json::Parse(body);
    bool ok = parsed.ok();
    if (ok) {
      const cold::serve::Json& json = *parsed;
      const auto words = posts_->words(q.post);
      switch (q.type) {
        case QueryType::kDiffusion: {
          const auto posterior = reference_->TopicPosterior(words, q.author);
          const cold::serve::Json* p = json.Find("probability");
          ok = p != nullptr && p->is_number() &&
               p->as_number() == reference_->DiffusionFromPosterior(
                                     q.author, q.candidates[0], posterior);
          break;
        }
        case QueryType::kFanout: {
          const auto posterior = reference_->TopicPosterior(words, q.author);
          std::vector<double> want;
          for (int32_t c : q.candidates) {
            want.push_back(
                reference_->DiffusionFromPosterior(q.author, c, posterior));
          }
          ok = same_array(json.Find("probabilities"), want);
          break;
        }
        case QueryType::kPosterior:
          ok = same_array(json.Find("posterior"),
                          reference_->TopicPosterior(words, q.author));
          break;
        case QueryType::kTimestamp:
          ok = same_array(json.Find("scores"),
                          reference_->TimestampScores(words, q.author));
          break;
        case QueryType::kLink: {
          const cold::serve::Json* p = json.Find("probability");
          ok = p != nullptr && p->is_number() &&
               p->as_number() ==
                   reference_->LinkProbability(q.author, q.candidates[0]);
          break;
        }
      }
    }
    report->Check(ok, "served response differs from ColdPredictor: " + body);
    ++result->verified;
  }
}

ServeStats ServeStage::Run(double seconds, bool replay, Report* report) {
  ServeStats stats;
  stats.arena_save_s = arena_save_s_;
  stats.arena_load_s = arena_load_s_;

  // Hot reloads of the arena while the mixed workload's phases run: an
  // operator's POST /admin/reload every 200 ms on a connection of its own.
  std::atomic<bool> stop_reloads{false};
  std::atomic<int64_t> reload_attempts{0}, reload_failures{0};
  std::thread reloader;
  if (spec_.mix == Mix::kMixed) {
    reloader = std::thread([&] {
      const int fd = ConnectLoopback(server_->port());
      if (fd >= 0) {
        timeval timeout{static_cast<time_t>(kHardTimeoutS), 0};
        setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
      }
      double next = Now() + kReloadPeriodS;
      while (!stop_reloads.load()) {
        // Sleep to the next reload in one go, but wake at least every 50 ms
        // so that the end of the serving stage is not held up.
        const double wait = std::min(next - Now(), 0.05);
        if (wait > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          continue;
        }
        next += kReloadPeriodS;
        ++reload_attempts;
        if (fd < 0 || !PostReload(fd)) ++reload_failures;
      }
      if (fd >= 0) close(fd);
    });
  }

  // Budget: warm-up 5%, light 25%, heavy 25%, ladder 45% in about
  // kLadderSteps steps.
  RunPhase(spec_.light_rps, 0.05 * seconds, false, report);
  auto& registry = cold::obs::Registry::Global();
  const cold::obs::TelemetrySnapshot before = registry.Snapshot();
  stats.light = RunPhase(spec_.light_rps, 0.25 * seconds, true, report);
  stats.heavy = RunPhase(spec_.heavy_rps, 0.25 * seconds, true, report);
  const cold::obs::TelemetrySnapshot after = registry.Snapshot();
  // Memory high-water mark through set-up, training and the fixed-rate
  // phases; the ladder's client buffers scale with the rates it reaches.
  stats.peak_rss_mb = PeakRssMb();
  // The fixed rates are latency samples only when the server keeps up.
  for (const PhaseResult* p : {&stats.light, &stats.heavy}) {
    report->Check(!p->over_capacity,
                  "fixed-rate phase over capacity at " +
                      std::to_string(static_cast<int64_t>(p->offered_rps)) +
                      " req/s");
  }

  const double step_s = 0.45 * seconds / kLadderSteps;
  auto passes = [&](double rps) {
    PhaseResult r = RunPhase(rps, step_s, false, report);
    const bool pass =
        !r.over_capacity && r.failed == 0 && r.p99_ms <= spec_.slo_p99_ms;
    stats.ladder.push_back(std::move(r));
    return pass;
  };
  // Bracket the limit by factors of 1.5 from the heavy rate, then bisect
  // geometrically four times (resolution under 3%).
  double lo = 0.0, hi = 0.0;
  double rate = spec_.heavy_rps;
  for (int i = 0; i < 8 && (lo == 0.0 || hi == 0.0); ++i) {
    if (passes(rate)) {
      lo = rate;
      rate *= 1.5;
    } else {
      hi = rate;
      rate /= 1.5;
    }
  }
  if (lo > 0.0 && hi > 0.0) {
    for (int i = 0; i < 4; ++i) {
      const double mid = std::sqrt(lo * hi);
      (passes(mid) ? lo : hi) = mid;
    }
  }
  // If no rate passed, the lowest rate tried bounds slo_rps from above.
  stats.slo_rps = lo > 0.0 ? lo : rate;
  if (lo == 0.0) {
    std::fprintf(stderr, "perfbench: no offered rate met the limit\n");
  }

  stop_reloads.store(true);
  if (reloader.joinable()) reloader.join();
  stats.reload_attempts = reload_attempts.load();
  stats.reload_failures = reload_failures.load();

  auto delta = [&](const std::string& name) {
    return CounterSum(after, name) - CounterSum(before, name);
  };
  stats.cache_hits = delta("cold/serve/cache_hits");
  stats.cache_misses = delta("cold/serve/cache_misses");
  stats.batches = delta("cold/serve/batches");
  stats.batched_requests = delta("cold/serve/batched_requests");
  stats.reloads = delta("cold/serve/reloads");
  stats.shed_total = delta("cold/serve/shed_total");
  stats.errors = delta("cold/serve/errors");
  const auto* swap_after = FindHistogram(after, "cold/serve/reload_swap_seconds");
  const auto* swap_before =
      FindHistogram(before, "cold/serve/reload_swap_seconds");
  if (swap_after != nullptr && stats.reloads > 0.0) {
    std::vector<int64_t> counts = swap_after->bucket_counts;
    for (size_t i = 0; swap_before != nullptr && i < counts.size(); ++i) {
      counts[i] -= swap_before->bucket_counts[i];
    }
    stats.reload_swap_p99_us =
        cold::obs::EstimateQuantile(swap_after->upper_bounds, counts, 0.99) *
        1e6;
  }

  for (const PhaseResult* p : {&stats.light, &stats.heavy}) {
    stats.attempted += p->sent;
    stats.failed += p->failed;
  }
  for (const PhaseResult& p : stats.ladder) {
    stats.attempted += p.sent;
    stats.failed += p.failed;
  }
  stats.attempted += stats.reload_attempts;
  stats.failed += stats.reload_failures;
  if (replay) ReplayPredictor(&stats);
  return stats;
}

void ServeStage::ReplayPredictor(ServeStats* stats) {
  // The workload's own query posts, each call type timed on its own.
  const size_t n = std::min<size_t>(pool_.size(), 2000);
  const cold::core::ColdPredictor& p = *reference_;
  std::vector<Query> queries;
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(Materialize(Planned{static_cast<uint32_t>(i),
                                          QueryType::kDiffusion, i}));
  }
  std::vector<std::vector<double>> posteriors(n);
  double sink = 0.0;
  double t0 = Now();
  for (size_t i = 0; i < n; ++i) {
    posteriors[i] =
        p.TopicPosterior(posts_->words(queries[i].post), queries[i].author);
  }
  double t1 = Now();
  for (size_t i = 0; i < n; ++i) {
    sink += p.DiffusionFromPosterior(queries[i].author,
                                     queries[i].candidates[0], posteriors[i]);
  }
  double t2 = Now();
  for (size_t i = 0; i < n; ++i) {
    sink += p.TimestampScores(posts_->words(queries[i].post),
                              queries[i].author)[0];
  }
  double t3 = Now();
  for (size_t i = 0; i < n; ++i) {
    sink += p.LinkProbability(queries[i].author, queries[i].candidates[0]);
  }
  double t4 = Now();
  const double per = 1e6 / static_cast<double>(std::max<size_t>(n, 1));
  stats->posterior_us = (t1 - t0) * per;
  stats->diffusion_us = (t2 - t1) * per;
  stats->timestamp_us = (t3 - t2) * per;
  stats->link_us = (t4 - t3) * per;
  SpanLog::Record("core.predictor.posterior", t0, t1, 0, 0);
  SpanLog::Record("core.predictor.diffusion", t1, t2, 0, 0);
  SpanLog::Record("core.predictor.timestamp", t2, t3, 0, 0);
  SpanLog::Record("core.predictor.link", t3, t4, 0, 0);
  g_replay_sink = sink;
}

}  // namespace perfbench
