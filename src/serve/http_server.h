// HTTP/1.1 server front for the prediction service: a non-blocking epoll
// event loop (event_loop.cc). The listener thread accepts and round-robins
// connections across N reactor threads; each reactor owns one
// edge-triggered epoll fd plus the read/write buffers and parser state
// machine of every connection assigned to it, so thousands of keep-alive
// connections cost two buffers each instead of a parked thread. Idle
// connections are reaped on a timer (cold/serve/idle_closes), overload is
// shed with 503 + Retry-After straight from the accept path, and graceful
// drain flushes in-flight responses before closing.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "serve/http.h"
#include "util/status.h"

namespace cold::serve {

/// \brief Server knobs; defaults favor tests (ephemeral port, loopback).
struct HttpServerOptions {
  /// 0 picks an ephemeral port; read it back via port() after Start().
  int port = 0;
  /// Reactor threads; 0 sizes to min(hardware threads, 16).
  int num_reactors = 0;
  /// Seconds a keep-alive connection may sit idle before being closed by
  /// the reaper sweep. Counted by cold/serve/idle_closes.
  int idle_timeout_seconds = 5;
  /// Seconds Stop() waits for in-flight requests before force-closing.
  int drain_timeout_seconds = 10;
  /// Load shedding: when more than this many connections are already being
  /// serviced, new ones are answered straight from the accept path with
  /// 503 + Retry-After (0 = no shedding). Counted by cold/serve/shed_total.
  size_t max_inflight_requests = 0;
  /// Cap on a connection's unflushed response bytes; while above it,
  /// further pipelined requests are left unparsed in the read buffer
  /// (backpressure on slow readers). Writes never block a reactor, so this
  /// cap, the read-backlog cap of two maximal requests and the idle reaper
  /// are what bound a client that stops reading.
  size_t max_buffered_out_bytes = 4u << 20;
  HttpLimits limits;
};

/// \brief The request handler: pure function of the parsed request.
/// Invoked concurrently from reactor threads; must be thread-safe.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  HttpServer(HttpServerOptions options, HttpHandler handler);
  /// Stops the server if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// \brief Binds 127.0.0.1:port and starts the listener and reactors.
  cold::Status Start();

  /// \brief Graceful shutdown: stops accepting, waits up to
  /// drain_timeout_seconds for open connections to finish their in-flight
  /// request, then force-closes stragglers and joins all threads.
  /// Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  int port() const;

  bool running() const;

  /// Connections currently being serviced (observability/tests).
  int active_connections() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cold::serve
