// The campaign service's HTTP front end: a small, strict HTTP/1.1 + JSON
// API over util::http, one exchange per connection.
//
//   GET  /healthz                 liveness + queue depth
//   GET  /metrics                 Prometheus text exposition (the one
//                                 non-JSON route)
//   POST /v1/jobs                 submit a job (JobSpec body) -> 202
//   GET  /v1/jobs                 list all jobs
//   GET  /v1/jobs/<id>            one job's status/progress
//   GET  /v1/jobs/<id>/results    per-scenario summaries + validation
//   GET  /v1/jobs/<id>/events     event stream page (NDJSON; the other
//                                 non-JSON route). ?since=SEQ resumes a
//                                 cursor, ?wait=MS long-polls (bounded)
//   POST /v1/jobs/<id>/cancel     request cancellation (idempotent)
//
// Every response is JSON; failures are {"error":{"code":N,"message":..}}.
// Query strings are accepted only where they mean something — the events
// route; everywhere else they are rejected with 400, like every other
// target irregularity.
// Admission outcomes map onto status codes — 202 accepted, 400 invalid,
// 404 unknown id/route, 405 wrong method, 409 duplicate id, 413/431 too
// large, 408 stalled peer, 429 queue full, 501 unsupported framing, 503
// shutting down — and a request that violates the HTTP grammar in any way
// gets a well-formed error response (or, for a peer that sent nothing, a
// silent close), never a crash or a hung connection: the adversarial
// corpus in tests/serve/test_serve_adversarial.cpp drives exactly these
// paths against a live server.
//
// Threading: one accept thread feeds a bounded connection queue drained
// by a small pool of handler threads (requests are tiny; the real work
// happens asynchronously in the JobScheduler). When the queue is full the
// accept thread answers 503 inline instead of queueing unboundedly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/scheduler.hpp"
#include "util/http.hpp"
#include "util/socket.hpp"

namespace wsnex::serve {

struct ServerOptions {
  std::uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port
  util::HttpLimits limits;
  /// One structured line per handled request (request id, method, route,
  /// status, response bytes, duration), emitted through util::logging at
  /// INFO — callers enabling this should make sure the log level admits
  /// INFO. The request id is also stamped into the job_queued event of a
  /// submission it carried, so event streams correlate back to log lines.
  bool access_log = false;
};

class HttpServer {
 public:
  /// Binds the listener (so port() is final) but serves nothing until
  /// start(). Throws util::SocketError when the port is taken.
  HttpServer(JobScheduler& scheduler, ServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  void start();
  /// Stops accepting, drains queued connections with 503, joins. Safe to
  /// call twice; the destructor calls it.
  void stop();

 private:
  void accept_loop();
  void handler_loop();
  void handle_connection(util::TcpStream stream);
  /// Writes the response, then settles the request's metrics (route and
  /// status counters, latency histogram) and optional access-log line.
  void respond(util::TcpStream& stream, const util::HttpResponse& response,
               const std::string& method, const std::string& target,
               const std::string& route, const std::string& request_id,
               double start_s);
  util::HttpResponse route(const util::HttpRequest& request,
                           const std::string& request_id);
  util::HttpResponse handle_submit(const util::HttpRequest& request,
                                   const std::string& request_id);

  JobScheduler& scheduler_;
  ServerOptions options_;
  util::TcpListener listener_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<util::TcpStream> pending_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread acceptor_;
  std::vector<std::thread> handlers_;
  /// Monotone per-process request id source ("req-<n>" in the access log).
  std::atomic<std::uint64_t> next_request_id_{0};
};

/// {"error":{"code":status,"message":message}} with the matching status.
util::HttpResponse error_response(int status, const std::string& message);

}  // namespace wsnex::serve
