#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/clock.hpp"
#include "util/events.hpp"
#include "util/logging.hpp"
#include "util/metrics.hpp"

namespace wsnex::serve {

namespace {

/// Sized so a couple of long-polling events watchers (GET .../events with
/// ?wait=) cannot starve the control plane.
constexpr std::size_t kHandlerThreads = 4;
/// Accepted-but-unhandled connection bound; beyond it new connections are
/// answered 503 immediately.
constexpr std::size_t kMaxPendingConnections = 16;

util::HttpResponse json_response(int status, const util::Json& body) {
  return util::HttpResponse(status, body.dump() + "\n");
}

/// Label-safe method name; anything beyond the verbs this API routes is
/// folded so a scanner cannot mint unbounded label values.
const char* method_label(const std::string& method) {
  if (method == "GET") return "GET";
  if (method == "POST") return "POST";
  if (method == "PUT") return "PUT";
  if (method == "DELETE") return "DELETE";
  if (method == "HEAD") return "HEAD";
  return "other";
}

util::metrics::Histogram& request_seconds() {
  return util::metrics::Registry::instance().histogram(
      "wsnex_http_request_seconds",
      "Request latency, connection claim to response written",
      util::metrics::default_latency_bounds());
}

/// An origin-form target split into path segments and query string
/// ("/v1/jobs/x/events?since=3" -> {["v1","jobs","x","events"],
/// "since=3"}). Empty segments ("//"), ".."/"." segments and fragments
/// all yield nullopt — this API has no use for any of them, and rejecting
/// beats normalizing. Queries are only *split off* here; route() rejects
/// them with 400 on every route except the one that defines query
/// parameters (the events stream).
struct TargetParts {
  std::vector<std::string> segments;
  std::string query;       ///< without the '?'; empty when absent
  bool has_query = false;  ///< distinguishes "/x?" from "/x"
};

std::optional<TargetParts> split_target(const std::string& target) {
  if (target.empty() || target[0] != '/') return std::nullopt;
  if (target.find('#') != std::string::npos) return std::nullopt;
  TargetParts parts;
  std::string path = target;
  const std::size_t question = target.find('?');
  if (question != std::string::npos) {
    parts.has_query = true;
    parts.query = target.substr(question + 1);
    if (parts.query.find('?') != std::string::npos) return std::nullopt;
    path = target.substr(0, question);
  }
  std::size_t begin = 1;
  while (begin <= path.size()) {
    const std::size_t end = path.find('/', begin);
    const std::string segment =
        path.substr(begin, end == std::string::npos ? std::string::npos
                                                    : end - begin);
    if (end == std::string::npos && segment.empty() &&
        parts.segments.empty()) {
      return parts;  // bare "/"
    }
    if (segment.empty() || segment == "." || segment == "..") {
      return std::nullopt;
    }
    parts.segments.push_back(segment);
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return parts;
}

bool is_events_route(const std::vector<std::string>& path) {
  return path.size() == 4 && path[0] == "v1" && path[1] == "jobs" &&
         path[3] == "events";
}

/// Parses the events query ("since=N", "wait=MS", '&'-joined, each at
/// most once). Returns false (with a message) on anything else — the
/// strictness the rest of the target grammar applies. `wait` is clamped
/// to 30 s so a watcher cannot park a handler thread indefinitely.
bool parse_events_query(const std::string& query, std::uint64_t* since,
                        int* wait_ms, std::string* error) {
  *since = 0;
  *wait_ms = 0;
  bool saw_since = false;
  bool saw_wait = false;
  std::size_t begin = 0;
  while (begin <= query.size()) {
    if (begin == query.size()) break;
    const std::size_t end = query.find('&', begin);
    const std::string pair = query.substr(
        begin, end == std::string::npos ? std::string::npos : end - begin);
    const std::size_t eq = pair.find('=');
    const std::string key = pair.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : pair.substr(eq + 1);
    const bool numeric =
        !value.empty() && value.size() <= 18 &&
        value.find_first_not_of("0123456789") == std::string::npos;
    if (key == "since" && !saw_since && numeric) {
      saw_since = true;
      *since = std::stoull(value);
    } else if (key == "wait" && !saw_wait && numeric) {
      saw_wait = true;
      *wait_ms = static_cast<int>(
          std::min<unsigned long long>(std::stoull(value), 30000));
    } else {
      *error = "events query accepts since=<seq> and wait=<ms> only";
      return false;
    }
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  return true;
}

/// Collapses a request target onto the fixed route set for metric labels
/// ("/v1/jobs/abc123" -> "/v1/jobs/{id}"); unknown shapes fold to "other"
/// so a scanner cannot mint unbounded label values.
std::string route_pattern(const std::string& target) {
  const std::optional<TargetParts> parts = split_target(target);
  if (!parts) return "other";
  const std::vector<std::string>& path = parts->segments;
  if (parts->has_query && !is_events_route(path)) return "other";
  if (path.size() == 1 && path[0] == "healthz") return "/healthz";
  if (path.size() == 1 && path[0] == "metrics") return "/metrics";
  if (path.size() >= 2 && path[0] == "v1" && path[1] == "jobs") {
    if (path.size() == 2) return "/v1/jobs";
    if (path.size() == 3) return "/v1/jobs/{id}";
    if (path.size() == 4 && path[3] == "results") {
      return "/v1/jobs/{id}/results";
    }
    if (path.size() == 4 && path[3] == "events") return "/v1/jobs/{id}/events";
    if (path.size() == 4 && path[3] == "cancel") return "/v1/jobs/{id}/cancel";
  }
  return "other";
}

util::HttpResponse admission_response(
    const JobScheduler::Admission& admission) {
  using Code = JobScheduler::Admission::Code;
  switch (admission.code) {
    case Code::kAccepted: {
      util::Json body = util::Json::object();
      body.set("id", admission.id);
      body.set("state", "queued");
      return json_response(202, body);
    }
    case Code::kQueueFull:
      return error_response(429, admission.message);
    case Code::kDuplicate:
      return error_response(409, admission.message);
    case Code::kStopping:
      return error_response(503, admission.message);
    case Code::kInvalid:
      break;
  }
  return error_response(400, admission.message);
}

}  // namespace

util::HttpResponse error_response(int status, const std::string& message) {
  util::Json error = util::Json::object();
  error.set("code", status);
  error.set("message", message);
  util::Json body = util::Json::object();
  body.set("error", std::move(error));
  return json_response(status, body);
}

HttpServer::HttpServer(JobScheduler& scheduler, ServerOptions options)
    : scheduler_(scheduler), options_(std::move(options)) {
  listener_ = util::TcpListener::listen_loopback(options_.port);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  std::lock_guard<std::mutex> lk(mutex_);
  if (started_ || stopping_) return;
  started_ = true;
  acceptor_ = std::thread([this] { accept_loop(); });
  handlers_.reserve(kHandlerThreads);
  for (std::size_t i = 0; i < kHandlerThreads; ++i) {
    handlers_.emplace_back([this] { handler_loop(); });
  }
}

void HttpServer::stop() {
  std::thread acceptor;
  std::vector<std::thread> handlers;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) return;
    stopping_ = true;
    acceptor = std::move(acceptor_);
    handlers.swap(handlers_);
    cv_.notify_all();
  }
  // The acceptor polls with a 200 ms timeout and re-checks stopping_, so
  // it exits on its own; closing the listener only after the join keeps
  // close() from racing a concurrent accept() on the same fd.
  if (acceptor.joinable()) acceptor.join();
  listener_.close();
  if (!handlers.empty()) {
    for (std::thread& handler : handlers) handler.join();
  }
  // Anything still queued gets a clean 503 instead of a silent RST.
  std::deque<util::TcpStream> pending;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    pending.swap(pending_);
  }
  for (util::TcpStream& stream : pending) {
    stream.set_timeout_ms(options_.limits.io_timeout_ms);
    util::write_http_response(
        stream, error_response(503, "service is shutting down"));
  }
}

void HttpServer::accept_loop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (stopping_) return;
    }
    std::optional<util::TcpStream> stream = listener_.accept(200);
    if (!stream) continue;
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_) {
      // stop() already drained the queue; answer inline.
      stream->set_timeout_ms(options_.limits.io_timeout_ms);
      util::write_http_response(
          *stream, error_response(503, "service is shutting down"));
      return;
    }
    if (pending_.size() >= kMaxPendingConnections) {
      stream->set_timeout_ms(options_.limits.io_timeout_ms);
      util::write_http_response(
          *stream,
          error_response(503, "too many pending connections; retry"));
      continue;
    }
    pending_.push_back(std::move(*stream));
    cv_.notify_one();
  }
}

void HttpServer::handler_loop() {
  for (;;) {
    util::TcpStream stream;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      stream = std::move(pending_.front());
      pending_.pop_front();
    }
    handle_connection(std::move(stream));
  }
}

void HttpServer::handle_connection(util::TcpStream stream) {
  const double start = util::now_s();
  const std::string request_id =
      "req-" + std::to_string(
                   next_request_id_.fetch_add(1, std::memory_order_relaxed) +
                   1);
  stream.set_timeout_ms(options_.limits.io_timeout_ms);
  const util::HttpReadResult read =
      util::read_http_request(stream, options_.limits);
  if (!read.request) {
    util::HttpResponse response;
    switch (read.error) {
      case util::HttpReadError::kClosed:
        return;  // peer connected and left; nothing to answer
      case util::HttpReadError::kHeadersTooLarge:
        response = error_response(431, "request headers too large");
        break;
      case util::HttpReadError::kBodyTooLarge:
        response = error_response(413, "request body too large");
        break;
      case util::HttpReadError::kUnsupported:
        response =
            error_response(501, "unsupported transfer framing or version");
        break;
      case util::HttpReadError::kTimeout:
        response = error_response(408, "timed out reading request");
        break;
      case util::HttpReadError::kMalformed:
      case util::HttpReadError::kTruncated:
        response = error_response(400, std::string("malformed request: ") +
                                           util::to_string(read.error));
        break;
    }
    // Unreadable requests carry no trustworthy method/target; they are
    // accounted (and access-logged) under a sentinel route so rejected
    // traffic still shows up on the daemon side.
    respond(stream, response, "-", "-", "unreadable", request_id, start);
    return;
  }

  util::HttpResponse response;
  try {
    response = route(*read.request, request_id);
  } catch (const std::exception& e) {
    // Routing must not leak exceptions to the connection loop; anything
    // unexpected is this server's bug, reported as such.
    WSNEX_ERROR() << "serve: unhandled error for " << read.request->method
                  << " " << read.request->target << ": " << e.what();
    response = error_response(500, "internal error");
  }
  respond(stream, response, read.request->method, read.request->target,
          route_pattern(read.request->target), request_id, start);
}

void HttpServer::respond(util::TcpStream& stream,
                         const util::HttpResponse& response,
                         const std::string& method, const std::string& target,
                         const std::string& route,
                         const std::string& request_id, double start_s) {
  util::write_http_response(stream, response);
  const double elapsed = util::now_s() - start_s;

  auto& registry = util::metrics::Registry::instance();
  registry
      .counter("wsnex_http_requests_total", "Requests by route and method",
               "route=\"" + route + "\",method=\"" +
                   method_label(method) + "\"")
      .inc();
  registry
      .counter("wsnex_http_responses_total", "Responses by status code",
               "status=\"" + std::to_string(response.status) + "\"")
      .inc();
  static auto& seconds = request_seconds();
  seconds.observe(elapsed);

  if (options_.access_log) {
    char duration[32];
    std::snprintf(duration, sizeof(duration), "%.3f", elapsed * 1e3);
    util::log(util::LogLevel::kInfo,
              "access req=" + request_id + " method=" + method + " target=" +
                  target + " route=" + route +
                  " status=" + std::to_string(response.status) +
                  " bytes=" + std::to_string(response.body.size()) +
                  " duration_ms=" + duration);
  }
}

util::HttpResponse HttpServer::route(const util::HttpRequest& request,
                                     const std::string& request_id) {
  const std::optional<TargetParts> parts = split_target(request.target);
  if (!parts) {
    return error_response(400, "unsupported request target");
  }
  const std::vector<std::string>& path = parts->segments;
  // Queries only mean something on the events stream; anywhere else they
  // are a malformed target, same as "//" or "..".
  if (parts->has_query && !is_events_route(path)) {
    return error_response(400, "unsupported request target");
  }

  if (path.size() == 1 && path[0] == "healthz") {
    if (request.method != "GET") {
      return error_response(405, "healthz supports GET only");
    }
    util::Json body = util::Json::object();
    body.set("status", "ok");
    body.set("active_jobs", scheduler_.active_jobs());
    body.set("total_jobs", scheduler_.total_jobs());
    return json_response(200, body);
  }

  if (path.size() == 1 && path[0] == "metrics") {
    if (request.method != "GET") {
      return error_response(405, "metrics supports GET only");
    }
    util::HttpResponse response;
    response.status = 200;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = util::metrics::Registry::instance().prometheus_text();
    return response;
  }

  if (path.size() >= 2 && path[0] == "v1" && path[1] == "jobs") {
    if (path.size() == 2) {
      if (request.method == "POST") return handle_submit(request, request_id);
      if (request.method == "GET") {
        util::Json jobs = util::Json::array();
        for (const JobProgress& progress : scheduler_.list()) {
          jobs.push_back(progress.to_json());
        }
        util::Json body = util::Json::object();
        body.set("jobs", std::move(jobs));
        return json_response(200, body);
      }
      return error_response(405, "/v1/jobs supports GET and POST");
    }
    const std::string& id = path[2];
    if (path.size() == 3) {
      if (request.method != "GET") {
        return error_response(405, "job status supports GET only");
      }
      const std::optional<JobProgress> progress = scheduler_.status(id);
      if (!progress) return error_response(404, "unknown job \"" + id + "\"");
      return json_response(200, progress->to_json());
    }
    if (path.size() == 4 && path[3] == "results") {
      if (request.method != "GET") {
        return error_response(405, "job results supports GET only");
      }
      const std::optional<util::Json> results = scheduler_.results(id);
      if (!results) return error_response(404, "unknown job \"" + id + "\"");
      return json_response(200, *results);
    }
    if (path.size() == 4 && path[3] == "events") {
      if (request.method != "GET") {
        return error_response(405, "job events supports GET only");
      }
      std::uint64_t since = 0;
      int wait_ms = 0;
      std::string query_error;
      if (!parse_events_query(parts->query, &since, &wait_ms, &query_error)) {
        return error_response(400, query_error);
      }
      const std::shared_ptr<util::events::EventRing> ring =
          scheduler_.events(id);
      if (!ring) return error_response(404, "unknown job \"" + id + "\"");
      std::vector<util::events::Event> batch;
      std::uint64_t dropped = 0;
      std::uint64_t next = ring->read_since(since, batch, &dropped);
      if (batch.empty() && wait_ms > 0) {
        // Long poll: park (bounded) until something newer is published,
        // then page again. Dropped events are accounted, never blocked
        // on — the ring stays bounded whatever the reader does.
        ring->wait_for(since, static_cast<double>(wait_ms) / 1000.0);
        next = ring->read_since(since, batch, &dropped);
      }
      util::Json meta = util::Json::object();
      meta.set("since", static_cast<std::int64_t>(since));
      meta.set("next", static_cast<std::int64_t>(next));
      meta.set("dropped", static_cast<std::int64_t>(dropped));
      util::HttpResponse response;
      response.status = 200;
      response.content_type = "application/x-ndjson";
      response.body = meta.dump() + "\n" + util::events::events_to_jsonl(batch);
      return response;
    }
    if (path.size() == 4 && path[3] == "cancel") {
      if (request.method != "POST") {
        return error_response(405, "job cancel supports POST only");
      }
      const std::optional<JobProgress> progress = scheduler_.cancel(id);
      if (!progress) return error_response(404, "unknown job \"" + id + "\"");
      return json_response(200, progress->to_json());
    }
  }

  return error_response(404, "no such endpoint: " + request.target);
}

util::HttpResponse HttpServer::handle_submit(const util::HttpRequest& request,
                                             const std::string& request_id) {
  util::Json body;
  try {
    body = util::Json::parse(request.body);
  } catch (const util::JsonParseError& e) {
    return error_response(400, std::string("invalid JSON body: ") + e.what());
  }
  JobSpec spec;
  try {
    spec = JobSpec::from_json(body);
  } catch (const std::exception& e) {
    return error_response(400, e.what());
  }
  return admission_response(scheduler_.submit(std::move(spec), request_id));
}

}  // namespace wsnex::serve
