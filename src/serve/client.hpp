// Thin typed client for the campaign service API — the single HTTP code
// path shared by the wsnex submit/status/results/cancel/watch
// subcommands, the integration tests and the repository benchmark's
// `serve` workload (wsnbench/ATTRIBUTION.md), so they all exercise the
// same wire behavior (one exchange per connection, strict JSON bodies).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/http.hpp"
#include "util/json.hpp"

namespace wsnex::serve {

/// An API-level failure: the server answered with an error status (the
/// parsed {"error":{...}} message) or the response was not valid JSON.
/// Transport failures (connection refused, timeouts) stay
/// util::SocketError.
class ServeApiError : public std::runtime_error {
 public:
  ServeApiError(int status, const std::string& message)
      : std::runtime_error(message), status_(status) {}
  /// HTTP status of the failure (0 when the response was unparseable).
  int status() const { return status_; }

 private:
  int status_ = 0;
};

/// Transport-retry knobs. Retries apply only to *idempotent* requests
/// (every GET, cancel, and submits carrying a client-supplied id) and
/// only to transport failures (util::SocketError) — an HTTP error status
/// is an answer, not an outage. Backoff is exponential with deterministic
/// per-client jitter.
struct RetryPolicy {
  int max_attempts = 1;  ///< total tries; 1 = no retries (the default)
  int base_delay_ms = 50;
  int max_delay_ms = 2000;
};

class Client {
 public:
  explicit Client(std::uint16_t port, int timeout_ms = 30000,
                  RetryPolicy retry = {})
      : port_(port), timeout_ms_(timeout_ms), retry_(retry) {}

  std::uint16_t port() const { return port_; }

  /// POST /v1/jobs; returns the acceptance body {"id","state"}.
  /// Under a retry policy, submits with a client-supplied "id" are
  /// idempotent: a 409 Duplicate on a retry attempt means an earlier
  /// attempt's request actually landed, and is resolved to success via
  /// GET status. Submits without an id are never retried (a retry could
  /// enqueue the job twice under two auto-assigned ids).
  util::Json submit(const util::Json& job) const;
  util::Json status(const std::string& id) const;   ///< GET /v1/jobs/<id>
  util::Json list() const;                          ///< GET /v1/jobs
  util::Json results(const std::string& id) const;  ///< .../results
  util::Json cancel(const std::string& id) const;   ///< POST .../cancel
  util::Json health() const;                        ///< GET /healthz

  /// Polls status until the job reaches a terminal state; returns the
  /// final status body. Throws ServeApiError when `timeout_ms` elapses
  /// first.
  util::Json wait(const std::string& id, int poll_ms = 100,
                  int timeout_ms = 600000) const;

  /// GET /v1/jobs/<id>/events?since=SEQ[&wait=MS]: one page of the job's
  /// event stream, parsed from NDJSON into
  /// {"since","next","dropped","events":[...]} — feed "next" back as the
  /// next call's `since` to resume the cursor. `wait_ms` > 0 long-polls
  /// (the server clamps it to 30 s); "dropped" > 0 means the ring wrapped
  /// past the cursor and that many events were lost.
  util::Json events(const std::string& id, std::uint64_t since = 0,
                    int wait_ms = 0) const;

 private:
  util::Json request(const std::string& method, const std::string& target,
                     const std::string& body, bool idempotent) const;
  /// The transport/retry loop shared by request() and events(): returns
  /// the raw response once a status line arrives (whatever the status).
  util::HttpResponse exchange(const std::string& method,
                              const std::string& target,
                              const std::string& body, bool idempotent) const;

  std::uint16_t port_ = 0;
  int timeout_ms_ = 30000;
  RetryPolicy retry_;
};

}  // namespace wsnex::serve
