// GET /metrics against a live in-process server: valid Prometheus text,
// the HTTP/scheduler/thread-pool instrument families show up once their
// code paths run, counters advance monotonically across a submit→complete
// cycle, and the route only answers GET.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <string>

#include "serve/client.hpp"
#include "util/http.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace wsnex::serve {
namespace {

namespace fs = std::filesystem;

class MetricsEndpointTest : public ::testing::Test {
 protected:
  fs::path root_ =
      fs::path(::testing::TempDir()) /
      (std::string("wsnex_metrics_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name());

  void TearDown() override { fs::remove_all(root_); }

  SchedulerOptions scheduler_options() const {
    SchedulerOptions o;
    o.data_dir = root_.string();
    o.slots = 1;
    o.threads = 1;
    o.max_queued_jobs = 8;
    return o;
  }

  static util::Json validation_job(const std::string& id) {
    util::Json job = util::Json::object();
    job.set("id", id);
    job.set("kind", "validation");
    util::Json scenarios = util::Json::array();
    scenarios.push_back(util::Json("hospital_ward_2"));
    job.set("scenarios", std::move(scenarios));
    job.set("replicates", std::size_t{1});
    job.set("duration_s", 2.0);
    return job;
  }

  static std::string scrape(std::uint16_t port) {
    const util::HttpResponse response =
        util::http_exchange(port, "GET", "/metrics", "");
    EXPECT_EQ(response.status, 200);
    return response.body;
  }

  /// Value of the sample whose line starts with `prefix ` (the exact
  /// name{labels} string), or -1 when absent.
  static double sample_value(const std::string& text,
                             const std::string& prefix) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t end = text.find('\n', pos);
      const std::string line = text.substr(pos, end - pos);
      if (line.size() > prefix.size() + 1 &&
          line.compare(0, prefix.size(), prefix) == 0 &&
          line[prefix.size()] == ' ') {
        return std::stod(line.substr(prefix.size() + 1));
      }
      if (end == std::string::npos) break;
      pos = end + 1;
    }
    return -1.0;
  }

  /// Every non-comment line must be `name{...} value` with a finite value
  /// and every family must have # HELP and # TYPE headers before samples.
  static void expect_valid_exposition(const std::string& text) {
    std::size_t pos = 0;
    bool saw_any = false;
    while (pos < text.size()) {
      const std::size_t end = text.find('\n', pos);
      ASSERT_NE(end, std::string::npos) << "missing trailing newline";
      const std::string line = text.substr(pos, end - pos);
      pos = end + 1;
      if (line.empty()) continue;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        continue;
      }
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
      saw_any = true;
    }
    EXPECT_TRUE(saw_any) << "exposition contained no samples";
  }
};

TEST_F(MetricsEndpointTest, ServesPrometheusTextWithCorrectContentType) {
  JobScheduler scheduler(scheduler_options());
  HttpServer server(scheduler, ServerOptions{});
  server.start();

  // Prime the HTTP instruments (they register on the first settled
  // request), then grab the raw bytes so the header is visible.
  (void)util::http_exchange(server.port(), "GET", "/healthz", "");
  util::TcpStream stream =
      util::TcpStream::connect_loopback(server.port());
  stream.set_timeout_ms(5000);
  ASSERT_EQ(stream.write_all("GET /metrics HTTP/1.1\r\n\r\n"),
            util::TcpStream::IoStatus::kOk);
  stream.shutdown_write();
  std::string raw;
  while (stream.read_some(raw) == util::TcpStream::IoStatus::kOk) {
  }
  EXPECT_EQ(raw.compare(0, 15, "HTTP/1.1 200 OK"), 0) << raw.substr(0, 64);
  EXPECT_NE(
      raw.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);

  const std::string body = scrape(server.port());
  expect_valid_exposition(body);
  EXPECT_NE(body.find("# TYPE wsnex_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(body.find("wsnex_http_requests_total{route=\"/healthz\","
                      "method=\"GET\"}"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE wsnex_http_request_seconds histogram"),
            std::string::npos);

  server.stop();
}

TEST_F(MetricsEndpointTest, OnlyGetIsAllowed) {
  JobScheduler scheduler(scheduler_options());
  HttpServer server(scheduler, ServerOptions{});
  server.start();
  const util::HttpResponse response =
      util::http_exchange(server.port(), "POST", "/metrics", "{}");
  EXPECT_EQ(response.status, 405);
  const util::Json body = util::Json::parse(response.body);
  EXPECT_EQ(body.at("error").at("code").as_int64(), 405);
  server.stop();
}

TEST_F(MetricsEndpointTest, CountersAdvanceAcrossSubmitToComplete) {
  JobScheduler scheduler(scheduler_options());
  scheduler.start();
  HttpServer server(scheduler, ServerOptions{});
  server.start();
  const Client client(server.port());

  const std::string before = scrape(server.port());
  const double accepted_before = sample_value(
      before, "wsnex_serve_submissions_total{outcome=\"accepted\"}");
  const double complete_before = sample_value(
      before, "wsnex_serve_jobs_finished_total{state=\"complete\"}");
  const double units_before = sample_value(
      before, "wsnex_serve_units_total{outcome=\"completed\"}");

  client.submit(validation_job("m1"));
  const util::Json status = client.wait("m1");
  ASSERT_EQ(status.at("state").as_string(), "complete");
  // Per-job timing rides along in the status body.
  EXPECT_GT(status.at("unit_wallclock_s").as_double(), 0.0);

  const std::string after = scrape(server.port());
  expect_valid_exposition(after);
  EXPECT_EQ(sample_value(
                after, "wsnex_serve_submissions_total{outcome=\"accepted\"}"),
            (accepted_before < 0 ? 0 : accepted_before) + 1);
  EXPECT_EQ(sample_value(
                after, "wsnex_serve_jobs_finished_total{state=\"complete\"}"),
            (complete_before < 0 ? 0 : complete_before) + 1);
  EXPECT_GE(sample_value(
                after, "wsnex_serve_units_total{outcome=\"completed\"}"),
            (units_before < 0 ? 0 : units_before) + 1);
  EXPECT_EQ(sample_value(after, "wsnex_serve_active_jobs"), 0.0);
  // The validation unit fanned its replicates out through run_parallel.
  EXPECT_GE(sample_value(after, "wsnex_threadpool_groups_total"), 1.0);

  // Rejections are labeled, not lost: a duplicate id bumps "duplicate".
  const double dup_before = sample_value(
      after, "wsnex_serve_submissions_total{outcome=\"duplicate\"}");
  EXPECT_THROW(client.submit(validation_job("m1")), ServeApiError);
  const double dup_after = sample_value(
      scrape(server.port()),
      "wsnex_serve_submissions_total{outcome=\"duplicate\"}");
  EXPECT_EQ(dup_after, (dup_before < 0 ? 0 : dup_before) + 1);

  server.stop();
}

TEST_F(MetricsEndpointTest, HttpCountersAreMonotoneAcrossScrapes) {
  JobScheduler scheduler(scheduler_options());
  HttpServer server(scheduler, ServerOptions{});
  server.start();

  (void)scrape(server.port());
  const double first = sample_value(
      scrape(server.port()),
      "wsnex_http_requests_total{route=\"/metrics\",method=\"GET\"}");
  const double second = sample_value(
      scrape(server.port()),
      "wsnex_http_requests_total{route=\"/metrics\",method=\"GET\"}");
  ASSERT_GE(first, 1.0);
  EXPECT_GT(second, first);
  EXPECT_GE(sample_value(scrape(server.port()),
                         "wsnex_http_responses_total{status=\"200\"}"),
            3.0);

  server.stop();
}

}  // namespace
}  // namespace wsnex::serve
