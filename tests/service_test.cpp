// Tier-1 tests for src/service: the wire protocol (strict parsing + seeded
// fuzzing over the request grammar), the three-tier answer path (model /
// cache / sim), request coalescing, admission control, the calibrate flow,
// and the stdin and TCP transports.
//
// The sim-tier tests use small EP cases so the whole binary stays in the
// seconds range; the serving-smoke CI job covers TCP load.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <latch>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/study.hpp"
#include "exec/codec.hpp"
#include "model/isocontour.hpp"
#include "model/serialize.hpp"
#include "model/workloads.hpp"
#include "obs/drift.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "benchtools/calibrate.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

namespace fs = std::filesystem;
using namespace isoee;
using service::ErrorCode;
using service::Request;
using service::Service;
using service::ServiceConfig;

/// Fresh per-test scratch directory (removed up front so reruns start cold).
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("isoee_service_test_" + name);
  fs::remove_all(dir);
  return dir.string();
}

/// Parses a response line and returns the JSON document (asserts it parses —
/// every response the service emits must be a valid JSON object).
util::JsonValue parse_response(const std::string& line) {
  util::JsonValue v;
  EXPECT_NO_THROW(v = util::parse_json(line)) << line;
  EXPECT_TRUE(v.is(util::JsonValue::Type::kObject)) << line;
  return v;
}

bool response_ok(const util::JsonValue& v) {
  const auto* ok = v.find("ok");
  return ok != nullptr && ok->is(util::JsonValue::Type::kBool) && ok->boolean;
}

std::string error_code_of(const util::JsonValue& v) {
  const auto* err = v.find("error");
  if (err == nullptr) return "";
  const auto* code = err->find("code");
  return code != nullptr ? code->str : "";
}

std::string tier_of(const util::JsonValue& v) {
  const auto* tier = v.find("tier");
  return tier != nullptr ? tier->str : "";
}

/// The response from `"result":` / `"error":` onward — the tier-independent
/// part that the determinism contract covers (tier/coalesced are the
/// documented race-dependent exception).
std::string stable_fragment(const std::string& line) {
  std::size_t at = line.find("\"result\":");
  if (at == std::string::npos) at = line.find("\"error\":");
  return at == std::string::npos ? line : line.substr(at);
}

// ---------------------------------------------------------------------------
// Protocol: envelope and id echo.
// ---------------------------------------------------------------------------

TEST(Protocol, IdIsEchoedNumberStringNullAndAbsent) {
  Service svc{ServiceConfig{}};
  const std::string base = R"("method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4})";

  EXPECT_EQ(svc.handle_line("{\"id\":7," + base + "}").rfind("{\"id\":7,", 0), 0u);
  EXPECT_EQ(svc.handle_line("{\"id\":\"abc\"," + base + "}").rfind("{\"id\":\"abc\",", 0), 0u);
  EXPECT_EQ(svc.handle_line("{\"id\":null," + base + "}").rfind("{\"id\":null,", 0), 0u);
  EXPECT_EQ(svc.handle_line("{" + base + "}").rfind("{\"id\":null,", 0), 0u);
}

TEST(Protocol, IdSurvivesIntoErrorResponses) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(
      svc.handle_line(R"({"id":41,"method":"predict","params":{"machine":"nope","app":"EP","n":1,"p":4}})"));
  EXPECT_FALSE(response_ok(v));
  ASSERT_NE(v.find("id"), nullptr);
  EXPECT_EQ(v.find("id")->number, 41.0);
  EXPECT_EQ(error_code_of(v), "unknown_machine");
}

TEST(Protocol, GarbageIsAParseError) {
  Service svc{ServiceConfig{}};
  for (const char* line : {"{nope", "[1,2", "tru", "\"unterminated", "{\"a\":}", "}"}) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    EXPECT_EQ(error_code_of(v), "parse_error") << line;
  }
}

TEST(Protocol, NonObjectAndBadEnvelopeAreInvalidRequests) {
  Service svc{ServiceConfig{}};
  const char* cases[] = {
      "[1,2]",                                  // not an object
      "42",                                     // not an object
      "{}",                                     // no method
      R"({"method":7})",                        // method not a string
      R"({"method":"predict","params":[1]})",   // params not an object
      R"({"method":"predict","extra":1,"params":{}})",  // unknown envelope key
  };
  for (const char* line : cases) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    EXPECT_EQ(error_code_of(v), "invalid_request") << line;
  }
}

TEST(Protocol, UnknownMethod) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(R"({"method":"frobnicate"})"));
  EXPECT_EQ(error_code_of(v), "unknown_method");
}

TEST(Protocol, DuplicateKeysAreRejectedAtEveryNestingLevel) {
  Service svc{ServiceConfig{}};
  const char* cases[] = {
      R"({"method":"stats","method":"stats"})",
      R"({"method":"predict","params":{"machine":"system_g","machine":"dori","app":"EP","n":1}})",
  };
  for (const char* line : cases) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    const std::string code = error_code_of(v);
    EXPECT_TRUE(code == "invalid_request" || code == "invalid_params") << line;
  }
}

TEST(Protocol, UnknownParameterNeverFallsBackToADefault) {
  Service svc{ServiceConfig{}};
  // "procs" is a typo for "p": must be invalid_params naming the key, not a
  // silent p=1 answer.
  const auto v = parse_response(svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"procs":8}})"));
  EXPECT_FALSE(response_ok(v));
  EXPECT_EQ(error_code_of(v), "invalid_params");
  EXPECT_NE(v.find("error")->find("message")->str.find("procs"), std::string::npos);
}

TEST(Protocol, TypeAndRangeViolationsAreInvalidParams) {
  Service svc{ServiceConfig{}};
  const char* cases[] = {
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":-1}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":"big"}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":0}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":2.5}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"f_ghz":500}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"measured":1}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"EP","n":1e6,"objective":"max_p","target_ee":1.5}})",
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[1000,"x"]}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"EP","n":1e6,"objective":"nonsense"}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"EP","n":1e6,"objective":"min_time_under_cap"}})",
      R"({"method":"stats","params":{"n":1}})",
  };
  for (const char* line : cases) {
    const auto v = parse_response(svc.handle_line(line));
    EXPECT_FALSE(response_ok(v)) << line;
    EXPECT_EQ(error_code_of(v), "invalid_params") << line;
  }
}

TEST(Protocol, OversizedArraysAndLinesAreRejected) {
  Service svc{ServiceConfig{}};
  std::string many = R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[)";
  for (int i = 0; i < 100; ++i) many += (i ? "," : "") + std::to_string(1000 + i);
  many += "]}}";
  EXPECT_EQ(error_code_of(parse_response(svc.handle_line(many))), "invalid_params");

  const std::string huge(service::kMaxLineBytes + 1, ' ');
  const auto v = parse_response(svc.handle_line("{\"method\":\"stats\"}" + huge));
  EXPECT_FALSE(response_ok(v));
  EXPECT_EQ(error_code_of(v), "invalid_request");
}

TEST(Protocol, ParseRequestThrowsOnlyRequestError) {
  // The direct-parser contract behind handle_line's never-throws guarantee.
  const char* lines[] = {"{", "[]", R"({"method":"predict","params":{"n":1}})",
                         R"({"method":"predict"})", "null", ""};
  for (const char* line : lines) {
    try {
      (void)service::parse_request(line);
      ADD_FAILURE() << "expected RequestError for: " << line;
    } catch (const service::RequestError&) {
    } catch (...) {
      ADD_FAILURE() << "non-RequestError exception for: " << line;
    }
  }
}

// ---------------------------------------------------------------------------
// Model tier: answers match the analytical model directly, byte for byte
// reproducible.
// ---------------------------------------------------------------------------

TEST(ModelTier, PredictMatchesDirectModelEvaluation) {
  Service svc{ServiceConfig{}};
  const std::string line =
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":2e6,"p":16}})";
  const auto v = parse_response(svc.handle_line(line));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "model");

  const model::MachineParams mp = tools::nominal_machine_params(sim::system_g());
  const model::EpWorkload ep;
  const double want = model::ee_at(mp, ep, 2e6, 16, mp.base_ghz);
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("EE"), nullptr);
  EXPECT_DOUBLE_EQ(result->find("EE")->number, want);
  EXPECT_DOUBLE_EQ(result->find("p")->number, 16.0);
}

TEST(ModelTier, ResponsesAreByteIdenticalAcrossServicesAndJobs) {
  const char* lines[] = {
      R"({"id":1,"method":"predict","params":{"machine":"system_g","app":"FT","n":4.2e6,"p":16}})",
      R"({"id":2,"method":"optimize","params":{"machine":"dori","app":"CG","n":1e6,"objective":"min_time_under_cap","cap_w":900}})",
      R"({"id":3,"method":"iso_contour","params":{"machine":"system_g","app":"FT","target_ee":0.5,"ps":[2,4,8]}})",
  };
  ServiceConfig one;
  one.jobs = 1;
  ServiceConfig eight;
  eight.jobs = 8;
  Service a{one}, b{eight};
  for (const char* line : lines) {
    const std::string ra = a.handle_line(line);
    EXPECT_EQ(ra, a.handle_line(line)) << line;   // rerun, same service
    EXPECT_EQ(ra, b.handle_line(line)) << line;   // different --jobs
  }
}

TEST(ModelTier, OptimizeMaxPMatchesDirectModel) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(
      R"({"method":"optimize","params":{"machine":"system_g","app":"FT","n":4.2e6,"objective":"max_p","target_ee":0.5,"p_max":512}})"));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "model");

  const model::MachineParams mp = tools::nominal_machine_params(sim::system_g());
  const model::FtWorkload ft;
  const int want = model::max_processors(mp, ft, 4.2e6, mp.base_ghz, 0.5, 512);
  EXPECT_DOUBLE_EQ(v.find("result")->find("p")->number, double(want));
}

TEST(ModelTier, IsoContourMatchesDirectModel) {
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(
      R"({"method":"iso_contour","params":{"machine":"system_g","app":"FT","target_ee":0.6,"ps":[2,4,8,16]}})"));
  ASSERT_TRUE(response_ok(v));

  const model::MachineParams mp = tools::nominal_machine_params(sim::system_g());
  const model::FtWorkload ft;
  const std::vector<int> ps = {2, 4, 8, 16};
  const auto want = model::iso_ee_contour(mp, ft, 0.6, ps, mp.base_ghz, 1e2, 1e10);
  const auto* points = v.find("result")->find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_DOUBLE_EQ(points->array[i].find("p")->number, double(want[i].p));
    EXPECT_DOUBLE_EQ(points->array[i].find("n")->number, want[i].n);
  }
}

TEST(ModelTier, UncalibratedAppsWithoutStockCoefficientsAreNotCalibrated) {
  Service svc{ServiceConfig{}};
  for (const char* app : {"MG", "CKPT", "SWEEP"}) {
    const auto v = parse_response(svc.handle_line(
        std::string(R"({"method":"predict","params":{"machine":"dori","app":")") + app +
        R"(","n":1e6,"p":4}})"));
    EXPECT_FALSE(response_ok(v)) << app;
    EXPECT_EQ(error_code_of(v), "not_calibrated") << app;
  }
}

// ---------------------------------------------------------------------------
// Sim and cache tiers.
// ---------------------------------------------------------------------------

/// A small measured-predict line (full simulation, single case).
std::string measured_line(double n, int p) {
  return R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":)" +
         std::to_string(n) + ",\"p\":" + std::to_string(p) + ",\"measured\":true}}";
}

TEST(SimTier, MeasuredPredictGoesSimThenCacheAndIsByteStable) {
  const std::string dir = scratch_dir("sim_then_cache");
  ServiceConfig config;
  config.cache_dir = dir;
  std::string first;
  {
    Service svc{config};
    first = svc.handle_line(measured_line(20000, 2));
    EXPECT_EQ(tier_of(parse_response(first)), "sim");
  }
  // A fresh service over the same cache answers warm: no simulation runs.
  Service svc{config};
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const std::string second = svc.handle_line(measured_line(20000, 2));
  EXPECT_EQ(tier_of(parse_response(second)), "cache");
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  EXPECT_EQ(stable_fragment(first), stable_fragment(second));
}

TEST(SimTier, IdenticalConcurrentColdQueriesCoalesceIntoOneSimulation) {
  // The overlap is certain, not likely: the job's only case blocks until every
  // client holds its ticket, so no identical submission can arrive after the
  // job was fulfilled and its in-flight entry erased (which, with no cache,
  // would legitimately simulate again).
  service::SchedulerConfig config;
  config.jobs = 2;
  service::SimScheduler scheduler{config};
  constexpr int kClients = 4;
  std::latch all_issued(kClients);
  const std::shared_ptr<const analysis::BenchmarkAdapter> adapter = analysis::make_ep_adapter();
  const auto make_cases = [&] {
    exec::Case c;
    c.run = [&all_issued, adapter]() -> std::string {
      all_issued.wait();
      const sim::RunResult run =
          adapter->run(sim::system_g(), 24000, 2, analysis::RunOptions(), nullptr);
      return exec::encode_doubles({run.total_energy_j(), run.makespan});
    };
    std::vector<exec::Case> cases;
    cases.push_back(std::move(c));
    return cases;
  };

  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  std::vector<std::string> responses(kClients);
  std::atomic<int> coalesced{0};
  {
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        const service::SimScheduler::Ticket ticket =
            scheduler.submit("measure-ep-24000-p2", make_cases());
        all_issued.count_down();
        ASSERT_FALSE(ticket.rejected);
        if (ticket.coalesced) coalesced.fetch_add(1);
        const service::Outcome& outcome = ticket.result.get();
        ASSERT_TRUE(outcome.results[0].ok()) << outcome.results[0].error;
        responses[static_cast<std::size_t>(i)] = outcome.results[0].payload;
      });
    }
    for (auto& t : clients) t.join();
  }

  EXPECT_EQ(sim::Engine::total_runs_started() - runs_before, 1u)
      << "N identical in-flight queries must share one simulation";
  EXPECT_EQ(coalesced.load(), kClients - 1);
  EXPECT_EQ(exec::decode_doubles(responses[0]).size(), 2u);
  for (int i = 0; i < kClients; ++i) EXPECT_EQ(responses[i], responses[0]);
}

TEST(SimTier, AdmissionControlRejectsWhenPendingCapIsZero) {
  ServiceConfig config;
  config.max_pending = 0;
  Service svc{config};
  const auto v = parse_response(svc.handle_line(measured_line(20000, 2)));
  EXPECT_FALSE(response_ok(v));
  EXPECT_EQ(error_code_of(v), "overloaded");
  // The model tier does not pass through the admission controller.
  const auto m = parse_response(svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})"));
  EXPECT_TRUE(response_ok(m));
  EXPECT_EQ(tier_of(m), "model");
}

TEST(SimTier, CalibrateFitsInstallsAndWarmRerunsFromCache) {
  const std::string dir = scratch_dir("calibrate");
  ServiceConfig config;
  config.cache_dir = dir;
  config.jobs = 2;
  const std::string cal_line =
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2]}})";
  const std::string predict_line =
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":8,"calibrated":true}})";

  std::string first;
  std::string predicted;
  {
    Service svc{config};
    // Before calibration, calibrated:true has nothing to resolve.
    EXPECT_EQ(error_code_of(parse_response(svc.handle_line(predict_line))),
              "not_calibrated");
    first = svc.handle_line(cal_line);
    const auto v = parse_response(first);
    ASSERT_TRUE(response_ok(v)) << first;
    EXPECT_EQ(tier_of(v), "sim");
    EXPECT_GE(v.find("result")->find("samples")->number, 3.0);
    // Fitted state is now installed: the calibrated predict is a model-tier
    // answer (no further simulation).
    const std::uint64_t runs_before = sim::Engine::total_runs_started();
    predicted = svc.handle_line(predict_line);
    EXPECT_EQ(tier_of(parse_response(predicted)), "model");
    EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  }

  // A fresh service re-calibrates entirely from the warm cache, reproducing
  // both the calibration payload and the downstream prediction byte for byte.
  Service svc{config};
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const std::string second = svc.handle_line(cal_line);
  EXPECT_EQ(tier_of(parse_response(second)), "cache");
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  EXPECT_EQ(stable_fragment(first), stable_fragment(second));
  EXPECT_EQ(stable_fragment(predicted), stable_fragment(svc.handle_line(predict_line)));
}

TEST(SimTier, ServiceAnswersFromACacheWrittenByEnergyStudy) {
  // EnergyStudy and the service share one cache format (analysis/study.hpp):
  // a calibration a figure driver cached is a warm, zero-simulation hit for
  // the service's calibrate request on the same points.
  const std::string dir = scratch_dir("study_to_service");
  {
    exec::ExecConfig exec;
    exec.cache_dir = dir;
    analysis::EnergyStudy study(sim::system_g(), analysis::make_ep_adapter(),
                                /*measured_calibration=*/true, exec);
    const std::vector<double> ns = {20000, 40000};
    const std::vector<int> ps = {2};
    study.calibrate(ns, ps);
  }
  ServiceConfig config;
  config.cache_dir = dir;
  Service svc{config};
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const auto v = parse_response(svc.handle_line(
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2]}})"));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "cache");
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
}

TEST(SimTier, MeasuredPredictAnswersFromAPointEnergyStudyValidated) {
  // EnergyStudy::validate and a measured predict run one measurement case
  // under one cache key: a point a figure driver validated is a warm,
  // zero-simulation answer for the service, bit for bit.
  const std::string dir = scratch_dir("validate_to_service");
  const double n = 24000;
  const int p = 2;
  analysis::ValidationPoint validated;
  {
    exec::ExecConfig exec;
    exec.cache_dir = dir;
    analysis::EnergyStudy study(sim::system_g(), analysis::make_ep_adapter(),
                                /*measured_calibration=*/true, exec);
    const std::vector<double> ns = {20000, 40000};
    const std::vector<int> ps = {2};
    study.calibrate(ns, ps);
    validated = study.validate(n, p);
  }
  ServiceConfig config;
  config.cache_dir = dir;
  Service svc{config};
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const auto v = parse_response(svc.handle_line(measured_line(n, p)));
  ASSERT_TRUE(response_ok(v));
  EXPECT_EQ(tier_of(v), "cache");
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result->find("energy_j")->number),
            std::bit_cast<std::uint64_t>(validated.actual_j));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result->find("time_s")->number),
            std::bit_cast<std::uint64_t>(validated.actual_s));
}

TEST(SimTier, SimulationPointValidationHappensBeforeAnySimulation) {
  Service svc{ServiceConfig{}};
  // FT requires a power-of-two p; p beyond the machine is invalid too.
  const char* cases[] = {
      R"({"method":"predict","params":{"machine":"system_g","app":"FT","n":65536,"p":3,"measured":true}})",
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":20000,"p":65536,"measured":true}})",
  };
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  for (const char* line : cases) {
    EXPECT_EQ(error_code_of(parse_response(svc.handle_line(line))), "invalid_params")
        << line;
  }
  EXPECT_EQ(sim::Engine::total_runs_started(), runs_before);
}

// ---------------------------------------------------------------------------
// Stats, shutdown, and the stdin transport.
// ---------------------------------------------------------------------------

TEST(Endpoints, StatsReportsCountersAndRunsStarted) {
  Service svc{ServiceConfig{}};
  (void)svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})");
  const auto v = parse_response(svc.handle_line(R"({"method":"stats"})"));
  ASSERT_TRUE(response_ok(v));
  const auto* result = v.find("result");
  for (const char* key : {"runs_started", "requests", "errors", "tier_model", "tier_cache",
                          "tier_sim", "coalesced", "rejected", "cache_hits",
                          "cache_misses", "cache_stores", "cache_pruned",
                          "engine_ranks_simulated", "engine_events_processed",
                          "engine_rank_seconds_per_sec"}) {
    EXPECT_NE(result->find(key), nullptr) << key;
  }
  EXPECT_GE(result->find("tier_model")->number, 1.0);
}

TEST(Endpoints, ShutdownStopsTheStdinLoopMidStream) {
  Service svc{ServiceConfig{}};
  std::istringstream in(
      R"({"id":1,"method":"stats"})" "\n"
      "\n"  // blank keep-alive line: ignored, not an error
      R"({"id":2,"method":"shutdown"})" "\n"
      R"({"id":3,"method":"stats"})" "\n");
  std::ostringstream out;
  const std::size_t handled = service::run_stdin(svc, in, out);
  EXPECT_EQ(handled, 2u);  // the post-shutdown request is never read
  EXPECT_TRUE(svc.shutdown_requested());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"stopping\":true"), std::string::npos);
  EXPECT_EQ(text.find("\"id\":3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TCP transport.
// ---------------------------------------------------------------------------

/// Blocking loopback client with a receive timeout, so a dead server fails
/// the test instead of hanging it. Returns -1 when the connect fails.
int connect_client(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_text(int fd, const std::string& text) {
  return ::send(fd, text.data(), text.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(text.size());
}

/// Reads one response line (without the newline); "" on timeout or close.
std::string read_line(int fd) {
  std::string line;
  char c = 0;
  while (::read(fd, &c, 1) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return "";
}

TEST(Transport, ClientClosingBeforeReadingLeavesTheServerServing) {
  ServiceConfig config;
  config.cache_dir = scratch_dir("close_before_read");
  Service svc{config};
  service::TcpServer server(svc, 0);
  std::thread serving([&server] { server.serve(); });

  // Pipeline four measured predicts (a simulation each) and close without
  // reading. The connection handles them in order: once the second
  // simulation starts, the first response went to the closed peer (which
  // answers with a reset), and the second response's write will fail. That
  // write used to raise SIGPIPE and kill the process.
  const std::uint64_t runs_before = sim::Engine::total_runs_started();
  const int quitter = connect_client(server.port());
  EXPECT_GE(quitter, 0);
  std::string burst;
  for (int i = 0; i < 4; ++i) burst += measured_line(20000 + 1000 * i, 2) + "\n";
  EXPECT_TRUE(send_text(quitter, burst));
  ::close(quitter);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (sim::Engine::total_runs_started() - runs_before < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sim::Engine::total_runs_started() - runs_before, 2u);

  // A second client is still answered, and shutdown still ends serve().
  const int client = connect_client(server.port());
  EXPECT_GE(client, 0);
  EXPECT_TRUE(send_text(client, R"({"id":1,"method":"stats"})" "\n"));
  EXPECT_TRUE(response_ok(parse_response(read_line(client))));
  EXPECT_TRUE(send_text(client, R"({"id":2,"method":"shutdown"})" "\n"));
  EXPECT_NE(read_line(client).find("\"stopping\":true"), std::string::npos);
  ::close(client);
  if (!svc.shutdown_requested()) svc.handle_line(R"({"method":"shutdown"})");
  serving.join();
}

TEST(Transport, ShutdownReturnsWhileAnIdleClientIsConnected) {
  Service svc{ServiceConfig{}};
  service::TcpServer server(svc, 0);
  std::promise<void> served;
  std::future<void> serve_done = served.get_future();
  std::thread serving([&server, &served] {
    server.serve();
    served.set_value();
  });

  // One answered request proves the idle client's connection is being
  // served; after it the client sends nothing and keeps the socket open.
  const int idle = connect_client(server.port());
  ASSERT_GE(idle, 0);
  EXPECT_TRUE(send_text(idle, R"({"id":1,"method":"stats"})" "\n"));
  EXPECT_TRUE(response_ok(parse_response(read_line(idle))));

  const int stopper = connect_client(server.port());
  EXPECT_GE(stopper, 0);
  EXPECT_TRUE(send_text(stopper, R"({"id":2,"method":"shutdown"})" "\n"));
  EXPECT_NE(read_line(stopper).find("\"stopping\":true"), std::string::npos);
  ::close(stopper);

  // serve() must return while `idle` is still open. If it does not, closing
  // the idle socket releases the server so the test fails instead of hanging.
  const bool returned =
      serve_done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  ::close(idle);
  serving.join();
  if (!returned) FAIL() << "serve() did not return within 10 s of shutdown";
}

// ---------------------------------------------------------------------------
// Telemetry endpoints: metrics, model_health in stats, install.
// ---------------------------------------------------------------------------

TEST(Endpoints, MetricsReturnsOneLineSnapshotWithLatencyHistograms) {
  Service svc{ServiceConfig{}};
  (void)svc.handle_line(
      R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":4}})");
  const std::string line = svc.handle_line(R"({"id":9,"method":"metrics"})");
  EXPECT_EQ(line.find('\n'), std::string::npos) << "responses must be single lines";
  const auto v = parse_response(line);
  ASSERT_TRUE(response_ok(v));
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  // The predict we just made shows up in its per-method x per-tier histogram
  // (snapshot rows carry le= bucket labels plus _sum/_count).
  const auto* count = result->find("service.latency_s.predict.model_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->find("kind")->str, "histogram");
  EXPECT_GE(count->find("value")->number, 1.0);
  const auto* bucket =
      result->find("service.latency_s.predict.model_bucket{le=\"+Inf\"}");
  ASSERT_NE(bucket, nullptr);
  EXPECT_GE(bucket->find("value")->number, count->find("value")->number);
}

TEST(Endpoints, StatsReportsModelHealthAndDriftCounters) {
  obs::drift().reset();
  Service svc{ServiceConfig{}};
  const auto v = parse_response(svc.handle_line(R"({"method":"stats"})"));
  ASSERT_TRUE(response_ok(v));
  const auto* result = v.find("result");
  ASSERT_NE(result, nullptr);
  ASSERT_NE(result->find("model_health"), nullptr);
  EXPECT_EQ(result->find("model_health")->str, "ok");
  EXPECT_NE(result->find("drift_samples"), nullptr);
  EXPECT_NE(result->find("drift_degraded_keys"), nullptr);
  EXPECT_NE(result->find("drift_max_ewma_abs_err"), nullptr);
}

TEST(Install, RejectsUnknownNamesAndUnparsableTexts) {
  Service svc{ServiceConfig{}};
  const auto code_of = [&](const std::string& line) {
    return error_code_of(parse_response(svc.handle_line(line)));
  };
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"nope","app":"EP","machine_params":"x","workload":"y"}})"),
      "unknown_machine");
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"system_g","app":"NOPE","machine_params":"x","workload":"y"}})"),
      "unknown_app");
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"system_g","app":"EP","machine_params":"not a params text","workload":"y"}})"),
      "invalid_params");
  EXPECT_EQ(code_of(
      R"({"method":"install","params":{"machine":"system_g","app":"EP"}})"),
      "invalid_params");  // machine_params/workload are required
}

// ---------------------------------------------------------------------------
// Drift watchdog end to end: calibrate -> perturb -> install -> measured
// traffic trips `model_health: degraded`; the unperturbed control stays ok.
// ---------------------------------------------------------------------------

namespace {

/// One measured + calibrated predict: the sim tier produces the actual, the
/// installed calibration produces the prediction, and the pair feeds the
/// global DriftMonitor.
std::string measured_calibrated_line(double n, int p) {
  return R"({"method":"predict","params":{"machine":"system_g","app":"EP","n":)" +
         std::to_string(n) + ",\"p\":" + std::to_string(p) +
         ",\"measured\":true,\"calibrated\":true}}";
}

std::string install_line(const std::string& machine_text, const std::string& workload_text) {
  return R"({"method":"install","params":{"machine":"system_g","app":"EP","machine_params":")" +
         obs::json_escape(machine_text) + R"(","workload":")" +
         obs::json_escape(workload_text) + "\"}}";
}

std::string stats_health(Service& svc) {
  const auto v = parse_response(svc.handle_line(R"({"method":"stats"})"));
  return v.find("result")->find("model_health")->str;
}

}  // namespace

TEST(Drift, PerturbedInstallTripsWatchdogCleanInstallStaysGreen) {
  obs::drift().reset();
  ServiceConfig config;
  config.jobs = 2;
  Service svc{config};

  // Calibrate and keep the serialized model texts from the response.
  const auto cal = parse_response(svc.handle_line(
      R"({"method":"calibrate","params":{"machine":"system_g","app":"EP","ns":[20000,40000],"ps":[2]}})"));
  ASSERT_TRUE(response_ok(cal));
  const std::string machine_text = cal.find("result")->find("machine_params")->str;
  const std::string workload_text = cal.find("result")->find("workload")->str;

  // Control: honest calibration, serial measured traffic past min_samples.
  const auto min_samples = obs::drift().config().min_samples;
  for (std::uint64_t i = 0; i <= min_samples; ++i) {
    ASSERT_TRUE(response_ok(parse_response(svc.handle_line(measured_calibrated_line(20000, 2)))));
  }
  EXPECT_EQ(stats_health(svc), "ok") << "calibrated model must not trip the watchdog";

  // Perturb the calibration: +30% gamma per the drift scenario, plus +50% on
  // the idle floor — gamma only bends the power curve away from the base
  // gear ((f/f0)^gamma == 1 at f == f0), so the idle floor, the dominant
  // power term, is what makes the energy prediction miss deterministically.
  auto perturbed = model::parse_machine(machine_text);
  ASSERT_TRUE(perturbed.has_value());
  perturbed->gamma *= 1.3;
  perturbed->p_sys_idle *= 1.5;
  const auto inst = parse_response(
      svc.handle_line(install_line(model::serialize(*perturbed), workload_text)));
  ASSERT_TRUE(response_ok(inst)) << "install of a re-serialized calibration must succeed";
  EXPECT_TRUE(inst.find("result")->find("installed")->boolean);

  // Same traffic against the perturbed model: every pair lands a >threshold
  // energy error on one key, so the watchdog trips exactly when the key
  // reaches min_samples — deterministically, the feed being serial.
  obs::drift().reset();
  for (std::uint64_t i = 0; i < min_samples; ++i) {
    ASSERT_TRUE(response_ok(parse_response(svc.handle_line(measured_calibrated_line(20000, 2)))));
  }
  EXPECT_EQ(stats_health(svc), "degraded");
  const auto degraded = obs::drift().degraded_keys();
  ASSERT_GE(degraded.size(), 1u);
  EXPECT_EQ(degraded[0].key.machine, "system_g");
  EXPECT_EQ(degraded[0].key.app, "EP");
  EXPECT_EQ(degraded[0].key.quantity, "energy_j");
  EXPECT_GT(degraded[0].ewma_abs, obs::drift().config().threshold);

  // Re-installing the honest calibration and resetting the monitor recovers.
  ASSERT_TRUE(response_ok(
      parse_response(svc.handle_line(install_line(machine_text, workload_text)))));
  obs::drift().reset();
  for (std::uint64_t i = 0; i <= min_samples; ++i) {
    ASSERT_TRUE(response_ok(parse_response(svc.handle_line(measured_calibrated_line(20000, 2)))));
  }
  EXPECT_EQ(stats_health(svc), "ok");
  obs::drift().reset();
}

// ---------------------------------------------------------------------------
// Seeded fuzz over the request grammar (satellite: the parser must map every
// malformed input to exactly one deterministic structured error — no crash,
// no hang, no best-effort guess).
// ---------------------------------------------------------------------------

/// A pool of valid model-tier request lines the mutator starts from.
std::vector<std::string> fuzz_corpus() {
  return {
      R"({"id":1,"method":"predict","params":{"machine":"system_g","app":"EP","n":1e6,"p":8}})",
      R"({"id":"q","method":"predict","params":{"machine":"dori","app":"FT","n":4.2e6,"p":16,"f_ghz":2.0}})",
      R"({"method":"optimize","params":{"machine":"system_g","app":"CG","n":1e6,"objective":"min_time_under_cap","cap_w":800,"ps":[2,4,8]}})",
      R"({"method":"optimize","params":{"machine":"dori","app":"FT","n":1e7,"objective":"best_f_ee","p":8}})",
      R"({"method":"iso_contour","params":{"machine":"system_g","app":"FT","target_ee":0.5,"ps":[2,4,8,16]}})",
      R"({"method":"calibrate","params":{"machine":"system_g","app":"IS","ns":[100000,200000],"ps":[2,4]}})",
      R"({"method":"stats"})",
  };
}

/// Applies one seeded mutation. Mutations deliberately cover the interesting
/// failure axes: truncation, byte noise, duplicated keys, type swaps, and
/// structural garbage.
std::string mutate(const std::string& base, util::Xoshiro256& rng) {
  const std::uint64_t kind = rng() % 8;
  std::string s = base;
  switch (kind) {
    case 0:  // truncate at a random byte
      return s.substr(0, rng() % (s.size() + 1));
    case 1: {  // overwrite one byte with printable noise
      if (!s.empty()) s[rng() % s.size()] = char(' ' + rng() % 95);
      return s;
    }
    case 2: {  // insert a random byte
      s.insert(s.begin() + long(rng() % (s.size() + 1)), char(' ' + rng() % 95));
      return s;
    }
    case 3: {  // duplicate a random key-value-ish span
      const std::size_t at = s.find("\"", 1 + rng() % (s.size() / 2));
      if (at == std::string::npos || at + 8 >= s.size()) return s + s;
      return s.substr(0, at) + s.substr(at, 8) + s.substr(at);
    }
    case 4: {  // swap a digit for a string opener (type confusion)
      for (std::size_t i = rng() % s.size(); i < s.size(); ++i) {
        if (s[i] >= '0' && s[i] <= '9') {
          s[i] = '"';
          break;
        }
      }
      return s;
    }
    case 5: {  // deep nesting
      std::string nest(1 + rng() % 40, '[');
      return R"({"method":"predict","params":)" + nest;
    }
    case 6:  // concatenate two documents on one line
      return s + s;
    default: {  // splice two corpus entries
      const auto pool = fuzz_corpus();
      const std::string& other = pool[rng() % pool.size()];
      return s.substr(0, rng() % (s.size() + 1)) +
             other.substr(rng() % (other.size() + 1));
    }
  }
}

TEST(Fuzz, EveryMutatedRequestYieldsOneDeterministicStructuredResponse) {
  // max_pending = 0: a mutation that survives as a valid sim-tier request
  // (e.g. the calibrate corpus line unchanged) is rejected instantly and
  // deterministically as `overloaded` instead of running simulations.
  ServiceConfig config;
  config.max_pending = 0;
  Service svc{config};
  util::Xoshiro256 rng(20260807);
  const auto corpus = fuzz_corpus();
  int errors = 0, oks = 0;

  for (int i = 0; i < 1500; ++i) {
    const std::string line = mutate(corpus[rng() % corpus.size()], rng);

    // 1. The parser throws RequestError or nothing — never anything else.
    try {
      (void)service::parse_request(line);
    } catch (const service::RequestError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-RequestError `" << e.what() << "` for: " << line;
    }

    // 2. The service renders exactly one valid JSON response object with a
    //    known error code, deterministically.
    const std::string response = svc.handle_line(line);
    const auto v = parse_response(response);
    ASSERT_NE(v.find("ok"), nullptr) << line;
    if (response_ok(v)) {
      ++oks;
    } else {
      ++errors;
      const std::string code = error_code_of(v);
      EXPECT_TRUE(code == "parse_error" || code == "invalid_request" ||
                  code == "unknown_method" || code == "invalid_params" ||
                  code == "unknown_machine" || code == "unknown_app" ||
                  code == "not_calibrated" || code == "overloaded" ||
                  code == "internal")
          << code << " for: " << line;
    }
    // Replaying the line must reproduce the response byte for byte. (A
    // surviving `stats` request is the one legitimate exception: its result
    // is a live counter snapshot.)
    if (response.find("\"runs_started\":") == std::string::npos) {
      EXPECT_EQ(response, svc.handle_line(line)) << "nondeterministic: " << line;
    }
  }
  // The mutator must actually exercise both sides of the parser.
  EXPECT_GT(errors, 500);
  EXPECT_GT(oks, 20);
}

}  // namespace
