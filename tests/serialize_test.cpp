// Round-trip tests for calibration serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "model/serialize.hpp"

namespace {

using namespace isoee;

model::MachineParams sample_machine() {
  model::MachineParams m;
  m.name = "TestBox";
  m.cpi = 0.5501;
  m.f_ghz = 2.4;
  m.base_ghz = 2.8;
  m.t_m = 7.83e-8;
  m.t_s = 2.5e-6;
  m.t_w = 2.01e-10;
  m.p_sys_idle = 29.0;
  m.dp_c_base = 12.0;
  m.dp_m = 5.0;
  m.dp_io = 1.5;
  m.gamma = 2.1;
  m.poll_factor = 0.7;
  m.f_comm_ghz = 1.6;
  return m;
}

TEST(Serialize, MachineRoundTrip) {
  const auto m = sample_machine();
  const auto parsed = model::parse_machine(model::serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->name, m.name);
  EXPECT_DOUBLE_EQ(parsed->cpi, m.cpi);
  EXPECT_DOUBLE_EQ(parsed->f_ghz, m.f_ghz);
  EXPECT_DOUBLE_EQ(parsed->t_m, m.t_m);
  EXPECT_DOUBLE_EQ(parsed->t_w, m.t_w);
  EXPECT_DOUBLE_EQ(parsed->gamma, m.gamma);
  EXPECT_DOUBLE_EQ(parsed->poll_factor, m.poll_factor);
  EXPECT_DOUBLE_EQ(parsed->f_comm_ghz, m.f_comm_ghz);
  // Derived quantities identical after round-trip.
  EXPECT_DOUBLE_EQ(parsed->t_c(), m.t_c());
  EXPECT_DOUBLE_EQ(parsed->dp_c(), m.dp_c());
}

/// One of each built-in workload, each with at least one non-default (and,
/// for most, non-round) coefficient.
std::vector<std::unique_ptr<model::WorkloadModel>> sample_workloads() {
  std::vector<std::unique_ptr<model::WorkloadModel>> models;
  {
    auto ep = std::make_unique<model::EpWorkload>();
    ep->wc_per_trial = 47.123;
    models.push_back(std::move(ep));
  }
  {
    auto ft = std::make_unique<model::FtWorkload>();
    ft->wc_nlogn = 55.5;
    ft->dwom_p = -3.25;
    models.push_back(std::move(ft));
  }
  {
    auto cg = std::make_unique<model::CgWorkload>();
    cg->dwom_npm1 = -0.125;
    models.push_back(std::move(cg));
  }
  {
    auto mg = std::make_unique<model::MgWorkload>();
    mg->bytes_n23p = 536.0;
    models.push_back(std::move(mg));
  }
  {
    auto is = std::make_unique<model::IsWorkload>();
    is->dwoc_plogp = 0.1;
    models.push_back(std::move(is));
  }
  {
    auto ck = std::make_unique<model::CkptWorkload>();
    ck->io_n = 4.2e-8;
    models.push_back(std::move(ck));
  }
  {
    auto sw = std::make_unique<model::SweepWorkload>();
    sw->sec_per_cell = 3.3e-9;
    sw->msgs_pm1 = 12.0;
    sw->bytes_pm1n = 512.0;
    sw->tile_w = 32;
    models.push_back(std::move(sw));
  }
  return models;
}

TEST(Serialize, EveryWorkloadTypeRoundTrips) {
  const auto models = sample_workloads();
  ASSERT_EQ(models.size(), 7u);
  for (const auto& original : models) {
    const std::string text = model::serialize(*original);
    const auto parsed = model::parse_workload(text);
    ASSERT_NE(parsed, nullptr) << text;
    EXPECT_EQ(parsed->name(), original->name());
    // The application vectors must agree at several (n, p) points.
    for (double n : {1e4, 1e6}) {
      for (int p : {1, 4, 32}) {
        const auto a = original->at(n, p);
        const auto b = parsed->at(n, p);
        EXPECT_DOUBLE_EQ(a.W_c, b.W_c) << original->name();
        EXPECT_DOUBLE_EQ(a.W_m, b.W_m);
        EXPECT_DOUBLE_EQ(a.dW_oc, b.dW_oc);
        EXPECT_DOUBLE_EQ(a.dW_om, b.dW_om);
        EXPECT_DOUBLE_EQ(a.M, b.M);
        EXPECT_DOUBLE_EQ(a.B, b.B);
        EXPECT_DOUBLE_EQ(a.T_io, b.T_io);
        EXPECT_DOUBLE_EQ(a.T_idle, b.T_idle);
        EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
      }
    }
  }
}

// The calibration text is what examples/calibrate and the service's
// calibrate/install methods exchange, so its bytes (key names, key order,
// number format) are pinned.
TEST(Serialize, TextBytesPinned) {
  EXPECT_EQ(model::serialize(sample_machine()),
            "[machine]\n"
            "name = TestBox\n"
            "cpi = 0.55010000000000003\n"
            "f_ghz = 2.3999999999999999\n"
            "base_ghz = 2.7999999999999998\n"
            "t_m = 7.8300000000000006e-08\n"
            "t_s = 2.5000000000000002e-06\n"
            "t_w = 2.01e-10\n"
            "p_sys_idle = 29\n"
            "dp_c_base = 12\n"
            "dp_m = 5\n"
            "dp_io = 1.5\n"
            "gamma = 2.1000000000000001\n"
            "poll_factor = 0.69999999999999996\n"
            "f_comm_ghz = 1.6000000000000001\n");
  std::string workloads;
  for (const auto& w : sample_workloads()) workloads += model::serialize(*w);
  EXPECT_EQ(workloads,
            "[workload EP]\n"
            "alpha = 0.93000000000000005\n"
            "wc_per_trial = 47.122999999999998\n"
            "wm_per_trial = 0.015599999999999999\n"
            "dwoc_plogp = 26\n"
            "dwom_plogp = 0\n"
            "[workload FT]\n"
            "alpha = 0.85999999999999999\n"
            "iters = 6\n"
            "wc_nlogn = 55.5\n"
            "wc_n = 100\n"
            "wm_n = 2.3999999999999999\n"
            "dwoc_plogp = 0\n"
            "dwoc_p = 0\n"
            "dwom_plogp = 0\n"
            "dwom_p = -3.25\n"
            "[workload CG]\n"
            "alpha = 0.84999999999999998\n"
            "outer = 15\n"
            "inner = 25\n"
            "nzr = 13\n"
            "wc_n = 28875\n"
            "wm_n = 2625\n"
            "dwoc_npm1 = 750\n"
            "dwom_npm1 = -0.125\n"
            "[workload MG]\n"
            "alpha = 0.90000000000000002\n"
            "cycles = 4\n"
            "wc_n = 0\n"
            "wm_n = 0\n"
            "dwoc_p = 0\n"
            "dwom_p = 0\n"
            "msgs_p = 0\n"
            "bytes_n23p = 536\n"
            "duplex = 0.5\n"
            "[workload IS]\n"
            "alpha = 0.94999999999999996\n"
            "key_bytes = 4\n"
            "wc_n = 28\n"
            "wm_n = 1.3\n"
            "dwoc_plogp = 0.10000000000000001\n"
            "dwoc_p = 0\n"
            "dwom_plogp = 0\n"
            "dwom_p = 0\n"
            "[workload CKPT]\n"
            "alpha = 0.94999999999999996\n"
            "iterations = 20\n"
            "ckpt_every = 5\n"
            "wc_n = 0\n"
            "wm_n = 0\n"
            "io_p = 0\n"
            "io_n = 4.1999999999999999e-08\n"
            "[workload SWEEP]\n"
            "alpha = 0.94999999999999996\n"
            "sweeps = 4\n"
            "tile_w = 32\n"
            "wc_n = 0\n"
            "wm_n = 0\n"
            "sec_per_cell = 3.3000000000000002e-09\n"
            "msgs_pm1 = 12\n"
            "bytes_pm1n = 512\n");
}

TEST(Serialize, FileRoundTrip) {
  const auto m = sample_machine();
  model::CgWorkload cg;
  cg.wc_n = 12345.6;
  const std::string path = "/tmp/isoee_serialize_test.calib";
  ASSERT_TRUE(model::save_calibration(path, m, cg));
  const auto loaded = model::load_calibration(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->machine.name, "TestBox");
  EXPECT_EQ(loaded->workload->name(), "CG");
  EXPECT_DOUBLE_EQ(loaded->workload->at(1000, 4).W_c, cg.at(1000, 4).W_c);
  std::filesystem::remove(path);
}

TEST(Serialize, MalformedInputsRejected) {
  EXPECT_FALSE(model::parse_machine("").has_value());
  EXPECT_FALSE(model::parse_machine("[workload FT]\nalpha = 1\n").has_value());
  EXPECT_FALSE(model::parse_machine("[machine\ncpi = 1\n").has_value());
  EXPECT_EQ(model::parse_workload("[machine]\ncpi = 1\n"), nullptr);
  EXPECT_EQ(model::parse_workload("[workload BOGUS]\nalpha = 1\n"), nullptr);
  EXPECT_FALSE(model::load_calibration("/nonexistent/path.calib").has_value());

  // Every value must be one complete, finite number.
  for (const char* value : {"banana", "", "1.5x", "0.5 0.6", "inf", "-inf", "nan", "1e999"}) {
    EXPECT_FALSE(model::parse_machine(std::string("[machine]\ncpi = ") + value + "\n"))
        << "cpi = " << value;
    EXPECT_EQ(model::parse_workload(std::string("[workload FT]\nalpha = ") + value + "\n"),
              nullptr)
        << "alpha = " << value;
  }
  // An int member rejects a value it cannot hold.
  EXPECT_EQ(model::parse_workload("[workload FT]\niters = 1e12\n"), nullptr);
  // cpi, f_ghz and base_ghz divide or scale every prediction: they must be > 0.
  for (const char* key : {"cpi", "f_ghz", "base_ghz"}) {
    for (const char* value : {"0", "-1"}) {
      EXPECT_FALSE(model::parse_machine(std::string("[machine]\n") + key + " = " + value + "\n"))
          << key << " = " << value;
    }
  }
  EXPECT_TRUE(model::parse_machine("[machine]\ncpi = 0x1p-1\nf_ghz = +2.5\n"));
  // A key that names no field is a typo, not a default.
  EXPECT_FALSE(model::parse_machine("[machine]\ncpu = 0.5\n"));
  EXPECT_FALSE(model::parse_machine("[machine]\nname = x\ncpi = 0.5\nCPI = 0.5\n"));
  EXPECT_EQ(model::parse_workload("[workload EP]\nalhpa = 0.5\n"), nullptr);
  EXPECT_EQ(model::parse_workload("[workload FT]\nname = FT\n"), nullptr);
}

// A model that lists no fields (a wrapper, say) has no text form.
TEST(Serialize, ModelWithoutFieldsThrows) {
  struct Wrapper final : model::WorkloadModel {
    model::AppParams at(double n, int p) const override { return model::EpWorkload().at(n, p); }
    std::string name() const override { return "WRAPPED"; }
  };
  EXPECT_THROW((void)model::serialize(Wrapper()), std::invalid_argument);
}

TEST(Serialize, IgnoresCommentsAndWhitespace) {
  const std::string text =
      "# a calibration file\n\n  [machine]  \n  cpi =  0.75  \n\n# trailing comment\n";
  const auto parsed = model::parse_machine(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->cpi, 0.75);
}

}  // namespace
