// Calibration CLI: run the full measurement pipeline once (microbenchmarks +
// workload fitting), save the result, and reuse it later for instant
// predictions — the workflow a cluster operator would wrap in a cron job.
//
//   # measure and save
//   ./build/examples/calibrate --benchmark=cg --out=cg_systemg.calib
//   # predict later, no simulation needed
//   ./build/examples/calibrate --load=cg_systemg.calib --n=75000 --p=64 --f=2.8
#include <cstdio>
#include <memory>

#include "analysis/study.hpp"
#include "model/serialize.hpp"
#include "npb/classes.hpp"
#include "util/cli.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  util::Cli cli("calibrate — measure, save, and reuse model calibrations");
  cli.flag("benchmark", "cg", "workload to calibrate: ep | ft | cg | is | mg | ckpt | sweep")
      .flag("machine", "system_g", "cluster preset: system_g | dori")
      .flag("out", "", "path to write the calibration file")
      .flag("load", "", "load a calibration instead of measuring")
      .flag("n", "14000", "problem size for prediction")
      .flag("p", "32", "processor count for prediction")
      .flag("f", "0", "frequency in GHz for prediction (0 = base)");
  if (!cli.parse(argc, argv)) return 1;

  model::MachineParams machine_params;
  std::unique_ptr<model::WorkloadModel> workload;

  if (!cli.get("load").empty()) {
    auto file = model::load_calibration(cli.get("load"));
    if (!file) {
      std::fprintf(stderr, "failed to load %s\n", cli.get("load").c_str());
      return 1;
    }
    machine_params = file->machine;
    workload = std::move(file->workload);
    std::printf("loaded calibration: machine %s, workload %s\n",
                machine_params.name.c_str(), workload->name().c_str());
  } else {
    auto machine = sim::machine_preset(cli.get("machine"));
    machine.noise.enabled = true;

    std::unique_ptr<analysis::BenchmarkAdapter> adapter;
    std::vector<double> ns;
    const std::string bench = cli.get("benchmark");
    if (bench == "ep") {
      adapter = analysis::make_ep_adapter(npb::ep_class(npb::ProblemClass::A));
      ns = {1 << 17, 1 << 18, 1 << 19};
    } else if (bench == "ft") {
      adapter = analysis::make_ft_adapter(npb::ft_class(npb::ProblemClass::A));
      ns = {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128};
    } else if (bench == "cg") {
      adapter = analysis::make_cg_adapter(npb::cg_class(npb::ProblemClass::A));
      ns = {2000, 4000, 8000};
    } else if (bench == "is") {
      adapter = analysis::make_is_adapter(npb::is_class(npb::ProblemClass::A));
      ns = {1 << 17, 1 << 18, 1 << 19};
    } else if (bench == "mg") {
      adapter = analysis::make_mg_adapter(npb::mg_class(npb::ProblemClass::A));
      ns = {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128};
    } else if (bench == "ckpt") {
      adapter = analysis::make_ckpt_adapter();
      ns = {1 << 17, 1 << 18, 1 << 19};
    } else if (bench == "sweep") {
      adapter = analysis::make_sweep_adapter(npb::sweep_class(npb::ProblemClass::A));
      ns = {128. * 128, 256. * 256, 512. * 512};
    } else {
      std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
      return 1;
    }

    std::printf("calibrating %s on %s...\n", bench.c_str(), machine.name.c_str());
    analysis::EnergyStudy study(machine, std::move(adapter));
    const int ps[] = {2, 4, 8};
    study.calibrate(ns, ps);
    machine_params = study.machine_params();
    workload = model::parse_workload(model::serialize(study.workload()));

    if (!cli.get("out").empty()) {
      if (model::save_calibration(cli.get("out"), machine_params, *workload)) {
        std::printf("saved calibration to %s\n", cli.get("out").c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", cli.get("out").c_str());
        return 1;
      }
    } else {
      std::fputs(model::serialize(machine_params).c_str(), stdout);
      std::fputs(model::serialize(*workload).c_str(), stdout);
    }
  }

  // Prediction at the requested point.
  const double n = cli.get_double("n");
  const int p = static_cast<int>(cli.get_int("p"));
  const double f = cli.get_double("f") > 0 ? cli.get_double("f") : machine_params.base_ghz;
  model::IsoEnergyModel model(machine_params.at_frequency(f));
  const auto app = workload->at(n, p);
  const auto perf = model.predict_performance(app);
  const auto energy = model.predict_energy(app);
  std::printf("\nprediction at n=%.0f p=%d f=%.1f GHz:\n", n, p, f);
  std::printf("  Tp = %.4f s   speedup = %.2f   perf-eff = %.4f\n", perf.Tp, perf.speedup,
              perf.perf_efficiency);
  std::printf("  Ep = %.1f J   EEF = %.4f   EE = %.4f\n", energy.Ep, energy.EEF, energy.EE);
  return 0;
}
