// Scaling advisor: the paper's decision-making loop as a command-line tool.
//
// Given a benchmark (ep | ft | cg | is), a machine (system_g | dori) and a
// target iso-energy-efficiency, the advisor calibrates the machine vector
// with the microbenchmark tools, fits the application's workload vector from
// small simulated runs, and then answers:
//
//   * how many processors the job can use before EE falls below the target,
//   * the iso-EE contour n(p): problem size needed to hold the target,
//   * the best DVFS gear per processor count.
//
// Example:  ./build/examples/scaling_advisor --benchmark=cg --target=0.8
#include <cstdio>
#include <memory>

#include "analysis/study.hpp"
#include "model/isocontour.hpp"
#include "npb/classes.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace isoee;

int main(int argc, char** argv) {
  util::Cli cli("scaling_advisor — iso-energy-efficiency scaling decisions");
  cli.flag("benchmark", "cg", "workload: ep | ft | cg | is | mg")
      .flag("machine", "system_g", "cluster preset: system_g | dori")
      .flag("target", "0.8", "EE target to maintain")
      .flag("n", "0", "problem size (0 = benchmark class default)")
      .flag("pmax", "256", "largest processor count to consider");
  if (!cli.parse(argc, argv)) return 1;

  auto machine = sim::machine_preset(cli.get("machine"));
  machine.noise.enabled = true;

  const std::string bench = cli.get("benchmark");
  std::unique_ptr<analysis::BenchmarkAdapter> adapter;
  std::vector<double> calib_ns;
  if (bench == "ep") {
    adapter = analysis::make_ep_adapter(npb::ep_class(npb::ProblemClass::A));
    calib_ns = {1 << 17, 1 << 18, 1 << 19};
  } else if (bench == "ft") {
    adapter = analysis::make_ft_adapter(npb::ft_class(npb::ProblemClass::A));
    calib_ns = {32. * 32 * 32, 64. * 64 * 64, 128. * 128 * 128};
  } else if (bench == "cg") {
    adapter = analysis::make_cg_adapter(npb::cg_class(npb::ProblemClass::A));
    calib_ns = {2000, 4000, 8000};
  } else if (bench == "is") {
    adapter = analysis::make_is_adapter(npb::is_class(npb::ProblemClass::A));
    calib_ns = {1 << 17, 1 << 18, 1 << 19};
  } else if (bench == "mg") {
    adapter = analysis::make_mg_adapter(npb::mg_class(npb::ProblemClass::A));
    calib_ns = {16. * 16 * 16, 32. * 32 * 32, 64. * 64 * 64};
  } else {
    std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
    return 1;
  }
  const double n = cli.get_double("n") > 0 ? cli.get_double("n") : adapter->default_n();
  const double target = cli.get_double("target");
  const int p_max = static_cast<int>(cli.get_int("pmax"));

  std::printf("calibrating machine vector on %s and fitting the %s workload model...\n",
              machine.name.c_str(), bench.c_str());
  analysis::EnergyStudy study(machine, std::move(adapter));
  const int calib_ps[] = {2, 4, 8};
  study.calibrate(calib_ns, calib_ps);

  const auto& mp = study.machine_params();
  const auto& wl = study.workload();
  const double f = mp.base_ghz;

  const int p_ok = model::max_processors(mp, wl, n, f, target, p_max);
  std::printf("\nAt n = %.0f and f = %.1f GHz, EE stays >= %.2f up to p = %d", n, f, target,
              p_ok);
  std::printf(" (EE(p=%d) = %.4f).\n", p_ok, model::ee_at(mp, wl, n, p_ok, f));

  std::printf("\nIso-EE contour (problem size needed to hold EE >= %.2f):\n", target);
  util::Table contour({"p", "required n", "EE achieved", "best gear (GHz)"});
  const std::vector<int> ps = {2, 4, 8, 16, 32, 64, 128, 256};
  const double gears[] = {2.8, 2.4, 2.0, 1.6};
  for (int p : ps) {
    if (p > p_max) break;
    const double req = model::required_problem_size(mp, wl, p, f, target, 1e2, 1e12);
    const double best = model::best_frequency_for_ee(mp, wl, n, p, gears);
    contour.add_row({util::num(p), req > 0 ? util::sci(req, 2) : "unreachable",
                     req > 0 ? util::num(model::ee_at(mp, wl, req, p, f), 4) : "-",
                     util::num(best, 1)});
  }
  std::fputs(contour.to_string().c_str(), stdout);
  return 0;
}
