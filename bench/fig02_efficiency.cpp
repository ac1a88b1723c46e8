// Figure 2 (a, b): performance efficiency and energy efficiency of FT and CG
// versus processor count at a fixed problem size, *measured* from full
// simulations (PowerPack-style), exactly as the paper's motivating figure:
//
//   perf efficiency   = T1 / (p * Tp)
//   energy efficiency = E1 / Ep
//
// Expected shape: FT scales reasonably well; CG's efficiency falls faster
// (its allgather overhead grows with p). Both energy-efficiency curves sit
// below the performance curves.
#include "analysis/study.hpp"
#include "bench/common.hpp"
#include "npb/classes.hpp"

using namespace isoee;

namespace {

void efficiency_sweep(const sim::MachineSpec& machine,
                      const analysis::BenchmarkAdapter& adapter) {
  const std::string name = adapter.name();
  bench::heading("Fig 2: " + name + " performance & energy efficiency vs CPUs",
                 name == "FT" ? "Fig 2a — FT scales reasonably well"
                              : "Fig 2b — CG efficiency drops off faster");
  const int ps[] = {1, 2, 4, 8, 16, 32};
  double t1 = 0.0, e1 = 0.0;
  util::Table table({"p", "time_s", "energy_J", "perf_efficiency", "energy_efficiency"});
  for (int p : ps) {
    const sim::RunResult run =
        adapter.run(machine, adapter.default_n(), p, analysis::RunOptions(), nullptr);
    if (p == 1) {
      t1 = run.makespan;
      e1 = run.total_energy_j();
    }
    const double perf_eff = t1 / (p * run.makespan);
    const double energy_eff = e1 / run.total_energy_j();
    table.add_row({util::num(p), util::num(run.makespan, 4), util::num(run.total_energy_j(), 1),
                   util::num(perf_eff, 4), util::num(energy_eff, 4)});
  }
  bench::emit(table, "fig02_" + name);
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto machine = bench::with_noise(sim::system_g());

  using npb::ProblemClass;
  efficiency_sweep(machine, *analysis::make_ft_adapter(npb::ft_class(ProblemClass::A)));
  efficiency_sweep(machine, *analysis::make_cg_adapter(npb::cg_class(ProblemClass::A)));
  return 0;
}
