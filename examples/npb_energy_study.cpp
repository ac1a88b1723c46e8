// NPB energy study: run a benchmark on the simulated cluster with the
// PowerPack-style instrumentation and report what the paper's measurement
// stack reports — per-component energy, per-phase time/energy attribution,
// and performance/energy efficiency across processor counts.
//
// Example:  ./build/examples/npb_energy_study --benchmark=ft --class=A --p=1,2,4,8
#include <cstdio>
#include <sstream>

#include "analysis/runner.hpp"
#include "npb/classes.hpp"
#include "powerpack/phases.hpp"
#include "powerpack/profiler.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace isoee;

namespace {

std::vector<int> parse_ints(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stoi(item));
  return out;
}

sim::RunResult run_benchmark(const std::string& name, const sim::MachineSpec& machine,
                             npb::ProblemClass cls, int p,
                             const analysis::RunOptions& options) {
  if (name == "ep") return analysis::run(machine, npb::ep_class(cls), p, options);
  if (name == "ft") return analysis::run(machine, npb::ft_class(cls), p, options);
  if (name == "cg") return analysis::run(machine, npb::cg_class(cls), p, options);
  if (name == "is") return analysis::run(machine, npb::is_class(cls), p, options);
  if (name == "mg") return analysis::run(machine, npb::mg_class(cls), p, options);
  if (name == "sweep") return analysis::run(machine, npb::sweep_class(cls), p, options);
  if (name == "ckpt") return analysis::run(machine, npb::CkptConfig(), p, options);
  throw std::invalid_argument("unknown benchmark: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("npb_energy_study — PowerPack-style energy analysis of an NPB kernel");
  cli.flag("benchmark", "ft", "workload: ep | ft | cg | is | mg | sweep | ckpt")
      .flag("class", "A", "problem class: S | W | A | B")
      .flag("p", "1,2,4,8,16", "comma-separated processor counts")
      .flag("machine", "system_g", "cluster preset: system_g | dori");
  if (!cli.parse(argc, argv)) return 1;

  auto machine = sim::machine_preset(cli.get("machine"));
  machine.noise.enabled = true;
  const auto cls = npb::parse_class(cli.get("class"));
  const auto ps = parse_ints(cli.get("p"));
  const std::string bench = cli.get("benchmark");

  std::printf("%s class %s on %s\n\n", bench.c_str(), cli.get("class").c_str(),
              machine.name.c_str());

  util::Table sweep({"p", "time_s", "energy_J", "cpu_J", "mem_J", "nic_J", "other_J",
                     "perf_eff", "energy_eff", "alpha"});
  double t1 = 0, e1 = 0;
  for (int p : ps) {
    const auto run = run_benchmark(bench, machine, cls, p, analysis::RunOptions());
    if (p == ps.front()) {
      t1 = run.makespan * p;  // normalise to the first configuration
      e1 = run.total_energy_j();
    }
    sweep.add_row({util::num(p), util::num(run.makespan, 4),
                   util::num(run.energy.total, 1), util::num(run.energy.cpu, 1),
                   util::num(run.energy.memory, 1), util::num(run.energy.io, 1),
                   util::num(run.energy.other, 1),
                   util::num(t1 / (p * run.makespan), 4),
                   util::num(e1 / run.total_energy_j(), 4),
                   util::num(run.mean_alpha(), 3)});
  }
  std::fputs(sweep.to_string().c_str(), stdout);

  // Detailed phase/energy attribution at the largest p.
  const int p_detail = ps.back();
  powerpack::PhaseLog phases;
  analysis::RunOptions options;
  options.record_trace = true;
  options.phases = &phases;
  const auto run = run_benchmark(bench, machine, cls, p_detail, options);
  powerpack::Profiler profiler(machine);

  std::printf("\nper-phase attribution at p = %d:\n", p_detail);
  util::Table phase_table({"phase", "occurrences", "time_s (all ranks)", "energy_J"});
  for (const auto& ph : powerpack::summarize_phases(phases, profiler, run.traces)) {
    phase_table.add_row({ph.name, util::num(ph.occurrences), util::num(ph.time_s, 4),
                         util::num(ph.energy_j, 1)});
  }
  std::fputs(phase_table.to_string().c_str(), stdout);
  return 0;
}
