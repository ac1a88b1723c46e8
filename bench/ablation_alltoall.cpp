// Ablation: all-to-all algorithm choice for the FT transpose.
//
// The paper models FT's MPI_Alltoall with the Pairwise-exchange/Hockney
// formula (p-1)(t_s + X t_w). This harness measures the emergent transpose
// cost for three algorithms over the simulated network and compares against
// the closed form, then shows the impact on FT's total energy.
//
// Note: the simulator has no bandwidth contention, so the "naive" algorithm
// (post everything, then drain) is an optimistic lower bound; pairwise
// matches the Hockney model; the store-and-forward ring pays extra hops.
#include <mutex>

#include "analysis/runner.hpp"
#include "bench/common.hpp"
#include "model/comm.hpp"
#include "npb/classes.hpp"
#include "smpi/comm.hpp"

using namespace isoee;

namespace {

double measured_alltoall_time(const sim::MachineSpec& machine, int p, std::size_t block,
                              smpi::AlltoallAlgo algo) {
  sim::Engine engine(machine);
  double worst = 0.0;
  std::mutex mu;
  engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::CollectiveConfig cfg;
    cfg.alltoall = algo;
    smpi::Comm comm(ctx, cfg);
    comm.barrier();
    std::vector<double> in(block * static_cast<std::size_t>(p), 1.0), out(in.size());
    const double t0 = ctx.now();
    comm.alltoall(std::span<const double>(in), std::span<double>(out), block);
    std::lock_guard<std::mutex> lock(mu);
    worst = std::max(worst, ctx.now() - t0);
  });
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  auto machine = sim::system_g();  // no noise: compare against the closed form
  bench::heading("Ablation: all-to-all algorithm vs the Hockney model",
                 "the paper's FT analysis uses pairwise exchange / Hockney");

  util::Table table({"p", "block_KiB", "hockney_s", "pairwise_s", "ring_s", "naive_s",
                     "bruck_s"});
  for (int p : {4, 8, 16, 32, 64}) {
    const std::size_t block = 1 << 11;  // doubles per destination
    const double X = static_cast<double>(block) * sizeof(double);
    const double hockney =
        model::hockney_alltoall_time(p, X, machine.net.t_s, machine.net.t_w());
    table.add_row(
        {util::num(p), util::num(X / 1024.0, 0), util::sci(hockney, 3),
         util::sci(measured_alltoall_time(machine, p, block, smpi::AlltoallAlgo::kPairwise), 3),
         util::sci(measured_alltoall_time(machine, p, block, smpi::AlltoallAlgo::kRing), 3),
         util::sci(measured_alltoall_time(machine, p, block, smpi::AlltoallAlgo::kNaive), 3),
         util::sci(measured_alltoall_time(machine, p, block, smpi::AlltoallAlgo::kBruck), 3)});
  }
  bench::emit(table, "ablation_alltoall_time");

  // Small messages: the regime Bruck targets (fewer startups dominate).
  std::printf("\n-- small-message all-to-all (8 doubles per destination) --\n");
  util::Table small({"p", "pairwise_s", "bruck_s"});
  for (int p : {16, 64, 128}) {
    small.add_row(
        {util::num(p),
         util::sci(measured_alltoall_time(machine, p, 8, smpi::AlltoallAlgo::kPairwise), 3),
         util::sci(measured_alltoall_time(machine, p, 8, smpi::AlltoallAlgo::kBruck), 3)});
  }
  bench::emit(small, "ablation_alltoall_small");

  // End-to-end effect on FT energy.
  std::printf("\n-- FT total energy per all-to-all algorithm (class A, p = 32) --\n");
  util::Table ft_table({"algorithm", "time_s", "energy_J"});
  auto noisy = bench::with_noise(machine);
  for (auto [name, algo] :
       {std::pair{"pairwise", smpi::AlltoallAlgo::kPairwise},
        std::pair{"ring", smpi::AlltoallAlgo::kRing},
        std::pair{"naive", smpi::AlltoallAlgo::kNaive}}) {
    auto config = npb::ft_class(npb::ProblemClass::A);
    config.collectives.alltoall = algo;
    const auto run = analysis::run(noisy, config, 32);
    ft_table.add_row({name, util::num(run.makespan, 4), util::num(run.total_energy_j(), 1)});
  }
  bench::emit(ft_table, "ablation_alltoall_ft");
  return 0;
}
