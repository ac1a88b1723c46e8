// Ablation: flat vs two-level (hierarchical) network topology.
//
// The paper's models assume a single Hockney pair (t_s, t_w) for every
// message. On a cluster of multi-core nodes, messages between ranks placed on
// the same node cross shared memory instead of the NIC and are much cheaper.
// This harness enables the simulator's two-level network (sim::
// with_intra_node_link) and measures what that locality is worth for the
// communication-bound kernels, comparing the emergent costs against the
// two-level closed forms in model/comm.hpp.
#include <mutex>

#include "analysis/runner.hpp"
#include "bench/common.hpp"
#include "model/comm.hpp"
#include "npb/classes.hpp"
#include "smpi/comm.hpp"

using namespace isoee;

namespace {

struct AlltoallProbe {
  double time = 0.0;        // worst per-rank transpose time
  double intra_share = 0.0; // fraction of messages that stayed on-node
};

AlltoallProbe measured_alltoall(const sim::MachineSpec& machine, int p, std::size_t block) {
  sim::Engine engine(machine);
  AlltoallProbe probe;
  std::mutex mu;
  const auto run = engine.run(p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx);
    comm.barrier();
    std::vector<double> in(block * static_cast<std::size_t>(p), 1.0), out(in.size());
    const double t0 = ctx.now();
    comm.alltoall(std::span<const double>(in), std::span<double>(out), block);
    std::lock_guard<std::mutex> lock(mu);
    probe.time = std::max(probe.time, ctx.now() - t0);
  });
  if (run.counters.messages_sent > 0) {
    probe.intra_share = static_cast<double>(run.counters.messages_intra_node) /
                        static_cast<double>(run.counters.messages_sent);
  }
  return probe;
}

model::LinkParams intra_link(const sim::MachineSpec& m) {
  return {m.net.intra_t_s, m.net.intra_t_w()};
}
model::LinkParams inter_link(const sim::MachineSpec& m) { return {m.net.t_s, m.net.t_w()}; }

}  // namespace

int main(int argc, char** argv) {
  if (!bench::init(argc, argv)) return 1;
  const auto flat = sim::system_g();  // no noise: compare against closed forms
  const auto hier = sim::with_intra_node_link(sim::system_g());
  const int cpn = flat.cores_per_node();

  bench::heading("Ablation: flat vs two-level network topology",
                 "paper assumes one Hockney pair; multi-core nodes have two");
  std::printf("cores per node: %d; intra link t_s %.2e s, bw %.2e B/s "
              "(inter: %.2e s, %.2e B/s)\n",
              cpn, hier.net.intra_t_s, hier.net.intra_bandwidth_Bps, hier.net.t_s,
              hier.net.bandwidth_Bps);

  // Transpose-sized alltoall: measured vs the flat and two-level closed forms.
  util::Table table({"p", "intra_msg_share", "flat_model_s", "flat_sim_s",
                     "hier_model_s", "hier_sim_s", "speedup"});
  const std::size_t block = 1 << 11;  // doubles per destination
  const double X = static_cast<double>(block) * sizeof(double);
  for (int p : {8, 16, 32, 64}) {
    const model::Topology topo{p, cpn};
    const double flat_model =
        model::hockney_alltoall_time(p, X, flat.net.t_s, flat.net.t_w());
    const double hier_model =
        model::hierarchical_alltoall_time(topo, X, intra_link(hier), inter_link(hier));
    const auto flat_probe = measured_alltoall(flat, p, block);
    const auto hier_probe = measured_alltoall(hier, p, block);
    table.add_row({util::num(p), util::num(hier_probe.intra_share, 3),
                   util::sci(flat_model, 3), util::sci(flat_probe.time, 3),
                   util::sci(hier_model, 3), util::sci(hier_probe.time, 3),
                   util::num(flat_probe.time / hier_probe.time, 2)});
  }
  bench::emit(table, "ablation_topology_alltoall");

  // End-to-end effect on the communication-bound kernels (FT transposes,
  // CG halo/allreduce) at fixed p.
  std::printf("\n-- kernel makespan and energy, flat vs two-level (p = 32) --\n");
  util::Table kernels({"kernel", "net", "time_s", "energy_J", "intra_msg_share"});
  const int p = 32;
  for (auto [name, machine] : {std::pair{"flat", bench::with_noise(flat)},
                               std::pair{"hier", bench::with_noise(hier)}}) {
    const auto run = analysis::run(machine, npb::ft_class(npb::ProblemClass::A), p);
    kernels.add_row({"FT-A", name, util::num(run.makespan, 4),
                     util::num(run.total_energy_j(), 1),
                     util::num(static_cast<double>(run.counters.messages_intra_node) /
                                   static_cast<double>(run.counters.messages_sent),
                               3)});
  }
  for (auto [name, machine] : {std::pair{"flat", bench::with_noise(flat)},
                               std::pair{"hier", bench::with_noise(hier)}}) {
    const auto run = analysis::run(machine, npb::cg_class(npb::ProblemClass::A), p);
    kernels.add_row({"CG-A", name, util::num(run.makespan, 4),
                     util::num(run.total_energy_j(), 1),
                     util::num(static_cast<double>(run.counters.messages_intra_node) /
                                   static_cast<double>(run.counters.messages_sent),
                               3)});
  }
  bench::emit(kernels, "ablation_topology_kernels");
  return 0;
}
