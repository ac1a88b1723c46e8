// Machine descriptions for the simulated power-aware clusters.
//
// A MachineSpec captures everything the iso-energy-efficiency model's
// machine-dependent vector M(f, BW) is derived from: CPU speed (CPI and DVFS
// gears), the memory hierarchy (which determines t_m), the interconnect
// (t_s, t_w), and per-component run/idle power (paper Table 1). Two presets
// mirror the paper's testbeds:
//
//  * SystemG — 325 nodes, dual 4-core 2.8 GHz Xeon, 8 GB RAM, 6 MB L2 per
//    core, 40 Gb/s InfiniBand.
//  * Dori    — 8 nodes, dual dual-core Opteron, 6 GB RAM, 1 MB L2 per core,
//    1 Gb/s Ethernet.
//
// Power constants are calibrated per *core slot* (node power divided by core
// count) so the per-processor energy model of the paper (Eqs 13-15) maps
// one-to-one onto simulator ranks. Absolute watt values are synthetic but
// chosen to match the published node-level envelopes of the two systems.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace isoee::sim {

/// One level of the on/off-chip memory hierarchy.
struct CacheLevel {
  std::uint64_t capacity_bytes = 0;
  double latency_s = 0.0;  // load-to-use latency of a hit in this level
};

/// CPU core description. `t_c = cpi / f` (paper Table 1, citing Hennessy &
/// Patterson); `gears_ghz` lists the DVFS operating points, descending.
struct CpuSpec {
  double cpi = 1.0;                 // average cycles per (on-chip) instruction
  double base_ghz = 1.0;            // nominal frequency; power deltas quoted here
  std::vector<double> gears_ghz{};  // available DVFS gears, descending

  /// Seconds per on-chip instruction at frequency `ghz` (t_c).
  double t_c(double ghz) const { return cpi / (ghz * 1e9); }
};

/// Memory hierarchy: cache levels plus DRAM. `t_m` for the analytical model is
/// the DRAM (off-chip) latency; the full hierarchy exists so the lat_mem_rd
/// calibration tool observes a realistic latency/working-set curve.
struct MemorySpec {
  std::vector<CacheLevel> caches{};  // innermost first
  double dram_latency_s = 100e-9;

  /// Effective per-access latency for a uniform random walk over a working
  /// set of `working_set_bytes` (the quantity lat_mem_rd plots).
  double access_latency(std::uint64_t working_set_bytes) const;
};

/// Interconnect described by the Hockney model: a message of m bytes costs
/// `t_s + m * t_w` end to end.
///
/// The network is optionally *hierarchical* (two-level): the paper's testbeds
/// pack 8 (SystemG) or 4 (Dori) cores per node, so messages between ranks on
/// the same node cross shared memory, not the NIC. When `hierarchical` is set,
/// same-node transfers use the intra-node (latency, bandwidth) pair below;
/// everything else — and everything when the flag is off, the degenerate
/// single-level config — uses the inter-node pair (t_s, bandwidth_Bps).
struct NetworkSpec {
  std::string name = "net";
  double t_s = 1e-6;             // per-message startup/injection latency (inter-node)
  double bandwidth_Bps = 1e9;    // sustained point-to-point bandwidth (inter-node)

  bool hierarchical = false;        // enable the two-level topology
  double intra_t_s = 0.5e-6;        // same-node startup latency
  double intra_bandwidth_Bps = 8e9; // same-node (shared-memory) bandwidth

  double t_w() const { return 1.0 / bandwidth_Bps; }  // seconds per byte
  double intra_t_w() const { return 1.0 / intra_bandwidth_Bps; }

  /// Startup / per-byte cost of a message over the given locality class.
  /// On a flat (non-hierarchical) network every message is inter-node.
  double startup(bool same_node) const {
    return hierarchical && same_node ? intra_t_s : t_s;
  }
  double per_byte(bool same_node) const {
    return hierarchical && same_node ? intra_t_w() : t_w();
  }

  /// Transfer time of an m-byte message (Hockney, inter-node link).
  double transfer_time(std::uint64_t bytes) const {
    return t_s + static_cast<double>(bytes) * t_w();
  }
  /// Transfer time over the link serving the given locality class.
  double transfer_time(std::uint64_t bytes, bool same_node) const {
    return startup(same_node) + static_cast<double>(bytes) * per_byte(same_node);
  }
};

/// Local storage described by latency + bandwidth; exercised by the
/// checkpointing application (the paper's T_io / DeltaP_io hook, which its
/// benchmarks leave at ~0).
struct DiskSpec {
  double bandwidth_Bps = 100e6;  // ~HDD-era sequential bandwidth
  double latency_s = 5e-3;       // per-operation seek/submit latency

  double access_time(std::uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

/// Per-core-slot component power (paper Table 1). Deltas are the increments
/// over idle while the component is active; the CPU delta scales with
/// frequency as DeltaP_c(f) = cpu_delta_w * (f / base_ghz)^gamma (Eq 20,
/// following Kim et al.: power proportional to f^gamma, gamma >= 1).
struct PowerSpec {
  double cpu_idle_w = 8.0;
  double cpu_delta_w = 6.0;   // at CpuSpec::base_ghz
  double mem_idle_w = 3.0;
  double mem_delta_w = 4.0;
  double io_idle_w = 1.5;
  double io_delta_w = 0.0;    // paper Eq 12 drops the NIC active delta
  double other_w = 10.0;      // motherboard / fans / PSU share, always on
  double gamma = 2.0;         // power-frequency exponent

  /// Fraction of the CPU active increment burned while busy-polling the
  /// network (MPI progress engines spin). The paper's Eq 12 assumes 0; set
  /// it positive to study communication-phase DVFS (see
  /// bench/ablation_comm_dvfs).
  double net_poll_cpu_factor = 0.0;

  /// System idle power per core slot (P_idle-system / cores in Table 1 terms).
  double system_idle_w() const { return cpu_idle_w + mem_idle_w + io_idle_w + other_w; }

  /// CPU active-power increment at frequency `ghz` given nominal `base_ghz`.
  double cpu_delta_at(double ghz, double base_ghz) const;
};

/// Deterministic perturbation model standing in for OS jitter and measurement
/// error on real hardware. Multiplicative lognormal noise, seeded per rank, so
/// repeated simulations are bit-identical yet differ from the noise-free
/// analytical prediction — which is what makes validation (Figs 3-4)
/// non-trivial.
struct NoiseSpec {
  bool enabled = false;
  double compute_sigma = 0.02;
  double memory_sigma = 0.03;
  double network_sigma = 0.05;
  double io_sigma = 0.04;
  double sensor_sigma = 0.01;  // applied by the PowerPack sampler
  std::uint64_t seed = 0x5eedULL;
};

/// A homogeneous power-aware cluster.
struct MachineSpec {
  std::string name = "machine";
  int nodes = 1;
  int sockets_per_node = 1;
  int cores_per_socket = 1;

  CpuSpec cpu{};
  MemorySpec mem{};
  NetworkSpec net{};
  DiskSpec disk{};
  PowerSpec power{};
  NoiseSpec noise{};

  /// Fraction of memory-access time that fused compute+memory regions can
  /// hide under computation (hardware prefetch / OOO overlap). This is what
  /// makes the measured overlap factor alpha < 1 (paper Section VI.F).
  double mem_overlap = 0.5;

  int cores_per_node() const { return sockets_per_node * cores_per_socket; }
  int total_cores() const { return nodes * cores_per_node(); }

  /// Block rank placement: rank r runs on node r / cores_per_node(). This is
  /// what derives the two-level network's locality classes from the node /
  /// socket topology above.
  int node_of_rank(int rank) const { return rank / cores_per_node(); }
  bool same_node(int a, int b) const { return node_of_rank(a) == node_of_rank(b); }

  /// Validates invariants (positive counts, descending gears, gamma >= 1...).
  /// Returns an empty string if OK, else a description of the problem.
  std::string validate() const;
};

/// Preset modelled on the paper's SystemG cluster (InfiniBand, 2.8 GHz Xeon).
MachineSpec system_g();

/// Preset modelled on the paper's Dori cluster (Ethernet, 2.0 GHz Opteron).
MachineSpec dori();

/// The preset named "system_g" or "dori" (the names the CLIs and the query
/// service accept). Throws std::invalid_argument on any other name.
MachineSpec machine_preset(const std::string& name);

/// Returns `m` with the two-level network enabled: same-node messages use a
/// shared-memory-class link (intra_t_s, intra_bw_Bps) instead of the NIC.
/// Passing 0 for either parameter keeps the preset's defaults, which are
/// derived from the ratio of shared-memory to NIC MPPTest curves on
/// InfiniBand-class systems (lower latency, higher bandwidth than the NIC).
MachineSpec with_intra_node_link(MachineSpec m, double intra_t_s = 0.0,
                                 double intra_bw_Bps = 0.0);

}  // namespace isoee::sim
