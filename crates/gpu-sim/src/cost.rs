/// Configuration of the simulated SIMT device.
///
/// All times are in nanoseconds of virtual time. The defaults are
/// order-of-magnitude calibrations against the Titan Black / Core-i7 pair
/// the paper used; see `DESIGN.md` §2 for the substitution rationale. What
/// matters for reproducing the evaluation is the *ratios*: launch latency
/// vs. per-element work, and device throughput vs. host throughput.
///
/// Every charge is a function of reported activity (work units, threads,
/// atomics, reductions, transfers). There is no per-instruction dispatch
/// term: the device models compiled kernels, not the interpreter that
/// runs them, so virtual time is the same whichever engine executes.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub sms: usize,
    /// SIMT lanes per SM (CUDA cores).
    pub lanes_per_sm: usize,
    /// Fixed virtual-time cost of launching one kernel, in ns. Includes
    /// driver dispatch; this is the term that sinks small models.
    pub launch_overhead_ns: f64,
    /// Virtual time for one work unit on one lane, in ns. A "work unit" is
    /// one Low-- IL operation as counted by the interpreter.
    pub work_unit_ns: f64,
    /// Virtual time for one serialized atomic read-modify-write, in ns.
    pub atomic_ns: f64,
    /// Virtual time per byte of host↔device transfer, in ns.
    pub transfer_ns_per_byte: f64,
    /// Memory-bandwidth floor: no kernel retires faster than
    /// `total_work × mem_ns_per_work_unit`, however many lanes are idle.
    /// This is what caps realistic GPU speedups for memory-bound MCMC
    /// kernels in the single digits (Fig. 12's 2.7–5.8×).
    pub mem_ns_per_work_unit: f64,
    /// Latency of reading one scalar result back to the host (a
    /// `cudaMemcpy` of the accumulated log-likelihood). Charged whenever a
    /// GPU procedure returns a value — this is what sinks small
    /// gradient-based models (§7.2's HLR, "an order of magnitude worse").
    pub readback_ns: f64,
    /// Latency-hiding ramp: a kernel with `W` total work units runs at
    /// utilization `W / (W + latency_hiding_work)` — a device needs enough
    /// in-flight work to hide memory latency, which is why Fig. 12's GPU
    /// advantage *grows* with dataset size and topic count. Zero disables
    /// the ramp.
    pub latency_hiding_work: f64,
    /// Worst-case per-unit cost when the ramp degenerates to (near-)serial
    /// execution: one GPU lane is several times slower than a host core
    /// (lower clock, in-order, no large caches). This caps how badly an
    /// under-occupied kernel can do — and is what makes the small HLR
    /// model's GPU sampler lose to the CPU by about an order of magnitude
    /// (§7.2).
    pub serial_ns_per_work_unit: f64,
}

impl DeviceConfig {
    /// A Titan-Black-like device: 15 SMs × 192 lanes = 2880 cores,
    /// ~5 µs launch latency.
    pub fn titan_black_like() -> Self {
        DeviceConfig {
            sms: 15,
            lanes_per_sm: 192,
            launch_overhead_ns: 8_000.0,
            work_unit_ns: 2.0,
            atomic_ns: 300.0,
            transfer_ns_per_byte: 0.15,
            mem_ns_per_work_unit: 0.11,
            readback_ns: 12_000.0,
            latency_hiding_work: 4.0e6,
            serial_ns_per_work_unit: 8.0,
        }
    }

    /// A single-core host used to model the *CPU* target with the same work
    /// accounting: one lane, no launch overhead, faster per-unit work
    /// (higher clock, no SIMT divergence).
    pub fn host_cpu_like() -> Self {
        DeviceConfig {
            sms: 1,
            lanes_per_sm: 1,
            launch_overhead_ns: 0.0,
            work_unit_ns: 0.8,
            atomic_ns: 0.8,
            transfer_ns_per_byte: 0.0,
            mem_ns_per_work_unit: 0.0,
            readback_ns: 0.0,
            latency_hiding_work: 0.0,
            serial_ns_per_work_unit: 0.8,
        }
    }

    /// Total number of SIMT lanes.
    pub fn total_lanes(&self) -> usize {
        self.sms * self.lanes_per_sm
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig::titan_black_like()
    }
}

/// A per-kernel cost report: the virtual time one launch charged,
/// split into launch / compute / atomic / reduction terms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Launch latency charged, ns.
    pub launch_ns: f64,
    /// Throughput-limited compute term, ns.
    pub compute_ns: f64,
    /// Atomic-contention serialization term, ns.
    pub atomic_ns: f64,
    /// Reduction-tree term, ns.
    pub reduce_ns: f64,
}

impl CostBreakdown {
    /// Total virtual time of the kernel.
    pub fn total_ns(&self) -> f64 {
        self.launch_ns + self.compute_ns + self.atomic_ns + self.reduce_ns
    }
}

/// Computes the throughput-limited compute time for `threads` threads with
/// `total_work` summed work units: the device retires at most
/// `total_lanes` work units per `work_unit_ns`, but at least the critical
/// path of one thread (approximated by the mean thread work) must elapse.
pub(crate) fn compute_time(cfg: &DeviceConfig, threads: usize, total_work: f64) -> f64 {
    if threads == 0 || total_work <= 0.0 {
        return 0.0;
    }
    let lanes = cfg.total_lanes() as f64;
    let mean_thread_work = total_work / threads as f64;
    let throughput_bound = total_work / lanes;
    let compute = throughput_bound.max(mean_thread_work) * cfg.work_unit_ns;
    let bandwidth = total_work * cfg.mem_ns_per_work_unit;
    let base = compute.max(bandwidth);
    if cfg.latency_hiding_work > 0.0 {
        // time = base / utilization, utilization = W / (W + W_half) — but
        // never slower than running the whole kernel serially on one lane
        // (the ramp models under-occupancy, not an absolute slowdown).
        let ramped = base * (total_work + cfg.latency_hiding_work) / total_work;
        let serial = total_work * cfg.serial_ns_per_work_unit;
        ramped.min(serial).max(base)
    } else {
        base
    }
}

/// Computes the serialization penalty of atomics: the hottest location
/// serializes `ops / locations` read-modify-writes (§5.4's contention
/// ratio).
pub(crate) fn atomic_time(cfg: &DeviceConfig, ops: u64, distinct_locations: u64) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    let per_location = ops as f64 / distinct_locations.max(1) as f64;
    per_location * cfg.atomic_ns
}

/// Computes the cost of a tree reduction over `n` elements with `work` work
/// units per element: the map phase is charged exactly like any other
/// kernel (throughput, bandwidth floor, utilization ramp), plus a
/// log-depth combine phase.
pub(crate) fn reduce_time(cfg: &DeviceConfig, n: usize, work_per_elem: f64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let map = compute_time(cfg, n, n as f64 * work_per_elem);
    let depth = (n as f64).log2().ceil().max(1.0);
    map + depth * cfg.work_unit_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_has_2880_lanes() {
        assert_eq!(DeviceConfig::titan_black_like().total_lanes(), 2880);
    }

    #[test]
    fn compute_time_scales_down_with_lanes() {
        let gpu = DeviceConfig::titan_black_like();
        let cpu = DeviceConfig::host_cpu_like();
        let big = 1_000_000usize;
        let gpu_t = compute_time(&gpu, big, big as f64 * 10.0);
        let cpu_t = compute_time(&cpu, big, big as f64 * 10.0);
        assert!(gpu_t < cpu_t, "gpu {gpu_t} should beat cpu {cpu_t} on wide work");
    }

    #[test]
    fn compute_time_bounded_below_by_critical_path() {
        // With the occupancy ramp disabled, one thread doing 1000 units
        // cannot finish faster than 1000 units at lane speed.
        let gpu = DeviceConfig { latency_hiding_work: 0.0, ..DeviceConfig::titan_black_like() };
        let t = compute_time(&gpu, 1, 1000.0);
        assert!((t - 1000.0 * gpu.work_unit_ns).abs() < 1e-9);
        // With the ramp on, an under-occupied kernel degrades to (at
        // worst) the serialized lane rate.
        let ramped = DeviceConfig::titan_black_like();
        let t2 = compute_time(&ramped, 1, 1000.0);
        assert!((t2 - 1000.0 * ramped.serial_ns_per_work_unit).abs() < 1e-9);
    }

    #[test]
    fn atomic_contention_ratio() {
        let cfg = DeviceConfig::titan_black_like();
        // 50k ops on 1 location serialize fully; on 50k locations they don't.
        let hot = atomic_time(&cfg, 50_000, 1);
        let cold = atomic_time(&cfg, 50_000, 50_000);
        assert!(hot / cold > 1000.0);
    }

    #[test]
    fn reduce_beats_hot_atomics() {
        let cfg = DeviceConfig::titan_black_like();
        let n = 50_000;
        let atomics = atomic_time(&cfg, n as u64, 1);
        let reduction = reduce_time(&cfg, n, 1.0);
        assert!(reduction < atomics, "sumBlk ({reduction}) must beat contended AtmPar ({atomics})");
    }

    #[test]
    fn zero_work_costs_nothing() {
        let cfg = DeviceConfig::default();
        assert_eq!(compute_time(&cfg, 0, 0.0), 0.0);
        assert_eq!(atomic_time(&cfg, 0, 0), 0.0);
        assert_eq!(reduce_time(&cfg, 0, 1.0), 0.0);
    }
}
