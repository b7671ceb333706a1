use std::collections::HashSet;

use crate::cost::{atomic_time, compute_time, reduce_time, CostBreakdown, DeviceConfig};

/// Aggregate activity counters for a simulated device.
///
/// Every counter records activity the Blk-IL executor reports: work
/// units (counted identically by every engine in `augur-backend`),
/// threads, atomics, reductions and transfers. None depends on how the
/// executor dispatches its instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Kernels launched.
    pub launches: u64,
    /// Threads executed across all kernels.
    pub threads: u64,
    /// Total work units retired.
    pub work_units: u64,
    /// Atomic read-modify-writes issued.
    pub atomic_ops: u64,
    /// Reductions performed (sumBlk executions).
    pub reductions: u64,
    /// Bytes transferred between host and device.
    pub transfer_bytes: u64,
}

/// The simulated SIMT device.
///
/// The Blk IL executor in `augur-backend` (the reference tree-walking
/// interpreter) runs kernel bodies itself, with correct parallel
/// semantics, and reports the activity here; the device turns activity
/// into virtual time using [`DeviceConfig`]'s cost model.
///
/// # Example
///
/// ```
/// use gpu_sim::{Device, DeviceConfig};
///
/// let mut dev = Device::new(DeviceConfig::titan_black_like());
/// dev.transfer(1 << 20); // ship 1 MiB of data to the device
/// let t0 = dev.elapsed_ns();
/// assert!(t0 > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Device {
    config: DeviceConfig,
    clock_ns: f64,
    counters: Counters,
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Device { config, clock_ns: 0.0, counters: Counters::default() }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Virtual time elapsed since creation, in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.clock_ns
    }

    /// Virtual time elapsed, in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.clock_ns * 1e-9
    }

    /// Activity counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Charges a host↔device transfer of `bytes`.
    pub fn transfer(&mut self, bytes: u64) {
        self.counters.transfer_bytes += bytes;
        self.clock_ns += bytes as f64 * self.config.transfer_ns_per_byte;
    }

    /// Charges a scalar read-back to the host (one synchronous 8-byte
    /// `cudaMemcpy`): the per-result latency that dominates small
    /// gradient-based models.
    pub fn readback(&mut self) {
        self.counters.transfer_bytes += 8;
        self.clock_ns += self.config.readback_ns;
    }

    /// Begins accounting for one kernel launch. The returned scope collects
    /// per-thread work and atomic traffic; [`KernelScope::finish`] charges
    /// the total cost to the device clock.
    pub fn begin_kernel(&mut self) -> KernelScope<'_> {
        KernelScope {
            device: self,
            total_work: 0.0,
            atomic_ops: 0,
            atomic_locations: HashSet::new(),
        }
    }

    /// Charges a map-reduce (`sumBlk`) over `n` elements with
    /// `work_per_elem` work units each. Returns the breakdown.
    pub fn reduce(&mut self, n: usize, work_per_elem: f64) -> CostBreakdown {
        let breakdown = CostBreakdown {
            launch_ns: self.config.launch_overhead_ns,
            compute_ns: 0.0,
            atomic_ns: 0.0,
            reduce_ns: reduce_time(&self.config, n, work_per_elem),
        };
        self.counters.launches += 1;
        self.counters.reductions += 1;
        self.counters.threads += n as u64;
        self.counters.work_units += (n as f64 * work_per_elem) as u64;
        self.clock_ns += breakdown.total_ns();
        breakdown
    }

    /// Charges sequential host-side work (a `seqBlk`): no launch overhead,
    /// single-lane throughput.
    pub fn sequential(&mut self, work_units: f64) {
        self.counters.work_units += work_units as u64;
        self.clock_ns += work_units * self.config.work_unit_ns;
    }
}

/// Accounting scope for a single kernel launch; see
/// [`Device::begin_kernel`].
#[derive(Debug)]
pub struct KernelScope<'a> {
    device: &'a mut Device,
    total_work: f64,
    atomic_ops: u64,
    atomic_locations: HashSet<u64>,
}

impl KernelScope<'_> {
    /// Records `units` work units executed by the current thread.
    pub fn thread_work(&mut self, units: u64) {
        self.total_work += units as f64;
    }

    /// Records an atomic read-modify-write to the flat location id `loc`.
    pub fn atomic(&mut self, loc: u64) {
        self.atomic_ops += 1;
        self.atomic_locations.insert(loc);
    }

    /// Ends the kernel: charges launch overhead, throughput-limited compute
    /// time for `threads` threads, and the atomic serialization term.
    /// Returns the cost breakdown.
    pub fn finish(self, threads: usize) -> CostBreakdown {
        let cfg = self.device.config.clone();
        let breakdown = CostBreakdown {
            launch_ns: cfg.launch_overhead_ns,
            compute_ns: compute_time(&cfg, threads, self.total_work),
            atomic_ns: atomic_time(&cfg, self.atomic_ops, self.atomic_locations.len() as u64),
            reduce_ns: 0.0,
        };
        self.device.counters.launches += 1;
        self.device.counters.threads += threads as u64;
        self.device.counters.work_units += self.total_work as u64;
        self.device.counters.atomic_ops += self.atomic_ops;
        self.device.clock_ns += breakdown.total_ns();
        breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let mut dev = Device::new(DeviceConfig::titan_black_like());
        let mut k = dev.begin_kernel();
        k.thread_work(10);
        let b = k.finish(1);
        assert!(b.launch_ns > b.compute_ns * 10.0);
    }

    #[test]
    fn wide_kernels_amortize_launch() {
        let mut dev = Device::new(DeviceConfig::titan_black_like());
        let mut k = dev.begin_kernel();
        for _ in 0..500_000 {
            k.thread_work(20);
        }
        let b = k.finish(500_000);
        assert!(b.compute_ns > b.launch_ns, "{b:?}");
    }

    #[test]
    fn atomics_count_every_op() {
        let mut dev = Device::new(DeviceConfig::default());
        let mut k = dev.begin_kernel();
        for i in 0..1000u64 {
            k.atomic(i % 2); // two hot locations
        }
        k.finish(1000);
        assert_eq!(dev.counters().atomic_ops, 1000);
    }

    #[test]
    fn reduce_cheaper_than_hot_atomics() {
        let cfg = DeviceConfig::titan_black_like();
        let mut with_atomics = Device::new(cfg.clone());
        let mut k = with_atomics.begin_kernel();
        for _ in 0..100_000u64 {
            k.thread_work(1);
            k.atomic(0);
        }
        k.finish(100_000);

        let mut with_reduce = Device::new(cfg);
        with_reduce.reduce(100_000, 1.0);

        assert!(with_reduce.elapsed_ns() < with_atomics.elapsed_ns());
    }

    #[test]
    fn sequential_work_charges_single_lane() {
        let mut dev = Device::new(DeviceConfig::titan_black_like());
        dev.sequential(1000.0);
        assert!((dev.elapsed_ns() - 1000.0 * dev.config().work_unit_ns).abs() < 1e-9);
        assert_eq!(dev.counters().launches, 0);
    }
}
