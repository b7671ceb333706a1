//! A SIMT device simulator — the GPU substrate for the AugurV2 reproduction.
//!
//! The paper evaluates AugurV2's GPU backend on an Nvidia Titan Black. This
//! reproduction targets a machine with no GPU (and a single CPU core), so
//! the device is *simulated*: Blk IL kernels are executed with correct
//! parallel semantics (deterministic thread interleaving, atomic
//! read-modify-write), while a **virtual clock** advances according to an
//! explicit cost model of a SIMT machine — kernel-launch latency, warp-wide
//! throughput over a fixed number of lanes, atomic-contention
//! serialization, and tree reductions.
//!
//! The cost model is what makes the paper's evaluation *shape*
//! reproducible:
//!
//! * small models (HLR on German Credit) are dominated by launch overhead,
//!   so the GPU loses to the CPU (§7.2 "an order of magnitude worse");
//! * wide data-parallel models (LDA, HGMM) amortize the overhead over
//!   hundreds of thousands of threads and win by single-digit factors
//!   (Fig. 12);
//! * converting a contended `AtmPar` loop into a `sumBlk` map-reduce
//!   removes the serialization term (§5.4).
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Device, DeviceConfig};
//!
//! let mut dev = Device::new(DeviceConfig::titan_black_like());
//! let mut k = dev.begin_kernel();
//! for _ in 0..1000 {
//!     k.thread_work(4); // four work units per thread
//! }
//! k.finish(1000);
//! assert!(dev.elapsed_ns() > 0.0);
//! assert_eq!(dev.counters().launches, 1);
//! ```

#![deny(missing_docs)]

mod atomic;
mod cost;
mod device;

pub use atomic::AtomicF64;
pub use cost::{CostBreakdown, DeviceConfig};
pub use device::{Counters, Device, KernelScope};
