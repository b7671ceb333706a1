use std::sync::atomic::{AtomicU64, Ordering};

/// An atomically-updatable `f64`, implemented with compare-and-swap over the
/// bit representation.
///
/// The paper's Low++ IL gives `+=` its own syntactic category precisely so
/// the backend knows which increments must be executed atomically when a
/// loop is parallelized (`AtmPar`). The simulated device executes threads
/// deterministically on one core, but the stress tests in this crate run
/// the same primitive under real OS threads (`std::thread::scope`) to
/// validate that the semantics the simulator assumes (atomic
/// read-modify-write, no lost updates) hold.
///
/// # Example
///
/// ```
/// use gpu_sim::AtomicF64;
///
/// let a = AtomicF64::new(1.0);
/// a.fetch_add(2.5);
/// assert_eq!(a.load(), 3.5);
/// ```
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a new atomic holding `value`.
    pub fn new(value: f64) -> Self {
        AtomicF64(AtomicU64::new(value.to_bits()))
    }

    /// Loads the current value.
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Stores `value`.
    pub fn store(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed)
    }

    /// Atomically adds `delta`, returning the previous value.
    pub fn fetch_add(&self, delta: f64) -> f64 {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(current) + delta).to_bits();
            match self.0.compare_exchange_weak(current, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(prev) => return f64::from_bits(prev),
                Err(seen) => current = seen,
            }
        }
    }
}

impl Default for AtomicF64 {
    fn default() -> Self {
        AtomicF64::new(0.0)
    }
}

impl From<f64> for AtomicF64 {
    fn from(value: f64) -> Self {
        AtomicF64::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_add() {
        let a = AtomicF64::new(0.0);
        for _ in 0..100 {
            a.fetch_add(0.5);
        }
        assert_eq!(a.load(), 50.0);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = AtomicF64::new(1.0);
        assert_eq!(a.fetch_add(2.0), 1.0);
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn no_lost_updates_under_real_threads() {
        let a = AtomicF64::new(0.0);
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        a.fetch_add(1.0);
                    }
                });
            }
        });
        assert_eq!(a.load(), (threads * per_thread) as f64);
    }

    #[test]
    fn store_and_default() {
        let a = AtomicF64::default();
        assert_eq!(a.load(), 0.0);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }
}
