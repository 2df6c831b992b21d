//! Thread-count control for parallel training and inference kernels.
//!
//! All multi-threaded code in this crate (ridge solves, gradient
//! accumulation, batch annealing) is written so that splitting work
//! across threads never changes the order of floating-point operations
//! within any output value: results are bit-identical for every
//! [`Threading`] choice and for the serial (`--no-default-features`)
//! build. The knob therefore only trades wall-clock time, never
//! numerics.

/// How many worker threads parallel kernels may use.
///
/// # Example
///
/// ```
/// use dsgl_core::Threading;
///
/// let serial = Threading::Sequential.install(|| expensive());
/// let fixed = Threading::Fixed(4).install(|| expensive());
/// // Bit-identical regardless of thread count.
/// # fn expensive() -> f64 { 1.0 }
/// assert_eq!(serial, fixed);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threading {
    /// Run everything on the calling thread.
    Sequential,
    /// Let the thread pool decide (respects `RAYON_NUM_THREADS`, else
    /// one thread per available core).
    #[default]
    Auto,
    /// Use exactly this many worker threads (values of 0 are treated
    /// as 1).
    Fixed(usize),
}

impl Threading {
    /// Runs `f` with this thread-count policy active; every parallel
    /// kernel invoked inside `f` observes it. With the `parallel`
    /// feature disabled this is a plain call.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        #[cfg(feature = "parallel")]
        {
            let threads = match self {
                Threading::Sequential => Some(1),
                Threading::Auto => None,
                Threading::Fixed(k) => Some((*k).max(1)),
            };
            match threads {
                Some(k) => rayon::ThreadPoolBuilder::new()
                    .num_threads(k)
                    .build()
                    .expect("thread pool construction cannot fail")
                    .install(f),
                None => f(),
            }
        }
        #[cfg(not(feature = "parallel"))]
        {
            f()
        }
    }

    /// Number of worker threads this policy resolves to right now.
    pub fn resolved_threads(&self) -> usize {
        #[cfg(feature = "parallel")]
        {
            match self {
                Threading::Sequential => 1,
                Threading::Auto => rayon::current_num_threads(),
                Threading::Fixed(k) => (*k).max(1),
            }
        }
        #[cfg(not(feature = "parallel"))]
        {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_runs_closure_under_every_policy() {
        for policy in [
            Threading::Sequential,
            Threading::Auto,
            Threading::Fixed(0),
            Threading::Fixed(4),
        ] {
            assert_eq!(policy.install(|| 41 + 1), 42);
            assert!(policy.resolved_threads() >= 1);
        }
    }

    #[test]
    fn sequential_resolves_to_one_thread() {
        assert_eq!(Threading::Sequential.resolved_threads(), 1);
        #[cfg(feature = "parallel")]
        assert_eq!(Threading::Fixed(3).resolved_threads(), 3);
        #[cfg(not(feature = "parallel"))]
        assert_eq!(Threading::Fixed(3).resolved_threads(), 1);
    }
}
