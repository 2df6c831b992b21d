//! Cooperative cancellation of in-flight annealing runs.
//!
//! A wedged integration — an effectively infinite-stiffness window, an
//! unreachable tolerance, a pathological budget — would otherwise hold
//! its worker thread forever: the integrator loops are pure compute
//! with no I/O a supervisor could interrupt. [`CancelToken`] is the
//! cooperative escape hatch: the integrators ([`run`] and the adaptive
//! engine) poll the token once per integration step
//! and bail out with an unconverged report the moment it fires.
//!
//! Design constraints, in order:
//!
//! - **Bit-invisible when never fired.** Polling is one relaxed atomic
//!   load behind an `Option` branch; it reads no machine state, draws
//!   no randomness, and allocates nothing. A run whose token never
//!   fires is arithmetically identical to a run without a token.
//! - **Cheap enough for the hot loop.** One load per step is noise next
//!   to the `O(n²)` mat-vec each step performs.
//! - **Level-triggered, one-shot.** Once fired a token stays fired:
//!   every subsequent run observing it returns immediately (zero
//!   steps), which is what lets a guarded batch drain instantly after
//!   a watchdog cancellation.
//!
//! [`run`]: crate::RealValuedDspu::run

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared one-shot cancellation flag.
///
/// Clones observe the same flag; firing any clone fires them all.
/// Attach one to a machine with
/// [`RealValuedDspu::set_cancel`](crate::RealValuedDspu::set_cancel)
/// and fire it from a supervisor thread to stop a hung anneal at the
/// next integration step.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, unfired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!token.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(token.is_cancelled() && clone.is_cancelled());
        // Idempotent.
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn fresh_tokens_are_independent() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
