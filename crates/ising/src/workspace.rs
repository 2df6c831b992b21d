//! Machine-owned scratch buffers for allocation-free annealing.
//!
//! Every hot path of the DSPU used to allocate per call: `step_rk4`
//! built five `vec![0.0; n]` buffers per step, `max_free_rate` /
//! `energy` one each, the run loop a convergence snapshot and a noise
//! accumulator, and the event-driven engine four active-set vectors per
//! run. A [`Workspace`] pools all of them on the machine itself: the
//! first use of each buffer sizes it, every later use reuses the
//! existing capacity, and a reuse counter (surfaced as the
//! `anneal.workspace_reuses` telemetry instrument) proves the hot path
//! stopped allocating.
//!
//! ## Lifetime rules
//!
//! - The workspace belongs to one [`crate::RealValuedDspu`] and holds
//!   **no observable state**: buffers are dead storage between calls,
//!   and every consumer fully overwrites (or re-initialises) what it
//!   reads. Swapping, clearing, or replacing a workspace can therefore
//!   never change machine output — only allocation traffic.
//! - Hot paths borrow buffers either by disjoint field borrows or by
//!   `std::mem::take` (leaving a cheap empty pool in place) and restore
//!   them before returning, so a panic can at worst cost the pooled
//!   capacity, never correctness.
//! - Batch drivers may migrate a workspace between consecutive machines
//!   ([`crate::RealValuedDspu::take_workspace`] /
//!   [`adopt_workspace`](crate::RealValuedDspu::adopt_workspace)) so
//!   per-window machines stop paying the warm-up allocations — the
//!   buffers carry capacity, not values, across windows.

/// Pooled scratch buffers owned by a [`crate::RealValuedDspu`].
///
/// All fields are dead storage between uses; see the module docs for
/// the lifetime rules. `Default` yields an empty pool that sizes itself
/// on first use.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Coupling currents `J·σ` (Euler step, residual, energy).
    pub(crate) js: Vec<f64>,
    /// RK4 stage slopes.
    pub(crate) k1: Vec<f64>,
    /// RK4 stage slopes.
    pub(crate) k2: Vec<f64>,
    /// RK4 stage slopes.
    pub(crate) k3: Vec<f64>,
    /// RK4 stage slopes.
    pub(crate) k4: Vec<f64>,
    /// RK4 staged state `σ + c·dt·k`.
    pub(crate) stage: Vec<f64>,
    /// Convergence-check snapshot of the previous state (run loop).
    pub(crate) prev: Vec<f64>,
    /// Integrating-readout accumulator (noisy runs).
    pub(crate) acc: Vec<f64>,
    /// Event engine: active-set queue.
    pub(crate) queue: Vec<u32>,
    /// Event engine: per-node membership marks.
    pub(crate) marked: Vec<bool>,
    /// Event engine: staged moves `(node, Δ, new value)`.
    pub(crate) moved: Vec<(u32, f64, f64)>,
    /// Event engine: nodes whose currents changed this step.
    pub(crate) candidates: Vec<u32>,
    /// Buffer preparations served from existing capacity, total.
    reuses_total: u64,
    /// Reuses since the last telemetry report (drained per run).
    reuses_unreported: u64,
}

impl Workspace {
    /// An empty pool; buffers size themselves on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Buffer preparations served without allocating, since this
    /// workspace was created. Monotonic; the per-run telemetry drain
    /// does not reset it.
    pub fn reuses(&self) -> u64 {
        self.reuses_total
    }

    /// Resizes `buf` to `len` zeros; true when the existing capacity
    /// already covered it (no allocation happened).
    pub(crate) fn ensure_f64(buf: &mut Vec<f64>, len: usize) -> bool {
        let reused = buf.capacity() >= len;
        buf.clear();
        buf.resize(len, 0.0);
        reused
    }

    /// Tallies one buffer-preparation event.
    pub(crate) fn note(&mut self, reused: bool) {
        if reused {
            self.reuses_total += 1;
            self.reuses_unreported += 1;
        }
    }

    /// Reuses accumulated since the previous drain — reported as the
    /// `anneal.workspace_reuses` counter at run level.
    pub(crate) fn drain_unreported(&mut self) -> u64 {
        std::mem::take(&mut self.reuses_unreported)
    }

    /// Prepares the Euler-step current buffer.
    pub(crate) fn ensure_step(&mut self, n: usize) {
        let reused = Self::ensure_f64(&mut self.js, n);
        self.note(reused);
    }

    /// Prepares the five RK4 buffers in one go (counted as one event —
    /// either the whole step allocated or none of it did).
    pub(crate) fn ensure_rk4(&mut self, n: usize) {
        let mut reused = true;
        reused &= Self::ensure_f64(&mut self.k1, n);
        reused &= Self::ensure_f64(&mut self.k2, n);
        reused &= Self::ensure_f64(&mut self.k3, n);
        reused &= Self::ensure_f64(&mut self.k4, n);
        reused &= Self::ensure_f64(&mut self.stage, n);
        self.note(reused);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_counts_reuse_only_after_capacity_exists() {
        let mut ws = Workspace::new();
        ws.ensure_step(8);
        assert_eq!(ws.reuses(), 0, "first preparation allocates");
        ws.ensure_step(8);
        ws.ensure_step(4); // shrinking reuses capacity too
        assert_eq!(ws.reuses(), 2);
        ws.ensure_step(16); // growth allocates again
        assert_eq!(ws.reuses(), 2);
        assert_eq!(ws.drain_unreported(), 2);
        assert_eq!(ws.drain_unreported(), 0, "drain resets the unreported tally");
        assert_eq!(ws.reuses(), 2, "total survives the drain");
    }

    #[test]
    fn rk4_preparation_counts_once() {
        let mut ws = Workspace::new();
        ws.ensure_rk4(6);
        ws.ensure_rk4(6);
        ws.ensure_rk4(6);
        assert_eq!(ws.reuses(), 2);
    }
}
