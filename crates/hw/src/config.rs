//! Hardware configuration of a Scalable DSPU.

use dsgl_ising::AnnealConfig;
use serde::{Deserialize, Serialize};

/// Physical parameters of the mapped machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HwConfig {
    /// Analog lanes per exporting portal (`L`). The paper sets 30 "for
    /// better performance and hardware tradeoff".
    pub lanes: usize,
    /// Inter-tile synchronisation interval in ns: how often a PE's view
    /// of remote node voltages is refreshed. The DS-GL hardware supports
    /// 1/200 ns (paper Sec. V.D).
    pub sync_interval_ns: f64,
    /// Dwell time of one temporal-co-annealing slice before the
    /// switch-in-turn rotation, in ns. Must be well below the node RC
    /// constant (≈100 ns) so the capacitors see the *duty-cycled
    /// average* of the rotating couplings rather than chasing each
    /// slice's own equilibrium.
    pub slice_dwell_ns: f64,
    /// The underlying annealing run configuration. The mesh always
    /// integrates strict forward Euler, so its `integrator` and `mode`
    /// are ignored; the time step, budget, tolerance, check interval
    /// and noise apply.
    pub anneal: AnnealConfig,
}

impl HwConfig {
    /// Same configuration with a different annealing-time budget — the
    /// latency knob of paper Fig. 11.
    pub fn with_budget(mut self, max_time_ns: f64) -> Self {
        self.anneal.max_time_ns = max_time_ns;
        self
    }

    /// Same configuration with a different synchronisation interval —
    /// the knob of paper Fig. 12.
    pub fn with_sync_interval(mut self, sync_interval_ns: f64) -> Self {
        self.sync_interval_ns = sync_interval_ns;
        self
    }
}

impl Default for HwConfig {
    /// `L = 30`, 200 ns synchronisation, 20 ns slice dwell, default
    /// annealing (2 µs budget).
    fn default() -> Self {
        HwConfig {
            lanes: 30,
            sync_interval_ns: 200.0,
            slice_dwell_ns: 20.0,
            anneal: AnnealConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HwConfig::default();
        assert_eq!(c.lanes, 30);
        assert_eq!(c.sync_interval_ns, 200.0);
    }

    #[test]
    fn builders() {
        let c = HwConfig::default().with_budget(5_000.0).with_sync_interval(50.0);
        assert_eq!(c.anneal.max_time_ns, 5_000.0);
        assert_eq!(c.sync_interval_ns, 50.0);
        assert_eq!(c.lanes, 30);
    }
}
