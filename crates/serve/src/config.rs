//! Service configuration: worker pool size, coalescing, admission, SLO,
//! supervision (watchdog, crash retries, brownout), and chaos injection.

use dsgl_core::inference::WarmStart;
use dsgl_ising::fault::FaultModel;
use std::time::Duration;

use crate::chaos::ChaosConfig;
use crate::ServeError;

/// Tuning knobs for a [`ForecastService`](crate::ForecastService).
///
/// The defaults serve correctly out of the box: one worker, batches of
/// up to 8 coalesced requests, a 64-deep admission queue, a 200 µs
/// batch-forming linger, no deadline (never degrade on latency), and a
/// fault-free substrate. The scheduling knobs can never change forecast
/// bits — they only move latency, throughput, and shed/degrade
/// behaviour. The two knobs that *do* shape forecasts do so
/// deterministically per request, independent of load and batching:
/// [`faults`](Self::faults) (explicit substrate degradation) and
/// [`warm_start`](Self::warm_start) (a per-window pure function of the
/// machine — see its field docs).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads pulling batches off the queue (each owns a
    /// pooled machine/workspace pair).
    pub workers: usize,
    /// Maximum requests coalesced into one batched inference call.
    pub coalesce: usize,
    /// Admission-queue depth; a full queue rejects new requests with
    /// [`ServeError::Overloaded`] instead of growing a backlog.
    pub queue_capacity: usize,
    /// How long a worker lingers for a partial batch to fill before
    /// running it. Grouping never changes bits, so this only trades a
    /// bounded latency bump for wider batches.
    pub linger: Duration,
    /// Optional SLO deadline measured from admission. A request still
    /// queued past its deadline is answered with the sanitised
    /// persistence fallback (degraded, finite, instant) instead of
    /// annealing even later. `None` disables SLO degradation.
    pub deadline: Option<Duration>,
    /// Fault model injected into every pooled forecaster (for chaos
    /// drills and the degradation test battery).
    pub faults: FaultModel,
    /// Optional hung-anneal watchdog: a worker whose batch has been
    /// annealing longer than this has its
    /// [`CancelToken`](dsgl_ising::CancelToken) fired by the supervisor
    /// thread. The cancelled requests are re-enqueued (up to
    /// [`crash_retries`](Self::crash_retries)) and then served the
    /// persistence fallback. `None` disables the watchdog (and the
    /// per-batch token entirely — zero supervision overhead).
    pub watchdog: Option<Duration>,
    /// How many times an in-flight request orphaned by a worker panic
    /// or a watchdog cancellation is re-enqueued before the service
    /// gives up on annealing it (panic → typed
    /// [`ServeError::WorkerCrashed`]; cancellation → persistence
    /// fallback).
    pub crash_retries: u32,
    /// Optional graduated brownout admission. `None` keeps the binary
    /// full-queue shed of PR 6.
    pub brownout: Option<BrownoutPolicy>,
    /// Test-only fault injection into the live service (worker panics,
    /// hung windows). [`ChaosConfig::none`] in production.
    pub chaos: ChaosConfig,
    /// Ring capacity of the service's black-box
    /// [`FlightRecorder`](dsgl_core::FlightRecorder): how many recent
    /// structured events (worker panics, watchdog fires, brownout
    /// edges, SLO fallbacks) a
    /// [`flight_dump`](crate::ForecastService::flight_dump) retains.
    /// The recorder is always on — events are rare failure edges, never
    /// per-request work — so this only bounds post-mortem memory.
    pub flight_capacity: usize,
    /// How each served window seeds its machine (default
    /// [`WarmStart::Cold`], the bit-exact historical behaviour).
    /// [`WarmStart::Multigrid`] warm-starts every window from a
    /// Louvain-coarsened coarse solve; because the warm start is a pure
    /// per-window function of the machine (internally seeded, zero
    /// caller-RNG draws), request coalescing and batch regrouping remain
    /// bit-invisible.
    pub warm_start: WarmStart,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            coalesce: 8,
            queue_capacity: 64,
            linger: Duration::from_micros(200),
            deadline: None,
            faults: FaultModel::none(),
            watchdog: None,
            crash_retries: 2,
            brownout: None,
            chaos: ChaosConfig::none(),
            flight_capacity: 256,
            warm_start: WarmStart::Cold,
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count (≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the maximum coalesced batch width (≥ 1).
    pub fn coalesce(mut self, width: usize) -> Self {
        self.coalesce = width;
        self
    }

    /// Sets the admission-queue capacity (≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the batch-forming linger.
    pub fn linger(mut self, linger: Duration) -> Self {
        self.linger = linger;
        self
    }

    /// Sets the SLO deadline (measured from admission).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Injects a fault model into the pooled forecasters.
    pub fn faults(mut self, faults: FaultModel) -> Self {
        self.faults = faults;
        self
    }

    /// Arms the hung-anneal watchdog.
    pub fn watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog = Some(deadline);
        self
    }

    /// Sets the re-enqueue budget for crash/cancel-orphaned requests.
    pub fn crash_retries(mut self, retries: u32) -> Self {
        self.crash_retries = retries;
        self
    }

    /// Enables graduated brownout admission.
    pub fn brownout(mut self, policy: BrownoutPolicy) -> Self {
        self.brownout = Some(policy);
        self
    }

    /// Arms test-only chaos injection.
    pub fn chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = chaos;
        self
    }

    /// Sets the flight-recorder ring capacity (≥ 1).
    pub fn flight_capacity(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }

    /// Sets the per-window warm-start policy (see the field docs).
    pub fn warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = warm;
        self
    }

    /// Convenience for
    /// [`warm_start`](Self::warm_start)`(WarmStart::Multigrid {..})`.
    pub fn multigrid(self, levels: usize, coarse_tol: f64) -> Self {
        self.warm_start(WarmStart::Multigrid { levels, coarse_tol })
    }

    /// Rejects configurations the service cannot run.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] on a zero worker count, zero
    /// coalesce width, or zero queue capacity.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "worker count must be at least 1".to_owned(),
            });
        }
        if self.coalesce == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "coalesce width must be at least 1".to_owned(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "queue capacity must be at least 1".to_owned(),
            });
        }
        if self.flight_capacity == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "flight-recorder capacity must be at least 1".to_owned(),
            });
        }
        if self.watchdog.is_some_and(|w| w.is_zero()) {
            return Err(ServeError::InvalidConfig {
                reason: "watchdog deadline must be non-zero".to_owned(),
            });
        }
        if let Some(b) = &self.brownout {
            b.validate()?;
        }
        if self.chaos.hang_on_seed.is_some() && self.watchdog.is_none() {
            return Err(ServeError::InvalidConfig {
                reason: "hang chaos requires a watchdog (nothing else can unwedge the worker)"
                    .to_owned(),
            });
        }
        if let WarmStart::Multigrid { coarse_tol, .. } = self.warm_start {
            if !coarse_tol.is_finite() || coarse_tol <= 0.0 {
                return Err(ServeError::InvalidConfig {
                    reason: "multigrid coarse tolerance must be finite and positive".to_owned(),
                });
            }
        }
        Ok(())
    }
}

/// Graduated brownout admission: a supervisor-computed health score
/// (queue fill + weighted retry rate + weighted recent crashes) drives
/// the service through three tiers with hysteresis:
///
/// - **Normal** (tier 0): admit everything the queue has room for.
/// - **Brownout** (tier 1): admit only requests that coalesce with one
///   already queued (they cost nothing extra to anneal) and shorten the
///   effective SLO deadline to [`deadline`](Self::deadline); everything
///   else is shed with a retry-after hint.
/// - **Shed** (tier 2): admit nothing.
///
/// Hysteresis (`exit < enter`, `shed_exit < shed_enter`) keeps the tier
/// from flapping on a score hovering at a threshold. Admission tiering
/// never touches forecast bits — it only decides *whether* a request is
/// served, never *how*.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutPolicy {
    /// Score at or above which Normal degrades to Brownout.
    pub enter: f64,
    /// Score at or below which Brownout recovers to Normal.
    pub exit: f64,
    /// Score at or above which any tier escalates to Shed.
    pub shed_enter: f64,
    /// Score at or below which Shed de-escalates (to Brownout, or
    /// straight to Normal below [`exit`](Self::exit)).
    pub shed_exit: f64,
    /// Effective SLO deadline while browned out (usually shorter than
    /// [`ServeConfig::deadline`]): queued requests past it take the
    /// persistence fallback, freeing anneal capacity for the rest.
    pub deadline: Duration,
    /// Weight of the guard retry rate (retries per served window since
    /// the last tick) in the health score.
    pub retry_weight: f64,
    /// Weight of recent worker crashes (capped at 2 per tick) in the
    /// health score.
    pub crash_weight: f64,
    /// Supervisor re-scoring cadence.
    pub tick: Duration,
}

impl Default for BrownoutPolicy {
    /// Enter brownout at score 0.75 (≈ ¾ queue fill with healthy
    /// guards), recover at 0.4; shed at 1.5, recover from shed at 0.9;
    /// 25 ms brownout deadline, unit retry weight, half-unit crash
    /// weight, 5 ms tick.
    fn default() -> Self {
        BrownoutPolicy {
            enter: 0.75,
            exit: 0.4,
            shed_enter: 1.5,
            shed_exit: 0.9,
            deadline: Duration::from_millis(25),
            retry_weight: 1.0,
            crash_weight: 0.5,
            tick: Duration::from_millis(5),
        }
    }
}

impl BrownoutPolicy {
    /// Rejects thresholds that cannot express a hysteresis band.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when thresholds are unordered or
    /// non-finite, weights are negative or non-finite, or a duration is
    /// zero.
    pub fn validate(&self) -> Result<(), ServeError> {
        let invalid = |reason: &str| {
            Err(ServeError::InvalidConfig {
                reason: format!("brownout: {reason}"),
            })
        };
        let nums = [
            self.enter,
            self.exit,
            self.shed_enter,
            self.shed_exit,
            self.retry_weight,
            self.crash_weight,
        ];
        if nums.iter().any(|v| !v.is_finite()) {
            return invalid("thresholds and weights must be finite");
        }
        if self.retry_weight < 0.0 || self.crash_weight < 0.0 {
            return invalid("weights must be non-negative");
        }
        if !(self.exit <= self.enter && self.enter <= self.shed_enter) {
            return invalid("need exit <= enter <= shed_enter");
        }
        if self.shed_exit > self.shed_enter {
            return invalid("need shed_exit <= shed_enter");
        }
        if self.deadline.is_zero() || self.tick.is_zero() {
            return invalid("deadline and tick must be non-zero");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_builders_chain() {
        let cfg = ServeConfig::default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.coalesce, 8);
        assert!(cfg.deadline.is_none());

        let cfg = ServeConfig::default()
            .workers(4)
            .coalesce(16)
            .queue_capacity(2)
            .linger(Duration::from_millis(1))
            .deadline(Duration::from_millis(50));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.coalesce, 16);
        assert_eq!(cfg.queue_capacity, 2);
        assert_eq!(cfg.deadline, Some(Duration::from_millis(50)));
    }

    #[test]
    fn zero_knobs_are_rejected() {
        for cfg in [
            ServeConfig::default().workers(0),
            ServeConfig::default().coalesce(0),
            ServeConfig::default().queue_capacity(0),
            ServeConfig::default().watchdog(Duration::ZERO),
            ServeConfig::default().flight_capacity(0),
        ] {
            assert!(matches!(
                cfg.validate(),
                Err(ServeError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn supervision_knobs_validate() {
        let cfg = ServeConfig::default()
            .watchdog(Duration::from_millis(100))
            .crash_retries(3)
            .brownout(BrownoutPolicy::default());
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.watchdog, Some(Duration::from_millis(100)));
        assert_eq!(cfg.crash_retries, 3);

        // Hang chaos without a watchdog would wedge a worker forever.
        let cfg = ServeConfig::default().chaos(ChaosConfig::none().hang_on_seed(7, 1));
        assert!(matches!(
            cfg.validate(),
            Err(ServeError::InvalidConfig { .. })
        ));
        let cfg = ServeConfig::default()
            .watchdog(Duration::from_millis(50))
            .chaos(ChaosConfig::none().hang_on_seed(7, 1));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn warm_start_policies_are_vetted() {
        // Default stays cold, and multigrid is an accepted policy.
        assert_eq!(ServeConfig::default().warm_start, WarmStart::Cold);
        let cfg = ServeConfig::default().multigrid(2, 1e-3);
        assert!(cfg.validate().is_ok());
        assert_eq!(
            cfg.warm_start,
            WarmStart::Multigrid {
                levels: 2,
                coarse_tol: 1e-3
            }
        );
        // Degenerate coarse tolerances are caught at config time.
        for tol in [0.0, -1.0, f64::NAN] {
            let cfg = ServeConfig::default().multigrid(1, tol);
            assert!(matches!(
                cfg.validate(),
                Err(ServeError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn brownout_hysteresis_bands_are_enforced() {
        assert!(BrownoutPolicy::default().validate().is_ok());
        let bad = [
            BrownoutPolicy {
                exit: 0.9,
                enter: 0.5,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                enter: 2.0,
                shed_enter: 1.0,
                shed_exit: 0.5,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                shed_exit: 5.0,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                retry_weight: -1.0,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                enter: f64::NAN,
                ..BrownoutPolicy::default()
            },
            BrownoutPolicy {
                tick: Duration::ZERO,
                ..BrownoutPolicy::default()
            },
        ];
        for policy in bad {
            assert!(
                matches!(policy.validate(), Err(ServeError::InvalidConfig { .. })),
                "policy should be rejected: {policy:?}"
            );
        }
    }
}
