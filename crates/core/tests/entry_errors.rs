//! Malformed inputs to the four `RunCtx` entry points come back as a
//! typed [`CoreError`], never as a panic.
//!
//! Every case runs under both a lockstep-eligible config (strict,
//! noiseless, dense enough) and a noisy one, and at two batch sizes: a
//! single chunk on the calling thread, and a batch large enough to be
//! split into chunks.

use dsgl_core::guard::{infer_batch_guarded, infer_dense_guarded};
use dsgl_core::inference::{infer_batch, infer_dense};
use dsgl_core::{CoreError, DsGlModel, GuardedAnneal, RunCtx, TraceScope, VariableLayout};
use dsgl_data::Sample;
use dsgl_ising::{AnnealConfig, NoiseModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

const NODES: usize = 4;

fn model() -> DsGlModel {
    let mut model = DsGlModel::new(VariableLayout::new(1, NODES, 1));
    model.init_persistence(0.6);
    model
}

fn window(i: usize) -> Sample {
    Sample {
        history: vec![0.05 * i as f64; NODES],
        target: vec![0.0; NODES],
    }
}

/// `n` good windows, with window `bad` replaced by `broken` if given.
fn batch(n: usize, bad: Option<(usize, Sample)>) -> Vec<Sample> {
    let mut windows: Vec<Sample> = (0..n).map(window).collect();
    if let Some((i, broken)) = bad {
        windows[i] = broken;
    }
    windows
}

fn short_history() -> Sample {
    Sample {
        history: vec![0.1; NODES - 1],
        ..window(0)
    }
}

fn nan_history() -> Sample {
    let mut s = window(0);
    s.history[1] = f64::NAN;
    s
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Empty,
    Shape,
    Ising,
}

impl Kind {
    fn matches(self, e: &CoreError) -> bool {
        match self {
            Kind::Empty => matches!(e, CoreError::EmptyTrainingSet),
            Kind::Shape => matches!(e, CoreError::SampleShapeMismatch { .. }),
            Kind::Ising => matches!(e, CoreError::Ising(_)),
        }
    }
}

/// One entry point applied to `(windows, seeds)` under a context that
/// carries the case's scopes; single-window entries take the first
/// window, `infer_batch` ignores the seeds.
type Entry = fn(&DsGlModel, &AnnealConfig, &[Sample], &[u64], &mut RunCtx) -> Result<(), CoreError>;

fn rng() -> StdRng {
    StdRng::seed_from_u64(1)
}

#[test]
fn malformed_inputs_return_typed_errors() {
    let model = model();
    let noisy = AnnealConfig {
        noise: NoiseModel::relative(0.05),
        ..AnnealConfig::default()
    };
    let seeds = |n: usize| (0..n as u64).collect::<Vec<_>>();
    let scopes = |n: usize| vec![TraceScope::noop(); n];
    let entries: [(&str, Entry); 4] = [
        ("infer_dense", |m, cfg, w, _, ctx| {
            infer_dense(m, &w[0], cfg, &mut rng(), ctx).map(drop)
        }),
        ("infer_dense_guarded", |m, cfg, w, _, ctx| {
            infer_dense_guarded(m, &w[0], &GuardedAnneal::new(*cfg), &mut rng(), ctx).map(drop)
        }),
        ("infer_batch", |m, cfg, w, _, ctx| {
            infer_batch(m, w, cfg, 7, ctx).map(drop)
        }),
        ("infer_batch_guarded", |m, cfg, w, seeds, ctx| {
            infer_batch_guarded(m, w, &GuardedAnneal::new(*cfg), seeds, ctx).map(drop)
        }),
    ];
    const ALL: &[usize] = &[0, 1, 2, 3];
    const BATCHES: &[usize] = &[2, 3];
    const SEEDED: &[usize] = &[3];
    let mut checked = 0;
    for cfg in [AnnealConfig::default(), noisy] {
        for n in [3, 20] {
            let (good, bad_last) = (batch(n, None), |broken| batch(n, Some((n - 1, broken))));
            // (case, windows, seeds, scopes, expected error, entries it applies to)
            #[rustfmt::skip]
            let cases = [
                ("empty batch", vec![], vec![], vec![], Kind::Empty, BATCHES),
                ("seed list too short", good.clone(), seeds(n - 1), vec![], Kind::Shape, SEEDED),
                ("scope list mismatch", good, seeds(n), scopes(n + 1), Kind::Shape, ALL),
                ("short history", bad_last(short_history()), seeds(n), vec![], Kind::Shape, ALL),
                ("NaN history value", bad_last(nan_history()), seeds(n), vec![], Kind::Ising, ALL),
            ];
            for (case, windows, seeds, scopes, kind, applies) in &cases {
                for &e in *applies {
                    let (entry, call) = entries[e];
                    // Single-window entries take the first window, so
                    // they see the broken last one reversed to the front.
                    let mut windows = windows.clone();
                    if !BATCHES.contains(&e) {
                        windows.reverse();
                    }
                    let what = format!("{entry}: {case} (batch of {n}, noise {:?})", cfg.noise);
                    let mut ctx = RunCtx {
                        scopes,
                        ..RunCtx::default()
                    };
                    let got = catch_unwind(AssertUnwindSafe(|| {
                        call(&model, &cfg, &windows, seeds, &mut ctx)
                    }))
                    .unwrap_or_else(|_| panic!("{what}: panicked"));
                    match got {
                        Err(e) => assert!(kind.matches(&e), "{what}: expected {kind:?}, got {e:?}"),
                        Ok(()) => panic!("{what}: accepted malformed input"),
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 4 * (2 + 1 + 3 * 4), "every applicable case ran");
}
