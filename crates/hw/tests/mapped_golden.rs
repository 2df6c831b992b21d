//! Golden bits of the PE-mesh co-anneal.
//!
//! Each case fingerprints mapped runs on a small fixed decomposed model
//! with FNV-1a over the prediction bits and the `Debug` rendering of
//! the run's report (which prints every f64 in shortest round-trip
//! form). The constants pin the mapped integrator's arithmetic and RNG
//! consumption: a refactor of `MappedMachine::run` must reproduce them
//! exactly, under both the SIMD and the scalar tile kernels.

use dsgl_core::{
    decompose, DecomposeConfig, DecomposedModel, DsGlModel, PatternKind, VariableLayout,
};
use dsgl_data::Sample;
use dsgl_hw::coanneal::{evaluate_mapped_imputation, MappedMachine};
use dsgl_hw::{HwConfig, HwFaultModel};
use dsgl_ising::NoiseModel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// FNV-1a, 64-bit, folded into `hash`.
fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// 16 history and 16 target variables with random couplings and
/// diagonally dominant `h`, decomposed onto a 2×2 DMesh without
/// fine-tuning, plus six windows with non-trivial targets.
fn decomposed() -> (DecomposedModel, Vec<Sample>) {
    let n = 16;
    let layout = VariableLayout::new(1, n, 1);
    let mut model = DsGlModel::new(layout);
    let total = layout.total();
    let mut rng = StdRng::seed_from_u64(0x3E5A);
    {
        let j = model.coupling_mut();
        for a in 0..total {
            for b in (a + 1)..total {
                j.set(a, b, 0.3 * (rng.random::<f64>() - 0.5));
            }
        }
    }
    let row_sums: Vec<f64> = (0..total)
        .map(|v| model.coupling().row_abs_sum(v))
        .collect();
    for (v, sum) in row_sums.into_iter().enumerate() {
        model.h_mut()[v] = -(0.5 + sum);
    }
    let windows: Vec<Sample> = (0..6)
        .map(|_| Sample {
            history: (0..n).map(|_| rng.random::<f64>() * 0.8 - 0.4).collect(),
            target: (0..n).map(|_| rng.random::<f64>() * 0.6 - 0.3).collect(),
        })
        .collect();
    let cfg = DecomposeConfig {
        density: 0.5,
        pattern: PatternKind::DMesh,
        wormhole_budget: 2,
        pe_capacity: 9,
        grid: (2, 2),
        finetune: None,
    };
    let d = decompose(&model, &windows, &cfg, &mut rng).unwrap();
    (d, windows)
}

/// Loads and co-anneals every window on one machine, folding each
/// prediction and report into one checksum.
fn run_windows(machine: &mut MappedMachine, windows: &[Sample], hw: &HwConfig, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for w in windows {
        machine.load_sample(w, &mut rng).unwrap();
        let report = machine.run(hw, &mut rng);
        for v in machine.prediction() {
            fnv(&mut hash, &v.to_bits().to_le_bytes());
        }
        fnv(&mut hash, format!("{report:?}").as_bytes());
    }
    hash
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: checksum {got:#018x}, golden {want:#018x}"
    );
}

#[test]
fn spatial_noiseless() {
    let (d, windows) = decomposed();
    let hw = HwConfig::default();
    let mut machine = MappedMachine::new(&d, hw.lanes).unwrap();
    assert_eq!(machine.max_slices(), 1);
    assert!(machine.link_count() > 0);
    check(
        "spatial_noiseless",
        run_windows(&mut machine, &windows, &hw, 1),
        0x5c7b_077d_0b64_628a,
    );
}

#[test]
fn time_multiplexed() {
    let (d, windows) = decomposed();
    let hw = HwConfig {
        lanes: 1,
        ..HwConfig::default()
    }
    .with_sync_interval(50.0);
    let mut machine = MappedMachine::new(&d, hw.lanes).unwrap();
    assert!(machine.max_slices() > 1);
    check(
        "time_multiplexed",
        run_windows(&mut machine, &windows, &hw, 2),
        0x5430_20d6_34af_0f56,
    );
}

/// Noise on a spatial and on a time-multiplexed machine: the noisy
/// readout window with and without a slice rotation period under it.
#[test]
fn noisy() {
    let (d, windows) = decomposed();
    let mut hash = 0;
    for (lanes, seed) in [(30, 3), (1, 4)] {
        let mut hw = HwConfig {
            lanes,
            ..HwConfig::default()
        };
        hw.anneal.noise = NoiseModel::relative(0.05);
        let mut machine = MappedMachine::new(&d, lanes).unwrap();
        hash ^= run_windows(&mut machine, &windows, &hw, seed);
    }
    check("noisy", hash, 0x5b84_d3a4_4988_9f8a);
}

#[test]
fn imputation() {
    let (d, windows) = decomposed();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for lanes in [30, 1] {
        let hw = HwConfig {
            lanes,
            ..HwConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let report = evaluate_mapped_imputation(&d, &windows, 0.5, &hw, &mut rng).unwrap();
        fnv(&mut hash, format!("{report:?}").as_bytes());
    }
    check("imputation", hash, 0x97ea_4888_eb7d_955c);
}

#[test]
fn dead_pe() {
    let (d, windows) = decomposed();
    let pe = (0..d.pe_count())
        .find(|&p| !d.vars_on(p).is_empty())
        .unwrap();
    let faults = HwFaultModel {
        dead_pes: vec![pe],
        dead_cu_lanes: vec![],
    };
    let hw = HwConfig {
        lanes: 2,
        ..HwConfig::default()
    };
    let mut machine = MappedMachine::with_faults(&d, hw.lanes, &faults).unwrap();
    assert!(!machine.faulted_nodes().is_empty());
    check(
        "dead_pe",
        run_windows(&mut machine, &windows, &hw, 6),
        0x2282_c251_0da0_5a41,
    );
}
