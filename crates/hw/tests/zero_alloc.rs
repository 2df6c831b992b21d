//! Proves the zero-allocation contract of repeated co-anneals: after
//! one warm-up run sizes the machine's pooled scratch, loading and
//! co-annealing further samples performs **zero** heap allocations,
//! including the integrating readout that a time-multiplexed mapping
//! always latches. A counting `#[global_allocator]` wrapper makes the
//! claim empirical; the counter is thread-local, so only allocations
//! made by the thread running the test count.
//!
//! The machine is small enough that the tiled mat-vec stays on its
//! serial path, so the count covers the integrator and kernel code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsgl_core::{decompose, DecomposeConfig, DsGlModel, PatternKind, VariableLayout};
use dsgl_data::Sample;
use dsgl_hw::{HwConfig, MappedMachine};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

thread_local! {
    static TL_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn local_allocs() -> usize {
    TL_ALLOCS.with(|c| c.get())
}

/// Passes every request straight to [`System`] while counting calls
/// made by the current thread. `try_with` keeps the allocator safe
/// during TLS teardown, when the slot is no longer accessible.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = TL_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn time_multiplexed_runs_allocate_nothing_after_warmup() {
    let n = 12;
    let layout = VariableLayout::new(1, n, 1);
    let mut model = DsGlModel::new(layout);
    let total = layout.total();
    let mut rng = StdRng::seed_from_u64(0xA110C);
    for a in 0..total {
        for b in (a + 1)..total {
            model
                .coupling_mut()
                .set(a, b, 0.3 * (rng.random::<f64>() - 0.5));
        }
    }
    for v in 0..total {
        model.h_mut()[v] = -(0.5 + model.coupling().row_abs_sum(v));
    }
    let windows: Vec<Sample> = (0..4)
        .map(|_| Sample {
            history: (0..n).map(|_| rng.random::<f64>() * 0.8 - 0.4).collect(),
            target: vec![0.0; n],
        })
        .collect();
    let cfg = DecomposeConfig {
        density: 0.5,
        pattern: PatternKind::DMesh,
        wormhole_budget: 2,
        pe_capacity: 7,
        grid: (2, 2),
        finetune: None,
    };
    let d = decompose(&model, &windows, &cfg, &mut rng).unwrap();
    let hw = HwConfig {
        lanes: 1,
        ..HwConfig::default()
    };
    let mut machine = MappedMachine::new(&d, hw.lanes).unwrap();
    assert!(machine.max_slices() > 1, "the mapping must time-multiplex");

    // Warm-up: the first run sizes every pooled buffer.
    machine.load_sample(&windows[0], &mut rng).unwrap();
    machine.run(&hw, &mut rng);

    let before = local_allocs();
    for _ in 0..5 {
        for w in &windows {
            machine.load_sample(w, &mut rng).unwrap();
            machine.run(&hw, &mut rng);
        }
    }
    let allocs = local_allocs() - before;
    assert_eq!(allocs, 0, "20 warm co-anneals allocated {allocs} times");
}
