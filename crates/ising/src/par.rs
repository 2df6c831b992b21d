//! Row-parallel kernel dispatch.
//!
//! Every parallel kernel in this crate funnels through `fill_rows`:
//! output element `i` is produced by an independent closure call `f(i)`,
//! and the parallel path only changes *which thread* evaluates each row,
//! never the order of floating-point operations inside a row. Results
//! are therefore bit-identical across thread counts and to the serial
//! build (`--no-default-features`).

/// Minimum estimated flop count before forking threads is worth it.
///
/// Threads are spawned per call (scoped fork-join), so a kernel must
/// carry roughly a millisecond of work to amortise the spawn cost.
#[cfg(feature = "parallel")]
pub(crate) const PAR_MIN_WORK: usize = 1 << 20;

/// Computes `out[i] = f(i)` for every `i`, splitting rows across
/// threads when the `parallel` feature is enabled and the total work
/// (`out.len() * work_per_row` operation estimate) is large enough.
#[cfg(feature = "parallel")]
pub(crate) fn fill_rows<F>(out: &mut [f64], work_per_row: usize, f: F)
where
    F: Fn(usize) -> f64 + Sync,
{
    use rayon::prelude::*;
    let total_work = out.len().saturating_mul(work_per_row.max(1));
    if total_work < PAR_MIN_WORK || rayon::current_num_threads() <= 1 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(i);
        }
        return;
    }
    out.par_iter_mut().enumerate().for_each(|(i, o)| *o = f(i));
}

/// Serial fallback when the `parallel` feature is disabled.
#[cfg(not(feature = "parallel"))]
pub(crate) fn fill_rows<F>(out: &mut [f64], _work_per_row: usize, f: F)
where
    F: Fn(usize) -> f64 + Sync,
{
    for (i, o) in out.iter_mut().enumerate() {
        *o = f(i);
    }
}

/// Computes `vec![f(0), f(1), …, f(len-1)]`, mapping items across
/// threads when the `parallel` feature is enabled and the estimated
/// work (`len * work_per_item`) is large enough. Order-preserving, so
/// results are position-identical to the serial build. Unlike
/// `fill_rows` the item type is generic — used by kernels that
/// produce a buffer per item and scatter afterwards (the crate forbids
/// unsafe code, so disjoint parallel scatter is not an option) and by
/// `dsgl-core`'s training and batch-inference loops.
#[cfg(feature = "parallel")]
pub fn map_indexed<T, F>(len: usize, work_per_item: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use rayon::prelude::*;
    let total_work = len.saturating_mul(work_per_item.max(1));
    if total_work < PAR_MIN_WORK || rayon::current_num_threads() <= 1 {
        return (0..len).map(f).collect();
    }
    (0..len).into_par_iter().map(f).collect()
}

/// Serial fallback when the `parallel` feature is disabled.
#[cfg(not(feature = "parallel"))]
pub fn map_indexed<T, F>(len: usize, _work_per_item: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    (0..len).map(f).collect()
}

/// Computes `f(start_row, chunk)` over consecutive `chunk`-row slabs of
/// `out`, splitting slabs across threads when the `parallel` feature is
/// enabled and the estimated work (`out.len() * work_per_row`) is large
/// enough. The closure owns each slab exclusively, so multi-row blocked
/// kernels (which share input streams across a few accumulator chains)
/// can run under the same bit-exactness contract as [`fill_rows`]: the
/// slab boundaries are identical in the serial and parallel paths, and
/// per-row accumulation order never depends on which thread runs a slab.
#[cfg(feature = "parallel")]
pub(crate) fn fill_row_chunks<F>(out: &mut [f64], chunk: usize, work_per_row: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    use rayon::prelude::*;
    let chunk = chunk.max(1);
    let total_work = out.len().saturating_mul(work_per_row.max(1));
    if total_work < PAR_MIN_WORK || rayon::current_num_threads() <= 1 {
        for (ci, slab) in out.chunks_mut(chunk).enumerate() {
            f(ci * chunk, slab);
        }
        return;
    }
    out.par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(ci, slab)| f(ci * chunk, slab));
}

/// Serial fallback when the `parallel` feature is disabled.
#[cfg(not(feature = "parallel"))]
pub(crate) fn fill_row_chunks<F>(out: &mut [f64], chunk: usize, _work_per_row: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    let chunk = chunk.max(1);
    for (ci, slab) in out.chunks_mut(chunk).enumerate() {
        f(ci * chunk, slab);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_every_row_small() {
        let mut out = vec![0.0; 300];
        fill_rows(&mut out, 1, |i| i as f64 * 1.5);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64 * 1.5));
    }

    #[test]
    fn fills_every_row_above_threshold() {
        let mut out = vec![0.0; 2048];
        fill_rows(&mut out, 2048, |i| (i as f64).sqrt());
        assert!(out
            .iter()
            .enumerate()
            .all(|(i, &v)| v.to_bits() == (i as f64).sqrt().to_bits()));
    }

    #[test]
    fn map_indexed_preserves_order() {
        for work in [1, 4096] {
            let out: Vec<usize> = map_indexed(1024, work, |i| i * 3);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
        }
    }

    #[test]
    fn fill_row_chunks_covers_ragged_tail() {
        for (len, work) in [(10usize, 1usize), (2050, 4096)] {
            let mut out = vec![0.0; len];
            fill_row_chunks(&mut out, 4, work, |start, slab| {
                for (r, o) in slab.iter_mut().enumerate() {
                    *o = (start + r) as f64 * 2.0;
                }
            });
            assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64 * 2.0));
        }
    }
}
