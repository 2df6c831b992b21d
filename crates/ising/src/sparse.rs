//! Sparse (CSR) form of the coupling matrix for fast annealing of
//! decomposed systems.

use crate::coupling::Coupling;
use crate::error::IsingError;
use serde::{Deserialize, Serialize};

/// A compressed-sparse-row view of a symmetric coupling matrix.
///
/// Each undirected coupling is stored in both row `i` and row `j`, so the
/// mat-vec is a plain CSR product. Built from a dense [`Coupling`], whose
/// symmetry and zero-diagonal invariants it inherits.
///
/// # Example
///
/// ```
/// use dsgl_ising::{Coupling, SparseCoupling};
///
/// let mut j = Coupling::zeros(3);
/// j.set(0, 2, 2.0);
/// let s = SparseCoupling::from_dense(&j);
/// assert_eq!(s.nnz(), 1);
/// let mut out = [0.0; 3];
/// s.matvec(&[1.0, 0.0, 0.5], &mut out);
/// assert_eq!(out, [1.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseCoupling {
    n: usize,
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SparseCoupling {
    /// Converts a dense coupling matrix to CSR, dropping explicit zeros.
    pub fn from_dense(dense: &Coupling) -> Self {
        let n = dense.n();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        offsets.push(0);
        for i in 0..n {
            let row = dense.row(i);
            for (j, &w) in row.iter().enumerate() {
                if w != 0.0 {
                    cols.push(j as u32);
                    vals.push(w);
                }
            }
            offsets.push(cols.len());
        }
        SparseCoupling {
            n,
            offsets,
            cols,
            vals,
        }
    }

    /// Builds a sparse coupling directly from an undirected entry list
    /// `(i, j, w)` without ever materialising a dense matrix — the only
    /// constructor that scales to the 100k+ node systems the multigrid
    /// annealing pipeline sweeps (a dense 200k×200k coupling would need
    /// 320 GB).
    ///
    /// Duplicate `(i, j)` pairs are summed in input order; explicit
    /// zeros are dropped. The result is bit-identical to
    /// [`SparseCoupling::from_dense`] on the equivalent dense matrix:
    /// both directions of each coupling are stored and every row's
    /// columns are ascending.
    ///
    /// # Errors
    ///
    /// - [`IsingError::NodeOutOfRange`] if an endpoint is `>= n`;
    /// - [`IsingError::InvalidParameter`] for a self-coupling `i == j`
    ///   (the diagonal belongs to the self-reaction `h`, not `J`);
    /// - [`IsingError::NonFinite`] for a NaN or infinite weight.
    pub fn from_entries(n: usize, entries: &[(u32, u32, f64)]) -> Result<Self, IsingError> {
        for &(i, j, w) in entries {
            if i as usize >= n {
                return Err(IsingError::NodeOutOfRange { node: i as usize, len: n });
            }
            if j as usize >= n {
                return Err(IsingError::NodeOutOfRange { node: j as usize, len: n });
            }
            if i == j {
                return Err(IsingError::InvalidParameter {
                    what: "coupling diagonal (self-coupling)",
                    value: w,
                });
            }
            if !w.is_finite() {
                return Err(IsingError::NonFinite { what: "coupling entries" });
            }
        }
        let mut directed: Vec<(u32, u32, f64)> = Vec::with_capacity(entries.len() * 2);
        for &(i, j, w) in entries {
            if w != 0.0 {
                directed.push((i, j, w));
                directed.push((j, i, w));
            }
        }
        // Stable sort: duplicate (row, col) pairs keep input order, so
        // their sum accumulates in a deterministic order.
        directed.sort_by_key(|&(r, c, _)| (r, c));
        let mut counts = vec![0usize; n];
        let mut cols: Vec<u32> = Vec::with_capacity(directed.len());
        let mut vals: Vec<f64> = Vec::with_capacity(directed.len());
        let mut last: Option<(u32, u32)> = None;
        for &(r, c, w) in &directed {
            if last == Some((r, c)) {
                if let Some(v) = vals.last_mut() {
                    *v += w;
                }
            } else {
                counts[r as usize] += 1;
                cols.push(c);
                vals.push(w);
                last = Some((r, c));
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        Ok(SparseCoupling {
            n,
            offsets,
            cols,
            vals,
        })
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of nonzero couplings (unordered pairs).
    pub fn nnz(&self) -> usize {
        self.vals.len() / 2
    }

    /// Iterates the nonzero entries of row `i` as `(col, weight)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (s, e) = (self.offsets[i], self.offsets[i + 1]);
        self.cols[s..e]
            .iter()
            .zip(&self.vals[s..e])
            .map(|(&c, &w)| (c as usize, w))
    }

    /// Sparse mat-vec `out = J * s`.
    ///
    /// Rows are computed in parallel when the `parallel` feature is on
    /// and the system is large enough; each row accumulates in column
    /// order either way, so results are bit-identical across thread
    /// counts.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `out` have wrong length.
    pub fn matvec(&self, s: &[f64], out: &mut [f64]) {
        assert_eq!(s.len(), self.n, "state length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        let work_per_row = self.vals.len() / self.n.max(1) + 1;
        crate::par::fill_rows(out, work_per_row, |i| self.row_dot(i, s));
    }

    /// Row `i` of `J·s`, summed in ascending column order. The loop
    /// takes four terms per trip: on a 2-core x86-64 box a one-term loop
    /// ran the dense 400-variable `covid` anneal at 12.4 or 17.8 ms per
    /// window depending only on where the linker placed it, and the
    /// longer body does not. The additions still run one after another,
    /// so the bits are those of the one-term loop.
    fn row_dot(&self, i: usize, s: &[f64]) -> f64 {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        let mut cols = self.cols[lo..hi].chunks_exact(4);
        let mut vals = self.vals[lo..hi].chunks_exact(4);
        let mut acc = 0.0;
        for (c, w) in (&mut cols).zip(&mut vals) {
            acc += w[0] * s[c[0] as usize];
            acc += w[1] * s[c[1] as usize];
            acc += w[2] * s[c[2] as usize];
            acc += w[3] * s[c[3] as usize];
        }
        for (&c, &w) in cols.remainder().iter().zip(vals.remainder()) {
            acc += w * s[c as usize];
        }
        acc
    }

    /// Sum of `|J[i][j]|` over row `i`.
    pub fn row_abs_sum(&self, i: usize) -> f64 {
        self.row(i).map(|(_, w)| w.abs()).sum()
    }

    /// Converts back to a dense [`Coupling`].
    pub fn to_dense(&self) -> Coupling {
        let mut dense = Coupling::zeros(self.n);
        for i in 0..self.n {
            for (j, w) in self.row(i) {
                if j > i {
                    dense.set(i, j, w);
                }
            }
        }
        dense
    }
}

/// One processing element's couplings as a dense `K×K` block over the
/// nodes mapped to that PE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tile {
    /// Node indices in this tile, ascending.
    nodes: Vec<u32>,
    /// Row-major `K×K` weights: `weights[r*K + c] = J[nodes[r]][nodes[c]]`.
    weights: Vec<f64>,
}

impl Tile {
    /// Nodes mapped to this tile, ascending.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Tile dimension `K`.
    pub fn dim(&self) -> usize {
        self.nodes.len()
    }
}

/// PE-tiled block-sparse form of the intra-PE coupling structure.
///
/// The mapped mesh machine partitions nodes onto processing elements;
/// couplings between nodes on the *same* PE form a dense block no larger
/// than the PE capacity. Storing each block as a contiguous row-major
/// tile turns the intra-PE mat-vec into a sequence of small dense
/// kernels over gathered state — cache-resident and free of CSR index
/// chasing. Cross-PE couplings are *not* represented here; the machine
/// keeps them in per-portal lists (see `dsgl-hw`).
///
/// Within a tile, each output row accumulates over the tile's nodes in
/// ascending order — the same order a CSR row restricted to intra-PE
/// entries would use — so results match [`SparseCoupling::matvec`] on
/// the same couplings bit-for-bit (dense zeros only add `+0.0` terms).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiledCoupling {
    n: usize,
    tiles: Vec<Tile>,
    /// Total multiply-add estimate `Σ K²`, used for fork decisions.
    work: usize,
}

impl TiledCoupling {
    /// Builds tiles from a dense coupling matrix and a node→block
    /// partition (`block_of[i]` is node `i`'s PE). Only couplings whose
    /// endpoints share a block are captured; cross-block couplings are
    /// ignored (callers route those separately).
    ///
    /// # Panics
    ///
    /// Panics if `block_of.len() != dense.n()`.
    pub fn from_dense_partition(dense: &Coupling, block_of: &[usize]) -> Self {
        let n = dense.n();
        assert_eq!(block_of.len(), n, "partition length mismatch");
        let mut groups: std::collections::BTreeMap<usize, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (i, &b) in block_of.iter().enumerate() {
            groups.entry(b).or_default().push(i as u32);
        }
        let mut tiles = Vec::with_capacity(groups.len());
        let mut work = 0usize;
        for nodes in groups.into_values() {
            let k = nodes.len();
            let mut weights = vec![0.0; k * k];
            for (r, &ir) in nodes.iter().enumerate() {
                let row = dense.row(ir as usize);
                for (c, &ic) in nodes.iter().enumerate() {
                    weights[r * k + c] = row[ic as usize];
                }
            }
            work += k * k;
            tiles.push(Tile { nodes, weights });
        }
        TiledCoupling { n, tiles, work }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The tiles, one per occupied PE.
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// Tiled mat-vec `out = J_intra * s`.
    ///
    /// `gather` is a caller-owned scratch buffer (grown as needed) that
    /// holds each tile's gathered state and products, letting the hot
    /// loop run allocation-free on contiguous memory via the row-blocked
    /// kernel [`dsgl_nn::kernels::matvec_rows_into`]. Tiles are
    /// processed in parallel when the `parallel` feature is on and the
    /// total tile work clears the fork threshold; per-row accumulation
    /// order is fixed either way, so results are bit-identical across
    /// thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `out` have wrong length.
    pub fn matvec_with_scratch(&self, s: &[f64], out: &mut [f64], gather: &mut Vec<f64>) {
        assert_eq!(s.len(), self.n, "state length mismatch");
        assert_eq!(out.len(), self.n, "output length mismatch");
        out.fill(0.0);
        #[cfg(feature = "parallel")]
        if self.work >= crate::par::PAR_MIN_WORK {
            // forbid(unsafe_code) rules out disjoint scatter from
            // threads: compute per-tile products in parallel, scatter
            // serially (the scatter is O(n), the products O(Σ K²)).
            let products = crate::par::map_indexed(self.tiles.len(), self.work / self.tiles.len().max(1), |t| {
                let tile = &self.tiles[t];
                let k = tile.nodes.len();
                let mut local = vec![0.0; 2 * k];
                let (gs, prod) = local.split_at_mut(k);
                for (g, &j) in gs.iter_mut().zip(&tile.nodes) {
                    *g = s[j as usize];
                }
                dsgl_nn::kernels::matvec_rows_into(&tile.weights, k, gs, prod);
                local
            });
            for (tile, local) in self.tiles.iter().zip(products) {
                let k = tile.nodes.len();
                for (&node, &v) in tile.nodes.iter().zip(&local[k..]) {
                    out[node as usize] = v;
                }
            }
            return;
        }
        for tile in &self.tiles {
            let k = tile.nodes.len();
            // One scratch buffer holds both halves: gathered state in
            // [0, k), the tile's products in [k, 2k).
            gather.clear();
            gather.resize(2 * k, 0.0);
            let (gs, prod) = gather.split_at_mut(k);
            for (g, &j) in gs.iter_mut().zip(&tile.nodes) {
                *g = s[j as usize];
            }
            dsgl_nn::kernels::matvec_rows_into(&tile.weights, k, gs, prod);
            for (&node, &v) in tile.nodes.iter().zip(prod.iter()) {
                out[node as usize] = v;
            }
        }
    }

    /// Tiled mat-vec with an internal scratch buffer (convenience for
    /// tests and one-off callers; hot paths should hold their own
    /// scratch and use [`TiledCoupling::matvec_with_scratch`]).
    pub fn matvec(&self, s: &[f64], out: &mut [f64]) {
        let mut gather = Vec::new();
        self.matvec_with_scratch(s, out, &mut gather);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coupling {
        let mut j = Coupling::zeros(4);
        j.set(0, 1, 1.0);
        j.set(1, 2, -2.0);
        j.set(0, 3, 0.5);
        j
    }

    #[test]
    fn roundtrip_dense_sparse_dense() {
        let dense = sample();
        let sparse = SparseCoupling::from_dense(&dense);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn nnz_counts_pairs() {
        let sparse = SparseCoupling::from_dense(&sample());
        assert_eq!(sparse.nnz(), 3);
    }

    #[test]
    fn matvec_agrees_with_dense() {
        let dense = sample();
        let sparse = SparseCoupling::from_dense(&dense);
        let s = [0.3, -1.0, 0.7, 2.0];
        let mut d_out = [0.0; 4];
        let mut s_out = [0.0; 4];
        dense.matvec(&s, &mut d_out);
        sparse.matvec(&s, &mut s_out);
        for k in 0..4 {
            assert!((d_out[k] - s_out[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn row_abs_sum_agrees() {
        let dense = sample();
        let sparse = SparseCoupling::from_dense(&dense);
        for i in 0..4 {
            assert!((dense.row_abs_sum(i) - sparse.row_abs_sum(i)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_matrix() {
        let sparse = SparseCoupling::from_dense(&Coupling::zeros(3));
        assert_eq!(sparse.nnz(), 0);
        let mut out = [1.0; 3];
        sparse.matvec(&[1.0; 3], &mut out);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    fn random_symmetric_roundtrip_preserves_bits() {
        // Pseudo-random symmetric matrix with ~35% density: CSR must
        // reproduce the dense form exactly, including value bits.
        let n = 24;
        let mut j = Coupling::zeros(n);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..n {
            for k in (i + 1)..n {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x % 100 < 35 {
                    j.set(i, k, (x % 1000) as f64 / 500.0 - 1.0);
                }
            }
        }
        let sparse = SparseCoupling::from_dense(&j);
        let back = sparse.to_dense();
        assert_eq!(back, j);
        for i in 0..n {
            assert_eq!(
                back.row(i)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                j.row(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "row {i} bits changed in roundtrip"
            );
        }
    }

    #[test]
    fn empty_row_roundtrip() {
        // Node 2 is isolated: its CSR row is empty, and the roundtrip
        // and matvec must both handle the zero-length span.
        let mut j = Coupling::zeros(5);
        j.set(0, 1, 1.5);
        j.set(3, 4, -0.5);
        let sparse = SparseCoupling::from_dense(&j);
        assert_eq!(sparse.row(2).count(), 0);
        assert_eq!(sparse.to_dense(), j);
        let mut out = [9.0; 5];
        sparse.matvec(&[1.0, 2.0, 3.0, 4.0, 5.0], &mut out);
        assert_eq!(out[2], 0.0);
        assert_eq!(sparse.row_abs_sum(2), 0.0);
    }

    #[test]
    fn from_entries_matches_from_dense_bitwise() {
        let dense = sample();
        let entries: Vec<(u32, u32, f64)> = vec![(1, 0, 1.0), (1, 2, -2.0), (3, 0, 0.5)];
        let a = SparseCoupling::from_dense(&dense);
        let b = SparseCoupling::from_entries(4, &entries).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_entries_sums_duplicates_and_drops_zeros() {
        let s = SparseCoupling::from_entries(
            3,
            &[(0, 1, 1.0), (1, 0, 0.5), (0, 2, 0.0)],
        )
        .unwrap();
        assert_eq!(s.nnz(), 1);
        let mut out = [0.0; 3];
        s.matvec(&[1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, [1.5, 1.5, 0.0]);
    }

    #[test]
    fn from_entries_rejects_bad_input() {
        assert!(matches!(
            SparseCoupling::from_entries(2, &[(0, 2, 1.0)]),
            Err(IsingError::NodeOutOfRange { node: 2, len: 2 })
        ));
        assert!(matches!(
            SparseCoupling::from_entries(2, &[(1, 1, 1.0)]),
            Err(IsingError::InvalidParameter { .. })
        ));
        assert!(matches!(
            SparseCoupling::from_entries(2, &[(0, 1, f64::NAN)]),
            Err(IsingError::NonFinite { .. })
        ));
    }

    #[test]
    fn from_entries_empty() {
        let s = SparseCoupling::from_entries(4, &[]).unwrap();
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.n(), 4);
        let mut out = [3.0; 4];
        s.matvec(&[1.0; 4], &mut out);
        assert_eq!(out, [0.0; 4]);
    }

    #[test]
    fn tiled_matvec_matches_csr_on_intra_block_couplings() {
        // Build a matrix with only intra-block couplings: tiled and CSR
        // mat-vecs must agree bit-for-bit.
        let n = 12;
        let block_of: Vec<usize> = (0..n).map(|i| i / 4).collect();
        let mut j = Coupling::zeros(n);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..n {
            for k in (i + 1)..n {
                if block_of[i] == block_of[k] {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    j.set(i, k, (x % 1000) as f64 / 500.0 - 1.0);
                }
            }
        }
        let csr = SparseCoupling::from_dense(&j);
        let tiled = TiledCoupling::from_dense_partition(&j, &block_of);
        assert_eq!(tiled.tiles().len(), 3);
        let s: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut csr_out = vec![0.0; n];
        let mut tiled_out = vec![0.0; n];
        csr.matvec(&s, &mut csr_out);
        tiled.matvec(&s, &mut tiled_out);
        for i in 0..n {
            assert_eq!(
                csr_out[i].to_bits(),
                tiled_out[i].to_bits(),
                "row {i}: {} vs {}",
                csr_out[i],
                tiled_out[i]
            );
        }
    }

    #[test]
    fn tiled_ignores_cross_block_couplings() {
        let mut j = Coupling::zeros(4);
        j.set(0, 1, 1.0); // intra (block 0)
        j.set(1, 2, 9.0); // cross: dropped from tiles
        j.set(2, 3, -0.5); // intra (block 1)
        let tiled = TiledCoupling::from_dense_partition(&j, &[0, 0, 1, 1]);
        let mut out = vec![0.0; 4];
        tiled.matvec(&[1.0, 1.0, 1.0, 1.0], &mut out);
        assert_eq!(out, [1.0, 1.0, -0.5, -0.5]);
    }

    #[test]
    fn tiled_handles_singleton_and_empty_gaps() {
        // Non-contiguous block ids with a singleton tile.
        let mut j = Coupling::zeros(3);
        j.set(0, 2, 2.0);
        let tiled = TiledCoupling::from_dense_partition(&j, &[7, 3, 7]);
        assert_eq!(tiled.tiles().len(), 2);
        let mut out = vec![9.0; 3];
        tiled.matvec(&[0.5, 1.0, 1.0], &mut out);
        assert_eq!(out, [2.0, 0.0, 1.0]);
    }

    #[test]
    fn fully_pruned_roundtrip() {
        // prune_to_density(0) leaves no couplings at all: every row is
        // empty and the roundtrip yields the zero matrix.
        let mut j = sample();
        j.prune_to_density(0.0);
        let sparse = SparseCoupling::from_dense(&j);
        assert_eq!(sparse.nnz(), 0);
        assert_eq!(sparse.to_dense(), Coupling::zeros(4));
        for i in 0..4 {
            assert_eq!(sparse.row(i).count(), 0);
        }
    }
}
