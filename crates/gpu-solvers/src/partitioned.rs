//! Substructuring (partitioned) solver for systems too large for one
//! block's shared memory — the "coarse-grained sub-structuring" the paper
//! sets aside for multi-core, rebuilt here as the large-n path: the system
//! is cut into chunks; a *modified Thomas* pass reduces every chunk to two
//! interface equations; the resulting **tridiagonal** interface system
//! (two rows per chunk) is solved with the in-shared-memory PCR kernel;
//! and a final embarrassingly-parallel pass back-substitutes every
//! interior unknown. [`solve_partitioned`] runs that pipeline once for
//! every topology, generic over a [`Transport`]: a bare [`Launcher`], a
//! device pool or a cluster coordinator.
//!
//! Math (per chunk of rows `0..m`, writing `x_f`/`x_l` for the chunk's
//! first/last unknown):
//!
//! 1. **Forward**: eliminate each `a_i` with the row above, carrying the
//!    dependence on `x_f`: row `i` becomes `aa_i·x_f + bb_i·x_i + c_i·x_{i+1} = dd_i`
//!    with `k = a_i/bb_{i-1}`, `bb_i = b_i − k·c_{i-1}`, `aa_i = −k·aa_{i-1}`,
//!    `dd_i = d_i − k·dd_{i-1}` (seeded `aa_1 = a_1`, `bb_1 = b_1`, `dd_1 = d_1`).
//! 2. **Backward**: starting from the sentinel `x_m ≡ x_l` (i.e.
//!    `(at, ct, dt) = (0, −1, 0)`), normalize each interior row into
//!    `x_i = dt_i − at_i·x_f − ct_i·x_l`.
//! 3. **Interface rows**: substituting `x_1` into the chunk's first raw row
//!    and reading the last forward row directly yields, per chunk, an
//!    *upper* row coupling `(prev x_l, x_f, x_l)` and a *lower* row
//!    coupling `(x_f, x_l, next x_f)` — in the global interface ordering
//!    `[x_f⁰, x_l⁰, x_f¹, x_l¹, …]` the reduced system of `2p` unknowns is
//!    itself tridiagonal (the distributed-memory substructuring result).
//! 4. The reduced system is padded with identity rows to a power of two
//!    and solved by [`crate::pcr::PcrKernel`]; back-substitution then
//!    recovers every interior unknown independently.
//!
//! Layout: chunk arrays are **interleaved** like the coarse kernel —
//! element `i` of chunk `s` lives at `i·chunks + s` — so the per-thread
//! serial recurrences of the local phase issue perfectly coalesced loads.
//! Chunks may have *uneven* lengths (each ≥ 2): shorter chunks simply stop
//! early and the tail rows of the rectangle are never touched.

use crate::common::SystemHandles;
use crate::pcr::PcrKernel;
use gpu_sim::{BlockCtx, GlobalArray, GlobalMem, GridKernel, Launcher, Phase};
use tridiag_core::{Real, Result, TridiagError, TridiagonalSystem};

/// Minimum rows per chunk: a chunk needs a first *and* a last unknown.
pub const MIN_CHUNK: usize = 2;

/// Threads per block for the local-reduction kernel (one thread per
/// chunk, like the coarse Thomas kernel).
const REDUCE_BLOCK_DIM: usize = 64;

/// Threads per block for the back-substitution kernel (one thread per
/// element).
const BACKSUBST_BLOCK_DIM: usize = 128;

/// Near-equal chunk boundaries: `chunks + 1` offsets covering `0..n`,
/// every chunk at least [`MIN_CHUNK`] rows.
///
/// # Errors
/// [`TridiagError::InvalidConfig`] when `chunks == 0` or `n < 2·chunks`.
pub fn even_offsets(n: usize, chunks: usize) -> Result<Vec<usize>> {
    validate_chunking(n, chunks)?;
    let base = n / chunks;
    let extra = n % chunks;
    let mut offsets = Vec::with_capacity(chunks + 1);
    let mut at = 0usize;
    offsets.push(0);
    for s in 0..chunks {
        at += base + usize::from(s < extra);
        offsets.push(at);
    }
    debug_assert_eq!(at, n);
    Ok(offsets)
}

fn validate_chunking(n: usize, chunks: usize) -> Result<()> {
    if chunks == 0 || n < MIN_CHUNK * chunks {
        return Err(TridiagError::InvalidConfig {
            what: "partitioned solve needs >= 1 chunk and >= 2 rows per chunk",
        });
    }
    Ok(())
}

/// Checks a caller-supplied offsets vector (uneven splits allowed).
pub fn validate_offsets(n: usize, offsets: &[usize]) -> Result<()> {
    let ok = offsets.len() >= 2
        && offsets[0] == 0
        && *offsets.last().unwrap() == n
        && offsets.windows(2).all(|w| w[1] >= w[0] + MIN_CHUNK);
    if ok {
        Ok(())
    } else {
        Err(TridiagError::InvalidConfig {
            what: "offsets must rise from 0 to n with >= 2 rows per chunk",
        })
    }
}

/// Interleaves `data[span]` chunk-wise: element `i` of chunk `s` (local
/// row `i`, chunk boundaries from `offsets`) lands at `i·chunks + s` in a
/// `max_len·chunks` rectangle (tail rows of short chunks stay zero).
pub fn interleave_chunks<T: Real>(data: &[T], offsets: &[usize]) -> Vec<T> {
    let chunks = offsets.len() - 1;
    let max_len = max_chunk_len(offsets);
    let mut out = vec![T::ZERO; max_len * chunks];
    for s in 0..chunks {
        for (i, &v) in data[offsets[s]..offsets[s + 1]].iter().enumerate() {
            out[i * chunks + s] = v;
        }
    }
    out
}

/// Longest chunk in an offsets vector.
pub fn max_chunk_len(offsets: &[usize]) -> usize {
    offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
}

/// The modified-Thomas local reduction: **one thread per chunk** over the
/// interleaved rectangle, producing per-row back-substitution coefficients
/// (`x_i = dt_i − at_i·x_f − ct_i·x_l`) and two reduced interface rows per
/// chunk (`ra,rb,rc,rd[2s]` = upper row, `[2s+1]` = lower row).
#[derive(Debug, Clone)]
pub struct LocalReduceKernel<T> {
    /// Number of chunks in the rectangle.
    pub chunks: usize,
    /// Rows in the rectangle (longest chunk).
    pub max_len: usize,
    /// Chunk boundaries (`chunks + 1` entries, local element offsets).
    pub offsets: Vec<usize>,
    /// Sub-diagonals (interleaved).
    pub a: GlobalArray<T>,
    /// Main diagonals (interleaved).
    pub b: GlobalArray<T>,
    /// Super-diagonals (interleaved).
    pub c: GlobalArray<T>,
    /// Right-hand sides (interleaved).
    pub d: GlobalArray<T>,
    /// Out: `x_f` coefficients per interior row (interleaved).
    pub at: GlobalArray<T>,
    /// Scratch: forward-swept diagonal (interleaved).
    pub bt: GlobalArray<T>,
    /// Out: `x_l` coefficients per interior row (interleaved).
    pub ct: GlobalArray<T>,
    /// Out: constant terms per interior row (interleaved).
    pub dt: GlobalArray<T>,
    /// Out: reduced-row sub-diagonals (`2·chunks`).
    pub ra: GlobalArray<T>,
    /// Out: reduced-row main diagonals (`2·chunks`).
    pub rb: GlobalArray<T>,
    /// Out: reduced-row super-diagonals (`2·chunks`).
    pub rc: GlobalArray<T>,
    /// Out: reduced-row right-hand sides (`2·chunks`).
    pub rd: GlobalArray<T>,
}

impl<T: Real> GridKernel<T> for LocalReduceKernel<T> {
    fn block_dim(&self) -> usize {
        REDUCE_BLOCK_DIM.min(self.chunks)
    }

    fn shared_words(&self) -> usize {
        0
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        let chunks = self.chunks;
        let dim = self.block_dim();
        let here = dim.min(chunks - block_id * dim);
        // Like the coarse kernel: the whole reduction is one superstep of
        // per-thread serial recurrences, no barriers.
        ctx.step(Phase::Other("partition local reduce"), 0..here, |t| {
            let s = block_id * dim + t.tid();
            let m = self.offsets[s + 1] - self.offsets[s];
            let at_ix = |i: usize| i * chunks + s;

            // Raw first row, kept for the upper interface row.
            let a0 = t.load_global_dependent(self.a, at_ix(0));
            let b0 = t.load_global(self.b, at_ix(0));
            let c0 = t.load_global(self.c, at_ix(0));
            let d0 = t.load_global(self.d, at_ix(0));

            // Forward: carry (aa, bb, dd); cc_i is the raw c_i.
            let mut aa = t.load_global_dependent(self.a, at_ix(1));
            let mut bb = t.load_global(self.b, at_ix(1));
            let mut dd = t.load_global(self.d, at_ix(1));
            t.store_global(self.at, at_ix(1), aa);
            t.store_global(self.bt, at_ix(1), bb);
            t.store_global(self.dt, at_ix(1), dd);
            for i in 2..m {
                let ai = t.load_global_dependent(self.a, at_ix(i));
                let bi = t.load_global(self.b, at_ix(i));
                let di = t.load_global(self.d, at_ix(i));
                let c_prev = t.load_global(self.c, at_ix(i - 1));
                let k = t.div(ai, bb);
                let p = t.mul(k, c_prev);
                bb = t.sub(bi, p);
                let p = t.mul(k, aa);
                aa = t.neg(p);
                let p = t.mul(k, dd);
                dd = t.sub(di, p);
                t.store_global(self.at, at_ix(i), aa);
                t.store_global(self.bt, at_ix(i), bb);
                t.store_global(self.dt, at_ix(i), dd);
            }

            // Lower interface row: aa·x_f + bb·x_l + c_{m-1}·x_f(next) = dd.
            let c_last = t.load_global(self.c, at_ix(m - 1));
            t.store_global(self.ra, 2 * s + 1, aa);
            t.store_global(self.rb, 2 * s + 1, bb);
            t.store_global(self.rc, 2 * s + 1, c_last);
            t.store_global(self.rd, 2 * s + 1, dd);

            // Backward: normalize interior rows to
            //   x_i = dtp − atp·x_f − ctp·x_l,
            // seeded with the sentinel for "row m−1" (x_{m-1} is x_l).
            let mut atp = T::ZERO;
            let mut ctp = T::from_f64(-1.0);
            let mut dtp = T::ZERO;
            for i in (1..m.max(2) - 1).rev() {
                let aa_i = t.load_global_dependent(self.at, at_ix(i));
                let bb_i = t.load_global(self.bt, at_ix(i));
                let dd_i = t.load_global(self.dt, at_ix(i));
                let c_i = t.load_global(self.c, at_ix(i));
                let num = {
                    let p = t.mul(c_i, dtp);
                    t.sub(dd_i, p)
                };
                dtp = t.div(num, bb_i);
                let num = {
                    let p = t.mul(c_i, atp);
                    t.sub(aa_i, p)
                };
                atp = t.div(num, bb_i);
                let num = {
                    let p = t.mul(c_i, ctp);
                    t.neg(p)
                };
                ctp = t.div(num, bb_i);
                t.store_global(self.at, at_ix(i), atp);
                t.store_global(self.ct, at_ix(i), ctp);
                t.store_global(self.dt, at_ix(i), dtp);
            }

            // Upper interface row via x_1 = dtp − atp·x_f − ctp·x_l
            // (sentinel when m == 2, where x_1 *is* x_l).
            let rb0 = {
                let p = t.mul(c0, atp);
                t.sub(b0, p)
            };
            let rc0 = {
                let p = t.mul(c0, ctp);
                t.neg(p)
            };
            let rd0 = {
                let p = t.mul(c0, dtp);
                t.sub(d0, p)
            };
            t.store_global(self.ra, 2 * s, a0);
            t.store_global(self.rb, 2 * s, rb0);
            t.store_global(self.rc, 2 * s, rc0);
            t.store_global(self.rd, 2 * s, rd0);
        });
    }
}

/// Back-substitution: **one thread per element** of the interleaved
/// rectangle. Boundary rows copy their interface value; interior rows
/// evaluate `x_i = dt_i − at_i·x_f − ct_i·x_l`. No recurrence — the fan-out
/// is embarrassingly parallel.
#[derive(Debug, Clone)]
pub struct BackSubstKernel<T> {
    /// Number of chunks in the rectangle.
    pub chunks: usize,
    /// Rows in the rectangle (longest chunk).
    pub max_len: usize,
    /// Chunk boundaries (`chunks + 1` entries).
    pub offsets: Vec<usize>,
    /// `x_f` coefficients (interleaved, from [`LocalReduceKernel`]).
    pub at: GlobalArray<T>,
    /// `x_l` coefficients (interleaved).
    pub ct: GlobalArray<T>,
    /// Constant terms (interleaved).
    pub dt: GlobalArray<T>,
    /// Solved interface values, `(x_f, x_l)` per chunk (`2·chunks`).
    pub xi: GlobalArray<T>,
    /// Out: solutions (interleaved).
    pub x: GlobalArray<T>,
}

impl<T: Real> GridKernel<T> for BackSubstKernel<T> {
    fn block_dim(&self) -> usize {
        BACKSUBST_BLOCK_DIM.min(self.chunks * self.max_len)
    }

    fn shared_words(&self) -> usize {
        0
    }

    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        let chunks = self.chunks;
        let total = chunks * self.max_len;
        let dim = self.block_dim();
        let here = dim.min(total - block_id * dim);
        ctx.step(Phase::Other("partition back-subst"), 0..here, |t| {
            let e = block_id * dim + t.tid();
            let s = e % chunks;
            let i = e / chunks;
            let m = self.offsets[s + 1] - self.offsets[s];
            if i >= m {
                return; // tail row of a shorter chunk: nothing stored there
            }
            if i == 0 {
                let v = t.load_global(self.xi, 2 * s);
                t.store_global(self.x, e, v);
            } else if i == m - 1 {
                let v = t.load_global(self.xi, 2 * s + 1);
                t.store_global(self.x, e, v);
            } else {
                let at_v = t.load_global(self.at, e);
                let ct_v = t.load_global(self.ct, e);
                let dt_v = t.load_global(self.dt, e);
                let xf = t.load_global(self.xi, 2 * s);
                let xl = t.load_global(self.xi, 2 * s + 1);
                let v = {
                    let p = t.mul(at_v, xf);
                    let q = t.mul(ct_v, xl);
                    let r = t.sub(dt_v, p);
                    t.sub(r, q)
                };
                t.store_global(self.x, e, v);
            }
        });
    }
}

/// The gathered interface system: one tridiagonal row pair per chunk,
/// padded with identity rows to the next power of two so PCR can run it.
#[derive(Debug, Clone, PartialEq)]
pub struct InterfaceSystem<T> {
    /// Sub-diagonals, `padded` long.
    pub a: Vec<T>,
    /// Main diagonals.
    pub b: Vec<T>,
    /// Super-diagonals.
    pub c: Vec<T>,
    /// Right-hand sides.
    pub d: Vec<T>,
    /// Meaningful rows (`2 × total chunks`).
    pub rows: usize,
    /// Power-of-two padded size actually solved.
    pub padded: usize,
}

impl<T: Real> InterfaceSystem<T> {
    /// Assembles the interface system from per-chunk reduced rows given in
    /// global chunk order (`ra..rd` each `2 × total chunks` long). The
    /// outermost couplings are grounded (`a[0] = c[last] = 0`) and identity
    /// pad rows (`x = 0`) decouple the tail.
    pub fn assemble(ra: &[T], rb: &[T], rc: &[T], rd: &[T]) -> Self {
        let rows = ra.len();
        debug_assert!(rows >= 2 && rows.is_multiple_of(2));
        let padded = rows.next_power_of_two();
        let mut a = vec![T::ZERO; padded];
        let mut b = vec![T::ONE; padded];
        let mut c = vec![T::ZERO; padded];
        let mut d = vec![T::ZERO; padded];
        a[..rows].copy_from_slice(ra);
        b[..rows].copy_from_slice(rb);
        c[..rows].copy_from_slice(rc);
        d[..rows].copy_from_slice(rd);
        a[0] = T::ZERO;
        c[rows - 1] = T::ZERO;
        Self { a, b, c, d, rows, padded }
    }

    /// Largest padded interface size the PCR kernel can take on `device`
    /// (one block: `padded` threads, five shared arrays).
    pub fn max_padded_rows(bytes_per_elem: usize, device: &gpu_sim::DeviceConfig) -> usize {
        let limit = by_threads_and_shared(bytes_per_elem, device);
        // Round DOWN to a power of two: an interface assembled right at the
        // cap pads to `next_power_of_two(rows)`, so a non-pow2 cap (e.g.
        // f64 on 16 KiB shared: 409 rows) must not round up past what the
        // kernel can actually hold.
        let up = limit.next_power_of_two();
        if up > limit {
            up / 2
        } else {
            up
        }
    }
}

/// Raw (un-rounded) one-block capacity: threads and five shared arrays.
fn by_threads_and_shared(bytes_per_elem: usize, device: &gpu_sim::DeviceConfig) -> usize {
    let by_threads = device.max_threads_per_block;
    let by_shared = device.shared_mem_per_sm / (5 * bytes_per_elem);
    by_threads.min(by_shared)
}

/// Simulated timings of one partitioned solve, phase by phase. The
/// parallel phases (local reduction, back-substitution) take the **max**
/// across devices; the interface solve is serial on one device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PartitionedTiming {
    /// Local modified-Thomas reduction (max across devices).
    pub local_ms: f64,
    /// Interface PCR solve (one device, serial).
    pub interface_ms: f64,
    /// Back-substitution fan-out (max across devices).
    pub backsubst_ms: f64,
    /// PCIe traffic: the max upload plus the max download across devices.
    pub transfer_ms: f64,
    /// Inter-node network time: for each of the two fans (reduction,
    /// back-substitution) the max across remote nodes of request plus
    /// response legs, summed. 0 off-cluster.
    pub net_ms: f64,
}

impl PartitionedTiming {
    /// End-to-end simulated milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.local_ms + self.interface_ms + self.backsubst_ms + self.transfer_ms + self.net_ms
    }
}

/// One device's rows in a partitioned solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Node holding the device (0 off-cluster).
    pub node: usize,
    /// Device within the node.
    pub device: usize,
    /// First row.
    pub start: usize,
    /// One past the last row.
    pub end: usize,
}

/// Outcome of a partitioned solve.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedReport<T> {
    /// The solution vector, natural (non-interleaved) order.
    pub x: Vec<T>,
    /// Each device's rows, in row order. Devices lost and nodes excluded
    /// during the solve do not appear.
    pub spans: Vec<Span>,
    /// Chunks the system was cut into, across all devices.
    pub chunks: usize,
    /// Meaningful interface rows (`2 × chunks`).
    pub interface_rows: usize,
    /// Padded interface size PCR actually solved.
    pub interface_padded: usize,
    /// Phase timings.
    pub timing: PartitionedTiming,
}

/// Per-device state of the local phase: everything the interface gather
/// and the back-substitution fan-out need. [`solve_partitioned`] drives
/// one of these per device.
pub struct LocalPhase<T: Real> {
    /// The device memory holding this span's arrays.
    pub gmem: GlobalMem<T>,
    /// Chunk boundaries within the span.
    pub offsets: Vec<usize>,
    /// Reduced interface rows of this span's chunks (`2 × chunks` each),
    /// in `[ra, rb, rc, rd]` order.
    pub reduced: [Vec<T>; 4],
    /// Simulated kernel ms of the local reduction.
    pub local_ms: f64,
    /// PCIe ms spent uploading the span (simulated).
    pub upload_ms: f64,
    at: GlobalArray<T>,
    ct: GlobalArray<T>,
    dt: GlobalArray<T>,
    chunks: usize,
    max_len: usize,
}

/// Runs the local reduction for one span (`a..d` are the span's slices of
/// the full system) on `launcher`, leaving the coefficient arrays resident
/// for [`back_substitute`].
pub fn local_reduce<T: Real>(
    launcher: &Launcher,
    a: &[T],
    b: &[T],
    c: &[T],
    d: &[T],
    offsets: &[usize],
) -> Result<LocalPhase<T>> {
    let n = a.len();
    validate_offsets(n, offsets)?;
    let chunks = offsets.len() - 1;
    let max_len = max_chunk_len(offsets);
    let mut gmem = GlobalMem::new();
    let kernel = LocalReduceKernel {
        chunks,
        max_len,
        offsets: offsets.to_vec(),
        a: gmem.upload(interleave_chunks(a, offsets)),
        b: gmem.upload(interleave_chunks(b, offsets)),
        c: gmem.upload(interleave_chunks(c, offsets)),
        d: gmem.upload(interleave_chunks(d, offsets)),
        at: gmem.alloc_zeroed(max_len * chunks),
        bt: gmem.alloc_zeroed(max_len * chunks),
        ct: gmem.alloc_zeroed(max_len * chunks),
        dt: gmem.alloc_zeroed(max_len * chunks),
        ra: gmem.alloc_zeroed(2 * chunks),
        rb: gmem.alloc_zeroed(2 * chunks),
        rc: gmem.alloc_zeroed(2 * chunks),
        rd: gmem.alloc_zeroed(2 * chunks),
    };
    let blocks = chunks.div_ceil(kernel.block_dim());
    let report = launcher.launch(&kernel, blocks, &mut gmem)?;
    let upload_bytes = 4 * n * T::BYTES;
    let upload_ms = launcher.cost.pcie_seconds(upload_bytes as u64) * 1e3;
    let reduced = [kernel.ra, kernel.rb, kernel.rc, kernel.rd].map(|r| gmem.download(r));
    Ok(LocalPhase {
        at: kernel.at,
        ct: kernel.ct,
        dt: kernel.dt,
        chunks,
        max_len,
        offsets: offsets.to_vec(),
        reduced,
        local_ms: report.timing.kernel_ms,
        upload_ms,
        gmem,
    })
}

/// Back-substitutes one span given its chunks' solved interface values
/// (`xi`, `(x_f, x_l)` per chunk). Returns the span's solution in natural
/// order plus the phase's simulated kernel + download ms.
pub fn back_substitute<T: Real>(
    launcher: &Launcher,
    phase: &mut LocalPhase<T>,
    xi: &[T],
) -> Result<(Vec<T>, f64, f64)> {
    debug_assert_eq!(xi.len(), 2 * phase.chunks);
    let chunks = phase.chunks;
    let max_len = phase.max_len;
    let kernel = BackSubstKernel {
        chunks,
        max_len,
        offsets: phase.offsets.clone(),
        at: phase.at,
        ct: phase.ct,
        dt: phase.dt,
        xi: phase.gmem.upload(xi.to_vec()),
        x: phase.gmem.alloc_zeroed(max_len * chunks),
    };
    let blocks = (chunks * max_len).div_ceil(kernel.block_dim());
    let report = launcher.launch(&kernel, blocks, &mut phase.gmem)?;
    let xi_flat = phase.gmem.download(kernel.x);
    let n = *phase.offsets.last().unwrap();
    let mut x = vec![T::ZERO; n];
    for s in 0..chunks {
        for i in 0..(phase.offsets[s + 1] - phase.offsets[s]) {
            x[phase.offsets[s] + i] = xi_flat[i * chunks + s];
        }
    }
    let download_bytes = n * T::BYTES;
    let download_ms = launcher.cost.pcie_seconds(download_bytes as u64) * 1e3;
    Ok((x, report.timing.kernel_ms, download_ms))
}

/// Solves the assembled interface system with the PCR kernel on
/// `launcher`; returns the meaningful rows of the solution and the
/// simulated kernel ms.
pub fn solve_interface<T: Real>(
    launcher: &Launcher,
    interface: &InterfaceSystem<T>,
) -> Result<(Vec<T>, f64)> {
    let cap = InterfaceSystem::<T>::max_padded_rows(T::BYTES, &launcher.device);
    if interface.padded > cap {
        return Err(TridiagError::InvalidConfig {
            what: "interface system exceeds one PCR block (use fewer chunks)",
        });
    }
    let mut gmem = GlobalMem::new();
    let gm = SystemHandles {
        a: gmem.upload(interface.a.clone()),
        b: gmem.upload(interface.b.clone()),
        c: gmem.upload(interface.c.clone()),
        d: gmem.upload(interface.d.clone()),
        x: gmem.alloc_zeroed(interface.padded),
    };
    let kernel = PcrKernel { n: interface.padded, gm };
    let report = launcher.launch(&kernel, 1, &mut gmem)?;
    let mut xi = gmem.download(gm.x);
    xi.truncate(interface.rows);
    Ok((xi, report.timing.kernel_ms))
}

/// Where the phases of a partitioned solve run: a node → device topology
/// plus the transport between nodes. A bare [`Launcher`] is one node with
/// one device and no network; `device_pool` implements this for a pool
/// (one node, its healthy devices) and `cluster` for a coordinator's view
/// of a cluster (remote nodes behind priced, retried RPCs).
pub trait Transport {
    /// Nodes that can take work now, each with its healthy devices, in
    /// row order.
    fn nodes(&self) -> Vec<(usize, Vec<usize>)>;

    /// The launcher serving `device` on `node`.
    fn launcher(&self, node: usize, device: usize) -> &Launcher;

    /// Runs one phase's `work` for `node`, shipping `up` bytes to it and
    /// `down` bytes back. Returns the result with the network ms it was
    /// priced at, or `None` when the node could not be reached. `work`
    /// may run more than once. The default runs it inline, for free.
    fn run_on<R>(
        &self,
        _node: usize,
        _up: usize,
        _down: usize,
        mut work: impl FnMut() -> R,
    ) -> Option<(R, f64)> {
        Some((work(), 0.0))
    }

    /// Marks a device lost after it failed with
    /// [`TridiagError::DeviceLost`], so [`nodes`](Self::nodes) drops it.
    fn lose_device(&self, _node: usize, _device: usize) {}

    /// The node that solves the interface while it can take work (the
    /// first node does otherwise).
    fn home(&self) -> usize {
        0
    }

    /// Books `ms` of simulated kernel time against a device.
    fn note_busy(&self, _node: usize, _device: usize, _ms: f64) {}

    /// Called once the interface (`rows` rows of an `n`-row system) is
    /// solved on `node`, before the fan-out.
    fn interface_solved(&self, _n: usize, _rows: usize, _node: usize) {}
}

impl Transport for Launcher {
    fn nodes(&self) -> Vec<(usize, Vec<usize>)> {
        // A bare launcher keeps no lost flag; its fault plan remembers.
        let lost = self.fault.as_ref().is_some_and(|plan| plan.stats().device_lost_failures > 0);
        vec![(0, if lost { Vec::new() } else { vec![0] })]
    }

    fn launcher(&self, _node: usize, _device: usize) -> &Launcher {
        self
    }
}

/// One device's share of a plan: its span and its chunk boundaries
/// relative to the span.
#[derive(Debug)]
struct Share {
    span: Span,
    offsets: Vec<usize>,
}

/// One node's share of a plan: its rows and its devices' shares.
#[derive(Debug)]
struct NodePlan {
    node: usize,
    start: usize,
    end: usize,
    shares: Vec<Share>,
}

/// Cuts `n` rows node → device → chunk, each level a near-equal cut.
/// `nodes` lists each node with its (non-empty) healthy devices. Every
/// chunk keeps [`MIN_CHUNK`] rows, and the padded interface
/// (`2 × total chunks`) fits `cap`: the chunk budget `cap / 2` caps the
/// devices per node, then the chunks per device. Uses a prefix of the
/// nodes, and of each node's devices, when `n` is too small to feed them
/// all.
fn plan(
    n: usize,
    nodes: &[(usize, Vec<usize>)],
    chunks_per_device: usize,
    cap: usize,
) -> Result<Vec<NodePlan>> {
    if chunks_per_device == 0 {
        return Err(TridiagError::InvalidConfig { what: "chunks_per_device must be >= 1" });
    }
    if n < MIN_CHUNK {
        return Err(TridiagError::SizeTooSmall { n, min: MIN_CHUNK });
    }
    if cap < 2 {
        return Err(TridiagError::InvalidConfig { what: "interface cap below one chunk" });
    }
    let used = nodes.len().min(n / MIN_CHUNK);
    let max_total_chunks = cap / 2;
    let max_devs_per_node = (max_total_chunks / used).max(1);
    let total_devices: usize =
        nodes.iter().take(used).map(|(_, d)| d.len().min(max_devs_per_node)).sum();
    let cpd = chunks_per_device.min((max_total_chunks / total_devices).max(1));
    let node_cuts = even_offsets(n, used)?;
    let mut plans = Vec::with_capacity(used);
    for ((node, devices), cut) in nodes.iter().zip(node_cuts.windows(2)) {
        let (start, end) = (cut[0], cut[1]);
        let devs = devices.len().min(max_devs_per_node).min((end - start) / MIN_CHUNK);
        let device_cuts = even_offsets(end - start, devs)?;
        let shares = devices
            .iter()
            .zip(device_cuts.windows(2))
            .map(|(&device, w)| {
                let len = w[1] - w[0];
                let span = Span { node: *node, device, start: start + w[0], end: start + w[1] };
                Ok(Share { span, offsets: even_offsets(len, cpd.min(len / MIN_CHUNK))? })
            })
            .collect::<Result<_>>()?;
        plans.push(NodePlan { node: *node, start, end, shares });
    }
    Ok(plans)
}

/// Why one attempt at a partitioned solve failed.
enum Failure {
    /// The node could not be reached: exclude it for this solve.
    Node(usize),
    /// A launch on `(node, device)` failed.
    Launch(usize, usize, TridiagError),
    /// The system cannot be planned.
    Plan(TridiagError),
}

/// Solves `system` across `transport`: plan → local reduction on every
/// device → gather → interface solve → back-substitution fan-out.
/// `chunks_per_device` is the target chunk count per device, clamped so
/// every chunk keeps [`MIN_CHUNK`] rows and the interface fits one PCR
/// block. Failures replan: a transient fault retries, `DeviceLost` marks
/// the device lost, and an unreachable node is excluded for this solve.
/// The attempt budget covers losing every node and every device once,
/// plus three transient retries.
///
/// # Errors
/// [`TridiagError::DeviceLost`] when nothing is left to run on, the last
/// device error when the budget runs out, and planning or non-device
/// launch errors at once.
pub fn solve_partitioned<T: Real>(
    transport: &impl Transport,
    system: &TridiagonalSystem<T>,
    chunks_per_device: usize,
) -> Result<PartitionedReport<T>> {
    let mut attempts = transport.nodes().iter().map(|(_, d)| 1 + d.len()).sum::<usize>() + 3;
    let mut excluded = Vec::new();
    let mut last_err = TridiagError::DeviceLost;
    loop {
        let mut nodes = transport.nodes();
        nodes.retain(|(node, devices)| !devices.is_empty() && !excluded.contains(node));
        if nodes.is_empty() {
            return Err(last_err);
        }
        match attempt(transport, &nodes, system, chunks_per_device) {
            Ok(report) => return Ok(report),
            Err(Failure::Node(node)) => {
                excluded.push(node);
                last_err = TridiagError::DeviceLost;
            }
            Err(Failure::Launch(node, device, err)) if err.is_device_fault() => {
                if err == TridiagError::DeviceLost {
                    transport.lose_device(node, device);
                }
                last_err = err;
            }
            Err(Failure::Launch(_, _, err) | Failure::Plan(err)) => return Err(err),
        }
        attempts -= 1;
        if attempts == 0 {
            return Err(last_err);
        }
    }
}

/// One pass of the pipeline over a fixed set of nodes.
fn attempt<T: Real>(
    transport: &impl Transport,
    nodes: &[(usize, Vec<usize>)],
    system: &TridiagonalSystem<T>,
    chunks_per_device: usize,
) -> core::result::Result<PartitionedReport<T>, Failure> {
    let home = nodes.iter().find(|(node, _)| *node == transport.home()).unwrap_or(&nodes[0]);
    let (iface_node, iface_device) = (home.0, home.1[0]);
    let iface = transport.launcher(iface_node, iface_device);
    let cap = InterfaceSystem::<T>::max_padded_rows(T::BYTES, &iface.device);
    let plan = plan(system.n(), nodes, chunks_per_device, cap).map_err(Failure::Plan)?;
    let mut timing = PartitionedTiming::default();
    let (mut upload_ms, mut download_ms) = (0.0f64, 0.0f64);
    let (mut reduce_net_ms, mut scatter_net_ms) = (0.0f64, 0.0f64);

    // Local reduction, node by node: the four coefficient arrays go out,
    // the reduced rows come back.
    let mut phases: Vec<Vec<LocalPhase<T>>> = Vec::with_capacity(plan.len());
    for node in &plan {
        let reduce = || {
            node.shares
                .iter()
                .map(|share| {
                    let Span { node, device, start: s, end: e } = share.span;
                    let (a, b, c, d) =
                        (&system.a[s..e], &system.b[s..e], &system.c[s..e], &system.d[s..e]);
                    let phase =
                        local_reduce(transport.launcher(node, device), a, b, c, d, &share.offsets)
                            .map_err(|err| Failure::Launch(node, device, err))?;
                    transport.note_busy(node, device, phase.local_ms);
                    timing.local_ms = timing.local_ms.max(phase.local_ms);
                    upload_ms = upload_ms.max(phase.upload_ms);
                    Ok(phase)
                })
                .collect::<core::result::Result<Vec<_>, Failure>>()
        };
        let chunks: usize = node.shares.iter().map(|s| s.offsets.len() - 1).sum();
        let (up, down) = (4 * (node.end - node.start) * T::BYTES, 8 * chunks * T::BYTES);
        let (reduced, net_ms) =
            transport.run_on(node.node, up, down, reduce).ok_or(Failure::Node(node.node))?;
        reduce_net_ms = reduce_net_ms.max(net_ms);
        phases.push(reduced?);
    }

    // Gather: node order, then device order, is the global chunk order.
    let mut rows: [Vec<T>; 4] = Default::default();
    for phase in phases.iter().flatten() {
        for (all, part) in rows.iter_mut().zip(&phase.reduced) {
            all.extend_from_slice(part);
        }
    }
    let interface = InterfaceSystem::assemble(&rows[0], &rows[1], &rows[2], &rows[3]);
    let (xi, interface_ms) = solve_interface(iface, &interface)
        .map_err(|err| Failure::Launch(iface_node, iface_device, err))?;
    transport.note_busy(iface_node, iface_device, interface_ms);
    timing.interface_ms = interface_ms;
    transport.interface_solved(system.n(), interface.rows, iface_node);

    // Fan out, node by node: the node's slice of the interface solution
    // goes out, its back-substituted rows come back.
    let mut x = vec![T::ZERO; system.n()];
    let mut row = 0;
    for (node, node_phases) in plan.iter().zip(&mut phases) {
        let node_rows: usize = node_phases.iter().map(|p| p.reduced[0].len()).sum();
        let xi = &xi[row..row + node_rows];
        let fan_out = || -> core::result::Result<(), Failure> {
            let mut r = 0;
            for (share, phase) in node.shares.iter().zip(node_phases.iter_mut()) {
                let Span { node, device, start, end } = share.span;
                let rows = phase.reduced[0].len();
                let (span_x, kernel_ms, dl_ms) =
                    back_substitute(transport.launcher(node, device), phase, &xi[r..r + rows])
                        .map_err(|err| Failure::Launch(node, device, err))?;
                transport.note_busy(node, device, kernel_ms);
                timing.backsubst_ms = timing.backsubst_ms.max(kernel_ms);
                download_ms = download_ms.max(dl_ms);
                x[start..end].copy_from_slice(&span_x);
                r += rows;
            }
            Ok(())
        };
        let (up, down) = (node_rows * T::BYTES, (node.end - node.start) * T::BYTES);
        let (done, net_ms) =
            transport.run_on(node.node, up, down, fan_out).ok_or(Failure::Node(node.node))?;
        done?;
        scatter_net_ms = scatter_net_ms.max(net_ms);
        row += node_rows;
    }
    debug_assert_eq!(row, interface.rows);
    timing.transfer_ms = upload_ms + download_ms;
    timing.net_ms = reduce_net_ms + scatter_net_ms;
    Ok(PartitionedReport {
        x,
        spans: plan.iter().flat_map(|node| node.shares.iter().map(|s| s.span)).collect(),
        chunks: interface.rows / 2,
        interface_rows: interface.rows,
        interface_padded: interface.padded,
        timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::residual::l2_residual;
    use tridiag_core::{Generator, Workload};

    fn dominant(seed: u64, n: usize) -> TridiagonalSystem<f64> {
        Generator::new(seed).system(Workload::DiagonallyDominant, n)
    }

    #[test]
    fn even_offsets_cover_and_respect_min_chunk() {
        let o = even_offsets(10, 3).unwrap();
        assert_eq!(o, vec![0, 4, 7, 10]);
        assert!(even_offsets(5, 3).is_err(), "5 rows cannot feed 3 chunks of >= 2");
        assert!(even_offsets(8, 0).is_err());
        validate_offsets(10, &o).unwrap();
        assert!(validate_offsets(10, &[0, 1, 10]).is_err(), "1-row chunk");
        assert!(validate_offsets(10, &[0, 4, 9]).is_err(), "must end at n");
    }

    #[test]
    fn interleave_rectangles_short_chunks_with_zeros() {
        let data: Vec<f32> = (1..=7).map(|v| v as f32).collect();
        let il = interleave_chunks(&data, &[0, 4, 7]);
        // chunks = 2, max_len = 4: row-major (i * 2 + s).
        assert_eq!(il, vec![1.0, 5.0, 2.0, 6.0, 3.0, 7.0, 4.0, 0.0]);
    }

    #[test]
    fn matches_thomas_for_many_shapes() {
        for (n, chunks) in [(8usize, 1usize), (8, 2), (16, 4), (64, 8), (257, 5), (1024, 16)] {
            let sys = dominant(n as u64, n);
            let report = solve_partitioned(&Launcher::gtx280(), &sys, chunks).unwrap();
            let x_ref = cpu_solvers::thomas::solve(&sys).unwrap();
            for i in 0..n {
                assert!(
                    (report.x[i] - x_ref[i]).abs() < 1e-9,
                    "n={n} chunks={chunks} i={i}: {} vs {}",
                    report.x[i],
                    x_ref[i]
                );
            }
            assert_eq!(report.interface_rows, 2 * chunks);
            assert!(report.interface_padded.is_power_of_two());
        }
    }

    /// The pipeline on one launcher with explicit chunk boundaries, driven
    /// phase by phase.
    fn solve_with_offsets(sys: &TridiagonalSystem<f64>, offsets: &[usize]) -> Vec<f64> {
        let launcher = Launcher::gtx280();
        let mut phase = local_reduce(&launcher, &sys.a, &sys.b, &sys.c, &sys.d, offsets).unwrap();
        let [ra, rb, rc, rd] = &phase.reduced;
        let interface = InterfaceSystem::assemble(ra, rb, rc, rd);
        let (xi, _) = solve_interface(&launcher, &interface).unwrap();
        back_substitute(&launcher, &mut phase, &xi).unwrap().0
    }

    #[test]
    fn uneven_offsets_agree_with_even_ones() {
        let sys = dominant(3, 100);
        let uneven = solve_with_offsets(&sys, &[0, 7, 50, 52, 100]);
        let r = l2_residual(&sys, &uneven).unwrap();
        assert!(r < 1e-8, "residual {r}");
        let even = solve_with_offsets(&sys, &even_offsets(100, 4).unwrap());
        assert_eq!(even, solve_partitioned(&Launcher::gtx280(), &sys, 4).unwrap().x);
        for (u, e) in uneven.iter().zip(&even) {
            assert!((u - e).abs() < 1e-9, "{u} vs {e}");
        }
    }

    #[test]
    fn handles_oversized_systems_beyond_shared_memory() {
        // n = 2^16 is far past any shared-memory kernel's reach.
        let n = 1 << 16;
        let sys: TridiagonalSystem<f32> = Generator::new(9).system(Workload::DiagonallyDominant, n);
        let report = solve_partitioned(&Launcher::gtx280(), &sys, 32).unwrap();
        let r = l2_residual(&sys, &report.x).unwrap();
        let d_norm: f64 = sys.d.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
        let bound = 100.0 * d_norm * f32::EPSILON as f64 * n as f64;
        assert!(r < bound, "residual {r} vs bound {bound}");
        assert!(report.timing.total_ms() > 0.0);
    }

    #[test]
    fn interface_cap_is_enforced() {
        // 1024 interface rows > the f64 cap (256): the PCR block refuses.
        let ones = vec![1.0f64; 1024];
        let oversized = InterfaceSystem::assemble(&ones, &ones, &ones, &ones);
        let err = solve_interface(&Launcher::gtx280(), &oversized).unwrap_err();
        assert!(matches!(err, TridiagError::InvalidConfig { .. }));
        // The planner clamps 512 requested chunks to the cap's 128.
        let sys = dominant(1, 2048);
        let report = solve_partitioned(&Launcher::gtx280(), &sys, 512).unwrap();
        assert_eq!((report.chunks, report.interface_padded), (128, 256));
        assert!(l2_residual(&sys, &report.x).unwrap() < 1e-8);
    }

    fn chunks_of(plans: &[NodePlan]) -> usize {
        plans.iter().flat_map(|p| &p.shares).map(|s| s.offsets.len() - 1).sum()
    }

    /// Spans tile `0..n` in row order, node by node.
    fn assert_tiles(plans: &[NodePlan], n: usize) {
        let spans: Vec<Span> = plans.iter().flat_map(|p| p.shares.iter().map(|s| s.span)).collect();
        assert_eq!(spans[0].start, 0);
        assert_eq!(spans.last().unwrap().end, n);
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "spans must tile: {spans:?}");
        }
        for p in plans {
            assert_eq!(
                (p.start, p.end),
                (p.shares[0].span.start, p.shares.last().unwrap().span.end)
            );
            assert!(p.shares.iter().all(|s| s.span.node == p.node));
        }
    }

    #[test]
    fn plan_covers_n_with_min_chunks_and_cap() {
        // Pool-shaped: one node, four devices.
        let pool = [(0, vec![0, 1, 2, 3])];
        let plans = plan(1000, &pool, 8, 512).unwrap();
        assert_eq!(plans[0].shares.len(), 4);
        assert_tiles(&plans, 1000);
        assert!(2 * chunks_of(&plans) <= 512);
        // Tiny system: falls back to fewer devices than offered.
        let plans = plan(7, &pool, 8, 512).unwrap();
        assert!(plans[0].shares.len() <= 3, "7 rows cannot feed 4 chunks of >= 2: {plans:?}");
        assert_tiles(&plans, 7);
        // Cluster-shaped: three nodes of 2, 1 and 3 devices.
        let cluster = [(0, vec![0, 1]), (2, vec![1]), (5, vec![0, 1, 2])];
        let plans = plan(1001, &cluster, 4, 512).unwrap();
        assert_eq!(plans.iter().map(|p| p.node).collect::<Vec<_>>(), vec![0, 2, 5]);
        assert_eq!(plans.iter().map(|p| p.shares.len()).collect::<Vec<_>>(), vec![2, 1, 3]);
        assert_tiles(&plans, 1001);
        assert_eq!(chunks_of(&plans), 6 * 4);
        // Tiny system: a prefix of the nodes, every chunk >= 2 rows.
        let plans = plan(5, &cluster, 4, 512).unwrap();
        assert_eq!(plans.len(), 2);
        assert_tiles(&plans, 5);
        for share in plans.iter().flat_map(|p| &p.shares) {
            assert!(share.offsets.windows(2).all(|w| w[1] - w[0] >= MIN_CHUNK));
        }
    }

    #[test]
    fn plan_respects_interface_cap() {
        // cap 16 → at most 8 chunks total across 4 devices → 2 per device.
        let plans = plan(4096, &[(0, vec![0, 1, 2, 3])], 64, 16).unwrap();
        assert_eq!(chunks_of(&plans), 8);
        // Across nodes the budget caps devices per node first: 4 nodes × 8
        // devices with cap 16 keep 2 devices per node, one chunk each.
        let nodes: Vec<(usize, Vec<usize>)> = (0..4).map(|i| (i, (0..8).collect())).collect();
        let plans = plan(1 << 16, &nodes, 64, 16).unwrap();
        assert!(plans.iter().all(|p| p.shares.len() == 2));
        assert_eq!(chunks_of(&plans), 8);
        assert_tiles(&plans, 1 << 16);
    }

    #[test]
    fn a_launcher_retries_transient_faults_and_stops_once_lost() {
        let sys = dominant(2, 256);
        let fault = |cfg| Some(std::sync::Arc::new(gpu_sim::FaultPlan::new(cfg)));
        let mut flaky = Launcher::gtx280();
        flaky.fault = fault(gpu_sim::FaultConfig { launch_fault_burst: 1, ..Default::default() });
        let report = solve_partitioned(&flaky, &sys, 4).unwrap();
        assert!(l2_residual(&sys, &report.x).unwrap() < 1e-8);
        let mut dead = Launcher::gtx280();
        dead.fault =
            fault(gpu_sim::FaultConfig { device_lost_after: Some(0), ..Default::default() });
        assert_eq!(solve_partitioned(&dead, &sys, 4).unwrap_err(), TridiagError::DeviceLost);
        assert_eq!(dead.fault.as_ref().unwrap().stats().launches, 1, "no relaunch once lost");
    }

    #[test]
    fn assemble_grounds_the_boundary_and_pads_with_identity() {
        let ra = vec![9.0f32, 1.0, 2.0, 3.0, 4.0, 5.0];
        let rb = vec![1.0f32; 6];
        let rc = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 9.0];
        let rd = vec![1.0f32; 6];
        let s = InterfaceSystem::assemble(&ra, &rb, &rc, &rd);
        assert_eq!(s.rows, 6);
        assert_eq!(s.padded, 8);
        assert_eq!(s.a[0], 0.0, "outermost sub-diagonal grounded");
        assert_eq!(s.c[5], 0.0, "outermost super-diagonal grounded");
        assert_eq!((s.a[6], s.b[6], s.c[6], s.d[6]), (0.0, 1.0, 0.0, 0.0), "identity pad");
    }

    #[test]
    fn local_kernel_is_sanitizer_clean() {
        let sys = dominant(5, 96);
        let launcher = Launcher::gtx280().with_sanitize(gpu_sim::SanitizeOptions::record());
        let report = solve_partitioned(&launcher, &sys, 6).unwrap();
        let r = l2_residual(&sys, &report.x).unwrap();
        assert!(r < 1e-8, "residual {r}");
    }
}
