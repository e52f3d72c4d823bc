//! AVX-512 i-lanes for the block-2 pass.
//!
//! GRAPE hardware parallelises over i: each pipeline holds its own
//! i-particle and all of them share one broadcast j-stream (paper §3.5;
//! the GRAPE-5 layout in PAPERS.md). This kernel does the same in a
//! 512-bit register: up to 16 i-particles of one home cell fill the f32
//! lanes, and the 27 neighbour cells' j-particles stream past them one
//! at a time, in slot order, broadcast to every lane.
//!
//! Each lane repeats the f32 operation sequence of
//! [`crate::pipeline::MdgPipeline::interact_cell`]: `xᵢ − (xⱼ + shift)`,
//! `(dx² + dy²) + dz²`, `x = a·r²`, the segment decode of
//! [`mdm_funceval::FunctionEvaluator::eval_batch`] with its
//! below/above/NaN classes, the quartic Horner as separate multiplies
//! and adds (no FMA), and `b·g·r⃗`. The products are widened to f64 and
//! added into two 8-lane accumulators per component, visiting the j's
//! in the scalar loop's order. IEEE adds and multiplies round the same
//! in a lane as in a scalar register, under the board call's
//! flush-to-zero mode, so each i-particle's result is **bitwise** that
//! of the scalar path. Lane masks drop the self slot and the unfilled
//! lanes of a partial group. The kernel needs AVX-512 F + DQ; without
//! them the board runs the scalar `stream_cell` loop.

#![cfg(target_arch = "x86_64")]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

use crate::board::IBatch;
use crate::chip::MdgChip;
use crate::jstore::JStore;
use crate::pipeline::{PairAccum, PipelineMode};
use mdm_funceval::{FunctionTable, POLY_COEFFS};
use std::arch::x86_64::*;
use std::ops::Range;

/// i-particles per register: the f32 lanes of a `__m512`.
const LANES: usize = 16;

/// Runtime gate for the kernel.
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

/// `g(x)` of `table` in every lane, bitwise equal to `eval_batch` per
/// element.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn eval(table: &FunctionTable, x: __m512) -> __m512 {
    let seg = table.segmentation();
    let rem_bits = 23 - seg.mantissa_bits;
    // Read as signed integers, the bits of positive finite inputs order
    // like their values, and zero, negatives, NaN and ±inf fall outside
    // [2^e_min, 2^e_max) and [2^e_max, inf): the in/above classes of
    // `eval_batch` are two compares each, and the rest is below range.
    let bits = _mm512_castps_si512(x);
    let lo = _mm512_set1_epi32((seg.e_min + 127) << 23);
    let hi = _mm512_set1_epi32((seg.e_max + 127) << 23);
    let inf = _mm512_set1_epi32(f32::INFINITY.to_bits() as i32);
    let inside = _mm512_cmpge_epi32_mask(bits, lo) & _mm512_cmplt_epi32_mask(bits, hi);
    let above = _mm512_cmpge_epi32_mask(bits, hi) & _mm512_cmplt_epi32_mask(bits, inf);
    // In range, `bits − bits(2^e_min)` is the exponent offset above the
    // mantissa, and its top bits are the segment index. The low bits
    // times the exact `2^-rem_bits` are `t`.
    let index = _mm512_srlv_epi32(
        _mm512_sub_epi32(bits, lo),
        _mm512_set1_epi32(rem_bits as i32),
    );
    let rem = _mm512_and_si512(bits, _mm512_set1_epi32(((1u32 << rem_bits) - 1) as i32));
    let t_scale = _mm512_set1_ps(f32::from_bits((127 - rem_bits) << 23));
    let t = _mm512_mul_ps(_mm512_cvtepi32_ps(rem), t_scale);
    // Flat offset of each lane's row, index · 5. The coefficients come
    // in as three 64-bit pairs per lane: (c0, c1), (c2, c3), (c3, c4).
    let rows = table.rows();
    assert_eq!(rows.len(), seg.segment_count(), "a row per segment");
    let row = _mm512_add_epi32(_mm512_slli_epi32::<2>(index), index);
    // SAFETY: AVX-512 F + DQ are enabled here, and an `inside` lane has
    // 2^e_min ≤ x < 2^e_max, so its index is below `segment_count()`,
    // which is `rows.len()`.
    let ((c0, c1), (c2, c3), (_, c4)) = unsafe {
        let pair = |k| gather_pair(rows, inside, row, k);
        (pair(0), pair(2), pair(3))
    };
    let h = _mm512_add_ps(_mm512_mul_ps(c4, t), c3);
    let h = _mm512_add_ps(_mm512_mul_ps(h, t), c2);
    let h = _mm512_add_ps(_mm512_mul_ps(h, t), c1);
    let h = _mm512_add_ps(_mm512_mul_ps(h, t), c0);
    // Below range: the first segment's `t = 0` value; above: 0.
    let below = _mm512_maskz_mov_ps(!(inside | above), _mm512_set1_ps(rows[0][0]));
    _mm512_mask_mov_ps(below, inside, h)
}

/// Coefficients `k` and `k + 1` of each `inside` lane's row, read as one
/// 64-bit pair per lane (eight lanes per gather) and split into even and
/// odd f32s; 0 in the other lanes.
///
/// # Safety
/// Needs AVX-512 F + DQ, and each `inside` lane of `row` must hold
/// `index · 5` with `index < rows.len()`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn gather_pair(
    rows: &[[f32; POLY_COEFFS]],
    inside: __mmask16,
    row: __m512i,
    k: usize,
) -> (__m512, __m512) {
    assert!(k + 1 < POLY_COEFFS);
    let base = rows.as_ptr().cast::<f32>().wrapping_add(k).cast::<f64>();
    let (row_lo, row_hi) = (
        _mm512_castsi512_si256(row),
        _mm512_extracti64x4_epi64::<1>(row),
    );
    let zero = _mm512_setzero_pd();
    // SAFETY: by the contract, an `inside` lane's 8 bytes at
    // `base + index·5` are elements `k` and `k + 1 < 5` of its row.
    // Gathers need no alignment, and masked-off lanes are not read.
    let (lo, hi) = unsafe {
        (
            _mm512_mask_i32gather_pd::<4>(zero, inside as __mmask8, row_lo, base),
            _mm512_mask_i32gather_pd::<4>(zero, (inside >> 8) as __mmask8, row_hi, base),
        )
    };
    let (lo, hi) = (_mm512_castpd_ps(lo), _mm512_castpd_ps(hi));
    let even = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
    let odd = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1);
    (
        _mm512_permutex2var_ps(lo, even, hi),
        _mm512_permutex2var_ps(lo, odd, hi),
    )
}

/// Load 16 f32 lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_ps(v: &[f32; LANES]) -> __m512 {
    // SAFETY: AVX-512 F is enabled; `v` is 64 readable bytes and
    // `loadu` has no alignment requirement.
    unsafe { _mm512_loadu_ps(v.as_ptr()) }
}

/// Store the 16 f64 lanes of a two-register accumulator.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_pd(acc: [__m512d; 2]) -> [f64; LANES] {
    let mut out = [0.0f64; LANES];
    // SAFETY: AVX-512 F is enabled; `out` is two 64-byte halves of
    // writable f64s, and `storeu` has no alignment requirement.
    unsafe {
        _mm512_storeu_pd(out.as_mut_ptr(), acc[0]);
        _mm512_storeu_pd(out.as_mut_ptr().add(8), acc[1]);
    }
    out
}

/// Widen 16 f32 lanes to f64 and add the `mask` lanes into `acc`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn accumulate(acc: &mut [__m512d; 2], mask: __mmask16, v: __m512) {
    let lo = _mm512_cvtps_pd(_mm512_castps512_ps256(v));
    let hi = _mm512_cvtps_pd(_mm512_extractf32x8_ps::<1>(v));
    acc[0] = _mm512_mask_add_pd(acc[0], mask as __mmask8, acc[0], lo);
    acc[1] = _mm512_mask_add_pd(acc[1], (mask >> 8) as __mmask8, acc[1], hi);
}

/// The block-2 pass for `batch[range]` on i-lanes with `chip`'s table
/// and coefficient RAM: one accumulator per i-particle into `out`
/// (range order), with the bits and per-i op counts of the board's
/// scalar loop. The caller deals the ops to chips.
///
/// # Safety
/// Needs AVX-512 F + DQ ([`available`]).
#[target_feature(enable = "avx512f,avx512dq")]
pub(crate) fn calc_block2(
    mode: PipelineMode,
    chip: &MdgChip,
    batch: &IBatch,
    range: Range<usize>,
    jstore: &JStore,
    out: &mut [PairAccum],
) {
    assert_eq!(out.len(), range.len());
    let (table, coeffs) = (chip.evaluator().table(), chip.coefficients());
    // Per j-species: each lane's `a(tᵢ, tⱼ)` and `b(tᵢ, tⱼ)`.
    let mut a = vec![[0f32; LANES]; coeffs.n_types()];
    let mut b = a.clone();
    // Bucket the range by home cell, each cell's i-particles in range
    // order (the sort is stable); a group of lanes shares one cell and
    // so one neighbour list.
    let mut order: Vec<usize> = range.clone().collect();
    order.sort_by_key(|&i| batch.cells[i]);
    let cells = order.chunk_by(|&i, &j| batch.cells[i] == batch.cells[j]);
    for group in cells.flat_map(|cell| cell.chunks(LANES)) {
        let live = (u32::MAX >> (32 - group.len())) as __mmask16;
        let (mut xi, mut yi, mut zi) = ([0f32; LANES], [0f32; LANES], [0f32; LANES]);
        let mut self_slots = [crate::board::NO_SELF_SLOT; LANES];
        for (lane, &i) in group.iter().enumerate() {
            (xi[lane], yi[lane], zi[lane]) = (batch.xs[i], batch.ys[i], batch.zs[i]);
            self_slots[lane] = batch.self_slots[i];
            let (a_row, b_row) = coeffs.rows(batch.types[i]);
            for (tj, (&a_ij, &b_ij)) in a_row.iter().zip(b_row).enumerate() {
                (a[tj][lane], b[tj][lane]) = (a_ij, b_ij);
            }
        }
        // SAFETY: AVX-512 F is enabled; `self_slots` is 64 readable
        // bytes and `loadu` has no alignment requirement.
        let self_v = unsafe { _mm512_loadu_si512(self_slots.as_ptr().cast()) };
        let (xv, yv, zv) = (load_ps(&xi), load_ps(&yi), load_ps(&zi));
        let zero = _mm512_setzero_pd();
        let (mut ax, mut ay, mut az) = ([zero; 2], [zero; 2], [zero; 2]);
        let mut ops = [0u64; LANES];
        for &(nc, shift) in jstore.neighbors27(batch.cells[group[0]] as usize) {
            let slots = jstore.cell_range(nc as usize);
            let cols = jstore.cell_columns(nc as usize);
            // As in the scalar loop, the self pair (in a zero-shift
            // cell holding the self slot) is skipped, not evaluated.
            let may_hold_self = shift == [0.0f32; 3];
            for (lane, &s) in self_slots[..group.len()].iter().enumerate() {
                let skip = may_hold_self && slots.contains(&(s as usize));
                ops[lane] += (slots.len() - usize::from(skip)) as u64;
            }
            let js = cols.xs.iter().zip(cols.ys).zip(cols.zs).zip(cols.types);
            for (slot, (((&xj, &yj), &zj), &tj)) in slots.zip(js) {
                let mask = if may_hold_self {
                    live & _mm512_cmpneq_epi32_mask(self_v, _mm512_set1_epi32(slot as i32))
                } else {
                    live
                };
                let dx = _mm512_sub_ps(xv, _mm512_set1_ps(xj + shift[0]));
                let dy = _mm512_sub_ps(yv, _mm512_set1_ps(yj + shift[1]));
                let dz = _mm512_sub_ps(zv, _mm512_set1_ps(zj + shift[2]));
                let r_sq = _mm512_add_ps(
                    _mm512_add_ps(_mm512_mul_ps(dx, dx), _mm512_mul_ps(dy, dy)),
                    _mm512_mul_ps(dz, dz),
                );
                let tj = tj as usize;
                let g = eval(table, _mm512_mul_ps(load_ps(&a[tj]), r_sq));
                let bg = _mm512_mul_ps(load_ps(&b[tj]), g);
                match mode {
                    PipelineMode::Force => {
                        accumulate(&mut ax, mask, _mm512_mul_ps(bg, dx));
                        accumulate(&mut ay, mask, _mm512_mul_ps(bg, dy));
                        accumulate(&mut az, mask, _mm512_mul_ps(bg, dz));
                    }
                    PipelineMode::Potential => accumulate(&mut ax, mask, bg),
                }
            }
        }
        let (fx, fy, fz) = (store_pd(ax), store_pd(ay), store_pd(az));
        for (lane, &i) in group.iter().enumerate() {
            out[i - range.start] = PairAccum {
                acc: [fx[lane], fy[lane], fz[lane]],
                ops: ops[lane],
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane `eval` against the scalar evaluator, bitwise, for every
    /// built-in table over a dense log sweep plus each out-of-range
    /// class. Denser than the pair tests, so a single fused or
    /// reassociated Horner step shows.
    #[test]
    fn lane_eval_bitwise_matches_scalar_eval() {
        if !available() {
            eprintln!("skipping: AVX-512 F/DQ not available on this host");
            return;
        }
        let mut xs = vec![
            0.0,
            -0.0,
            -1.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            -f32::INFINITY,
        ];
        xs.extend([f32::from_bits(1), f32::MIN_POSITIVE, f32::MAX]);
        xs.extend((0..800_000).map(|k| 1e-14f32 * 1.000_07f32.powi(k)));
        xs.resize(xs.len().next_multiple_of(LANES), 1.0);
        let _ftz = crate::ftz::FtzGuard::new();
        for g in crate::tables::ALL {
            let ev = g.build_evaluator().unwrap();
            // SAFETY: `available` detected AVX-512 F and DQ above.
            let got = unsafe { eval_all(ev.table(), &xs) };
            for (x, lane) in xs.iter().zip(got) {
                assert_eq!(lane.to_bits(), ev.eval(*x).to_bits(), "{g:?} x = {x:e}");
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    fn eval_all(table: &FunctionTable, xs: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; xs.len()];
        for (x, o) in xs.chunks_exact(LANES).zip(out.chunks_exact_mut(LANES)) {
            let g = eval(table, load_ps(x.try_into().unwrap()));
            // SAFETY: AVX-512 F is enabled; `o` is 16 writable f32s.
            unsafe { _mm512_storeu_ps(o.as_mut_ptr(), g) };
        }
        out
    }
}
