//! Block matching between Morton-ordered attribute sequences.

use pcc_types::Rgb;
use std::num::NonZeroUsize;
use std::ops::Range;

/// How one P-block is coded after matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// The best-matched I-block is similar enough: store only the pointer.
    Reuse,
    /// Too dissimilar: store per-point deltas against the best match.
    Delta,
}

/// The match result for one P-block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMatch {
    /// Offset of the best-matched I-block inside the candidate window
    /// (6–7 bits for the paper's 100-candidate window).
    pub window_offset: u16,
    /// Index of the matched I-block (window start + offset).
    pub i_block: u32,
    /// Normalized 2-norm distance of the best match (per 20-point block,
    /// the paper's block granularity).
    pub best_diff: u64,
    /// Reuse-or-delta decision at the configured threshold.
    pub outcome: MatchOutcome,
}

/// Aggregate reuse statistics (the paper's Fig. 10b x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReuseStats {
    /// Blocks coded as direct reuse.
    pub reused: usize,
    /// Blocks coded as post-intra-encoded deltas.
    pub delta: usize,
}

impl ReuseStats {
    /// Fraction of blocks directly reused (0 when there are no blocks).
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.reused + self.delta;
        if total == 0 {
            return 0.0;
        }
        self.reused as f64 / total as f64
    }
}

/// Work-item counts of a matching pass, for device-model charging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchCharge {
    /// (P-point, I-point) channel-difference items (`Diff_Squared`).
    pub pair_items: usize,
    /// Compared (P-block, I-block) pairs (`Squared_Sum` reductions).
    pub block_pairs: usize,
}

/// The candidate window of I-blocks for P-block `p_idx`: centered on the
/// proportionally aligned I-block, clamped to the valid range.
pub(crate) fn candidate_window(
    p_idx: usize,
    p_blocks: usize,
    i_blocks: usize,
    candidates: usize,
) -> (usize, usize) {
    if i_blocks == 0 {
        return (0, 0);
    }
    let aligned = p_idx * i_blocks / p_blocks.max(1);
    let half = candidates / 2;
    let start = aligned.saturating_sub(half);
    let end = (start + candidates).min(i_blocks);
    let start = end.saturating_sub(candidates);
    (start, end)
}

/// The proportional index map of a `len_p`-point block onto a
/// `len_i`-point block: `⌊k·len_i/len_p⌋` for `k in 0..len_p`, stepped
/// with one division per block rather than one per point (the identity
/// when the lengths are equal). Every index is below `len_i`; an empty
/// `len_i` maps everything to 0.
pub(crate) fn proportional_indices(len_p: usize, len_i: usize) -> impl Iterator<Item = usize> {
    let (step, rem) = match len_p {
        0 => (0, 0),
        _ => (len_i / len_p, len_i % len_p),
    };
    let (mut index, mut carry) = (0, 0);
    (0..len_p).map(move |_| {
        let k = index;
        index += step;
        carry += rem;
        if carry >= len_p {
            carry -= len_p;
            index += 1;
        }
        k
    })
}

/// Writes the reference colors predicted for a P-block's points into
/// `out` (one slot per point): `i_block` resampled to `out.len()` points
/// by the matcher's proportional map — a plain copy when the lengths are
/// equal, as they mostly are; black when `i_block` is empty.
pub(crate) fn predict_into(out: &mut [Rgb], i_block: &[Rgb]) {
    if out.len() == i_block.len() {
        out.copy_from_slice(i_block);
        return;
    }
    let len_p = out.len();
    for (slot, idx) in out.iter_mut().zip(proportional_indices(len_p, i_block.len())) {
        *slot = i_block.get(idx).copied().unwrap_or(Rgb::BLACK);
    }
}

/// Bytes per kernel step. A block in the matcher's byte layout is its
/// `r,g,b` bytes zero-padded to a multiple of this.
const LANES: usize = 16;

/// Byte length of a `len`-point block in the padded layout.
fn padded(len: usize) -> usize {
    (3 * len).next_multiple_of(LANES)
}

/// Writes `block` resampled to `len_p` points (the proportional map) as
/// `r,g,b` bytes into the front of the zeroed `out`.
fn write_resampled(out: &mut [u8], block: &[Rgb], len_p: usize) {
    for (dst, idx) in out.chunks_exact_mut(3).zip(proportional_indices(len_p, block.len())) {
        if let Some(c) = block.get(idx) {
            dst.copy_from_slice(&[c.r, c.g, c.b]);
        }
    }
}

/// Sum of squared byte differences of two equal-length byte slices whose
/// length is a multiple of [`LANES`] (the `Diff_Squared` + `Squared_Sum`
/// pair over one padded block). Each fixed 16-byte chunk squares its
/// `u8` differences into a `u32` sum; a chunk sums to at most 16 · 255²,
/// so only the running total needs `u64`. The difference is written
/// `max − min` because LLVM then keeps it in bytes (`pmaxub`, `pminub`,
/// `psubb` on SSE2) before `pmaddwd` squares and pair-sums it; `abs_diff`
/// is lowered through 32-bit lanes at about twice the instruction count.
fn sum_squared_diff(p: &[u8], i: &[u8]) -> u64 {
    let mut total = 0u64;
    for (pc, ic) in p.chunks_exact(LANES).zip(i.chunks_exact(LANES)) {
        let mut chunk = 0u32;
        for (&a, &b) in pc.iter().zip(ic) {
            let d = u32::from(a.max(b) - a.min(b));
            chunk += d * d;
        }
        total += u64::from(chunk);
    }
    total
}

/// The matcher's byte buffers, one set per search chunk (one chunk on
/// the single-threaded path). Held by [`InterArena`](crate::InterArena)
/// so the steady state does not allocate.
#[derive(Debug, Default)]
pub(crate) struct MatchScratch {
    chunks: Vec<ChunkBytes>,
}

/// One chunk's byte buffers: its P-blocks packed once per frame, and the
/// I-blocks they can reach resampled to the P-block length being matched.
#[derive(Debug, Default)]
struct ChunkBytes {
    p_bytes: Vec<u8>,
    i_bytes: Vec<u8>,
}

/// Point range of block `idx` given the block `starts` over `len` points.
// Callers pass `idx < starts.len()`.
#[allow(clippy::indexing_slicing)]
fn block_of(starts: &[u32], len: usize, idx: usize) -> Range<usize> {
    let start = starts[idx] as usize;
    let end = starts.get(idx + 1).map_or(len, |&e| e as usize);
    start..end
}

/// One frame's matching inputs.
struct Search<'a> {
    p_colors: &'a [Rgb],
    i_colors: &'a [Rgb],
    p_starts: &'a [u32],
    i_starts: &'a [u32],
    candidates: usize,
    threshold: u32,
}

impl Search<'_> {
    fn p_block(&self, idx: usize) -> Range<usize> {
        block_of(self.p_starts, self.p_colors.len(), idx)
    }

    fn i_block(&self, idx: usize) -> Range<usize> {
        block_of(self.i_starts, self.i_colors.len(), idx)
    }

    fn window(&self, p_idx: usize) -> (usize, usize) {
        candidate_window(p_idx, self.p_starts.len(), self.i_starts.len(), self.candidates)
    }

    /// The shortest P-block length in `range` above `above` (any length
    /// when `None`), with the first and last block of that length.
    fn next_length(
        &self,
        range: Range<usize>,
        above: Option<usize>,
    ) -> Option<(usize, usize, usize)> {
        let mut found: Option<(usize, usize, usize)> = None;
        for k in range {
            let n = self.p_block(k).len();
            if above.is_some_and(|a| n <= a) {
                continue;
            }
            match &mut found {
                Some((m, _, last)) if *m == n => *last = k,
                Some((m, ..)) if *m < n => {}
                _ => found = Some((n, k, k)),
            }
        }
        found
    }

    /// Matches the P-blocks of `range` into `out` (the same blocks'
    /// slots), one pass per distinct P-block length.
    ///
    /// The chunk's P-blocks are packed once, in order, with `LANES - 1`
    /// zero bytes after each, so reading a block's `padded` length never
    /// reaches its neighbour. A pass resamples every I-block its P-blocks
    /// can reach to that length once, so each (P-block, candidate)
    /// comparison is [`sum_squared_diff`] over two padded byte blocks of
    /// equal length.
    // Block ranges come from the caller's starts over these exact color
    // arrays (a bad range panics at the slice, as in the point-at-a-time
    // matcher), and the byte buffers are sized for every offset below.
    #[allow(clippy::indexing_slicing)]
    fn match_range(&self, range: Range<usize>, out: &mut [BlockMatch], bytes: &mut ChunkBytes) {
        let (Some(first), Some(last)) = (range.clone().next(), range.clone().last()) else {
            return;
        };
        let ChunkBytes { p_bytes, i_bytes } = bytes;
        let base = self.p_block(first).start;
        let p_offset = |k: usize| 3 * (self.p_block(k).start - base) + (LANES - 1) * (k - first);
        p_bytes.clear();
        p_bytes.resize(p_offset(last) + 3 * self.p_block(last).len() + LANES - 1, 0);
        for k in range.clone() {
            let block = &self.p_colors[self.p_block(k)];
            let off = p_offset(k);
            write_resampled(&mut p_bytes[off..off + 3 * block.len()], block, block.len());
        }

        let mut above = None;
        while let Some((len_p, first_p, last_p)) = self.next_length(range.clone(), above) {
            above = Some(len_p);
            // Windows move monotonically with the P-block index, so the
            // first and last block of this length bound every window.
            let reach = self.window(first_p).0..self.window(last_p).1;
            let stride = padded(len_p);
            i_bytes.clear();
            i_bytes.resize(reach.len() * stride, 0);
            if stride > 0 {
                for (dst, j) in i_bytes.chunks_exact_mut(stride).zip(reach.clone()) {
                    write_resampled(dst, &self.i_colors[self.i_block(j)], len_p);
                }
            }
            for (p_idx, slot) in range.clone().zip(out.iter_mut()) {
                if self.p_block(p_idx).len() != len_p {
                    continue;
                }
                let (w_start, w_end) = self.window(p_idx);
                let best = if len_p == 0 {
                    // An empty P-block is at distance 0 from every candidate.
                    (w_start < w_end).then_some((w_start, 0))
                } else {
                    let p = &p_bytes[p_offset(p_idx)..][..stride];
                    let window =
                        &i_bytes[(w_start - reach.start) * stride..(w_end - reach.start) * stride];
                    self.best_candidate(p, len_p, w_start, window.chunks_exact(stride))
                };
                let (i_block, best_diff) = best.unwrap_or((0, u64::MAX));
                let outcome = if best_diff <= self.threshold as u64 {
                    MatchOutcome::Reuse
                } else {
                    MatchOutcome::Delta
                };
                *slot = BlockMatch {
                    window_offset: (i_block - w_start) as u16,
                    i_block: i_block as u32,
                    best_diff,
                    outcome,
                };
            }
        }
    }

    /// The best of the resampled `candidates` (I-blocks from `w_start`
    /// on) for the padded `len_p`-point P-block `p`: (I-block index,
    /// normalized distance).
    ///
    /// The normalized distance `⌊20·s/len_p⌋` beats the best so far `d`
    /// exactly when `20·s < d·len_p`, so the division runs only when a new
    /// best is recorded; the earliest candidate wins ties.
    fn best_candidate<'b>(
        &self,
        p: &[u8],
        len_p: usize,
        w_start: usize,
        candidates: impl Iterator<Item = &'b [u8]>,
    ) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        // Distances `20·s` below this beat the best; u64::MAX while no
        // non-empty candidate was seen.
        let mut bound = u64::MAX;
        for (i_idx, cand) in (w_start..).zip(candidates) {
            if self.i_block(i_idx).is_empty() {
                // An empty reference block can never match: its distance
                // is u64::MAX, which wins only as the first candidate.
                best.get_or_insert((i_idx, u64::MAX));
                continue;
            }
            let scaled = sum_squared_diff(p, cand) * 20;
            if scaled < bound {
                let diff = scaled / len_p as u64;
                best = Some((i_idx, diff));
                bound = diff * len_p as u64;
            }
        }
        best
    }
}

/// Matches every P-block against its candidate I-blocks, deciding
/// reuse-vs-delta at `threshold`.
///
/// `p_starts`/`i_starts` are the block boundaries over the Morton-ordered
/// color sequences (as produced by
/// [`pcc_intra::encode_layer`]'s segmentation helper). Every block is
/// independent — the modeled GPU runs the whole pass as two kernels.
pub fn match_blocks(
    p_colors: &[Rgb],
    i_colors: &[Rgb],
    p_starts: &[u32],
    i_starts: &[u32],
    candidates: usize,
    threshold: u32,
) -> (Vec<BlockMatch>, ReuseStats, MatchCharge) {
    match_blocks_with(
        p_colors,
        i_colors,
        p_starts,
        i_starts,
        candidates,
        threshold,
        pcc_parallel::resolve(None),
    )
}

/// [`match_blocks`] with an explicit host thread count.
///
/// P-blocks are partitioned into contiguous index chunks, each searched
/// independently into its own slice of the output — so the result (and
/// any stream derived from it) is byte-identical at every thread count.
#[allow(clippy::too_many_arguments)]
pub fn match_blocks_with(
    p_colors: &[Rgb],
    i_colors: &[Rgb],
    p_starts: &[u32],
    i_starts: &[u32],
    candidates: usize,
    threshold: u32,
    threads: NonZeroUsize,
) -> (Vec<BlockMatch>, ReuseStats, MatchCharge) {
    let mut matches = Vec::new();
    let (stats, charge) = match_blocks_into(
        p_colors,
        i_colors,
        p_starts,
        i_starts,
        candidates,
        threshold,
        threads,
        &mut matches,
    );
    (matches, stats, charge)
}

/// [`match_blocks_with`] writing the matches into a caller-owned buffer
/// (cleared first). The matcher's byte buffers are allocated per call;
/// the inter encoder keeps them in its [`InterArena`](crate::InterArena)
/// instead, which keeps its single-threaded steady state allocation-free.
#[allow(clippy::too_many_arguments)]
pub fn match_blocks_into(
    p_colors: &[Rgb],
    i_colors: &[Rgb],
    p_starts: &[u32],
    i_starts: &[u32],
    candidates: usize,
    threshold: u32,
    threads: NonZeroUsize,
    matches: &mut Vec<BlockMatch>,
) -> (ReuseStats, MatchCharge) {
    match_blocks_in(
        p_colors,
        i_colors,
        p_starts,
        i_starts,
        candidates,
        threshold,
        threads,
        &mut MatchScratch::default(),
        matches,
    )
}

/// [`match_blocks_into`] over caller-owned byte buffers.
///
/// P-blocks are split into contiguous chunks, one per thread. Each chunk
/// packs its own P-blocks, resamples the I-blocks they can reach once per
/// distinct P-block length (segmentation yields at most two), and writes
/// its matches into its own slice of `matches`. The reuse statistics and
/// kernel charges are then counted over the whole table.
#[allow(clippy::too_many_arguments)]
pub(crate) fn match_blocks_in(
    p_colors: &[Rgb],
    i_colors: &[Rgb],
    p_starts: &[u32],
    i_starts: &[u32],
    candidates: usize,
    threshold: u32,
    threads: NonZeroUsize,
    scratch: &mut MatchScratch,
    matches: &mut Vec<BlockMatch>,
) -> (ReuseStats, MatchCharge) {
    let search = Search { p_colors, i_colors, p_starts, i_starts, candidates, threshold };
    let p_blocks = p_starts.len();
    let i_blocks = i_starts.len();
    let unmatched = BlockMatch {
        window_offset: 0,
        i_block: 0,
        best_diff: u64::MAX,
        outcome: MatchOutcome::Delta,
    };
    matches.clear();
    matches.resize(p_blocks, unmatched);

    // Per-block work is ~candidates × block-size comparisons, so weight
    // the fan-out decision by compared pairs rather than block count.
    let weight = p_blocks.saturating_mul(candidates.min(i_blocks.max(1)));
    let fan = pcc_parallel::effective_threads(threads, weight).min(p_blocks.max(1));
    if scratch.chunks.len() < fan {
        scratch.chunks.resize_with(fan, ChunkBytes::default);
    }
    if fan <= 1 {
        let bytes = scratch.chunks.first_mut().expect("one chunk's buffers exist");
        search.match_range(0..p_blocks, matches, bytes);
    } else {
        let ranges = pcc_parallel::chunk_ranges(p_blocks, fan);
        let cuts: Vec<usize> = ranges.iter().skip(1).map(|r| r.start).collect();
        let parts = pcc_parallel::split_at_many(matches, &cuts);
        let ctxs = ranges.into_iter().zip(&mut scratch.chunks).collect();
        pcc_parallel::scope_run(parts, ctxs, |_, (range, bytes), out| {
            search.match_range(range, out, bytes);
        });
    }

    let mut stats = ReuseStats::default();
    let mut charge = MatchCharge::default();
    for (p_idx, m) in matches.iter().enumerate() {
        let (w_start, w_end) = search.window(p_idx);
        charge.pair_items += search.p_block(p_idx).len() * (w_end - w_start);
        charge.block_pairs += w_end - w_start;
        match m.outcome {
            MatchOutcome::Reuse => stats.reused += 1,
            MatchOutcome::Delta => stats.delta += 1,
        }
    }
    (stats, charge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_intra::encode_layer; // only to reuse its segmentation in docs
    use proptest::prelude::*;

    /// Proportionally maps index `k` of a `len_p`-point block onto a
    /// `len_i`-point block, one division per point (the oracle of
    /// [`proportional_indices`]).
    fn map_index(k: usize, len_p: usize, len_i: usize) -> usize {
        if len_p == 0 || len_i == 0 {
            return 0;
        }
        (k * len_i / len_p).min(len_i - 1)
    }

    /// 2-norm attribute distance between a P-block and an I-block
    /// (Equ. 2), normalized to a 20-point block, one point pair at a time
    /// (the oracle of the padded byte kernel).
    fn block_diff(p: &[Rgb], i: &[Rgb]) -> u64 {
        if p.is_empty() {
            return 0;
        }
        if i.is_empty() {
            return u64::MAX; // an empty reference block can never match
        }
        let sum: u64 = p
            .iter()
            .enumerate()
            .map(|(k, &pc)| pc.distance_squared(i[map_index(k, p.len(), i.len())]) as u64)
            .sum();
        sum * 20 / p.len() as u64
    }

    /// The naive matcher: every (P-block, candidate) pair through
    /// [`block_diff`], the earliest minimum winning.
    fn oracle_match(
        p_colors: &[Rgb],
        i_colors: &[Rgb],
        p_starts: &[u32],
        i_starts: &[u32],
        candidates: usize,
        threshold: u32,
    ) -> (Vec<BlockMatch>, ReuseStats, MatchCharge) {
        let (p_blocks, i_blocks) = (p_starts.len(), i_starts.len());
        let mut matches = Vec::new();
        let mut stats = ReuseStats::default();
        let mut charge = MatchCharge::default();
        for p_idx in 0..p_blocks {
            let p_block = &p_colors[block_of(p_starts, p_colors.len(), p_idx)];
            let (w_start, w_end) = candidate_window(p_idx, p_blocks, i_blocks, candidates);
            let mut best: Option<(usize, u64)> = None;
            for i_idx in w_start..w_end {
                let i_block = &i_colors[block_of(i_starts, i_colors.len(), i_idx)];
                let diff = block_diff(p_block, i_block);
                charge.pair_items += p_block.len();
                charge.block_pairs += 1;
                if best.is_none_or(|(_, d)| diff < d) {
                    best = Some((i_idx, diff));
                }
            }
            let (i_block, best_diff) = best.unwrap_or((0, u64::MAX));
            let outcome = if best_diff <= threshold as u64 {
                stats.reused += 1;
                MatchOutcome::Reuse
            } else {
                stats.delta += 1;
                MatchOutcome::Delta
            };
            matches.push(BlockMatch {
                window_offset: (i_block - w_start) as u16,
                i_block: i_block as u32,
                best_diff,
                outcome,
            });
        }
        (matches, stats, charge)
    }

    /// Block starts over a sequence cut into blocks of `lens` points.
    fn starts_of(lens: &[usize]) -> Vec<u32> {
        lens.iter()
            .scan(0u32, |at, &n| {
                let start = *at;
                *at += n as u32;
                Some(start)
            })
            .collect()
    }

    fn colors_of(bytes: &[(u8, u8, u8)]) -> Vec<Rgb> {
        bytes.iter().map(|&(r, g, b)| Rgb::new(r, g, b)).collect()
    }

    fn grays(values: &[u8]) -> Vec<Rgb> {
        values.iter().map(|&v| Rgb::gray(v)).collect()
    }

    #[test]
    fn identical_sequences_fully_reuse() {
        let colors = grays(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let starts = vec![0u32, 4];
        let (matches, stats, charge) =
            match_blocks(&colors, &colors, &starts, &starts, 4, 0);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.delta, 0);
        assert_eq!(stats.reuse_fraction(), 1.0);
        assert!(matches.iter().all(|m| m.best_diff == 0));
        assert!(charge.block_pairs > 0);
        let _ = encode_layer(&[[0; 3]], 1, 1); // keep the doc-reference honest
    }

    #[test]
    fn dissimilar_blocks_become_delta() {
        let p = grays(&[200, 200, 200, 200]);
        let i = grays(&[10, 10, 10, 10]);
        let starts = vec![0u32];
        let (matches, stats, _) = match_blocks(&p, &i, &starts, &starts, 4, 300);
        assert_eq!(stats.delta, 1);
        assert_eq!(matches[0].outcome, MatchOutcome::Delta);
        // diff = 4 points × 3 channels × 190² × 20/4.
        assert_eq!(matches[0].best_diff, 3 * 190 * 190 * 20);
    }

    #[test]
    fn threshold_moves_the_decision() {
        let p = grays(&[100, 100]);
        let i = grays(&[104, 104]);
        let starts = vec![0u32];
        // diff per point = 3·16 = 48; normalized ×20/2 → 960.
        let (_, s_tight, _) = match_blocks(&p, &i, &starts, &starts, 1, 300);
        assert_eq!(s_tight.reused, 0);
        let (_, s_loose, _) = match_blocks(&p, &i, &starts, &starts, 1, 1200);
        assert_eq!(s_loose.reused, 1);
    }

    #[test]
    fn window_clamps_at_sequence_edges() {
        assert_eq!(candidate_window(0, 10, 10, 4), (0, 4));
        assert_eq!(candidate_window(9, 10, 10, 4), (6, 10));
        assert_eq!(candidate_window(5, 10, 10, 100), (0, 10));
        assert_eq!(candidate_window(0, 10, 0, 4), (0, 0));
    }

    #[test]
    fn matcher_finds_shifted_content() {
        // I-frame holds the P-block's exact content one block later.
        let p = grays(&[50, 50, 9, 9]);
        let i = grays(&[1, 1, 50, 50]);
        let p_starts = vec![0u32, 2];
        let i_starts = vec![0u32, 2];
        let (matches, _, _) = match_blocks(&p, &i, &p_starts, &i_starts, 4, 0);
        assert_eq!(matches[0].i_block, 1); // found the shifted match
        assert_eq!(matches[0].best_diff, 0);
    }

    #[test]
    fn unequal_block_lengths_map_proportionally() {
        assert_eq!(map_index(0, 4, 2), 0);
        assert_eq!(map_index(3, 4, 2), 1);
        assert_eq!(map_index(1, 2, 6), 3);
        assert_eq!(map_index(0, 0, 5), 0);
        let p = grays(&[10, 10, 10, 10]);
        let i = grays(&[10, 10]);
        assert_eq!(block_diff(&p, &i), 0);
    }

    #[test]
    fn stepped_map_equals_the_dividing_map() {
        for len_p in 0..64 {
            for len_i in 0..64 {
                let stepped: Vec<usize> = proportional_indices(len_p, len_i).collect();
                let divided: Vec<usize> = (0..len_p).map(|k| map_index(k, len_p, len_i)).collect();
                assert_eq!(stepped, divided, "len_p {len_p}, len_i {len_i}");
            }
        }
        let reference = grays(&[7, 8, 9]);
        let mut predicted = vec![Rgb::WHITE; 5];
        predict_into(&mut predicted, &reference);
        assert_eq!(predicted, grays(&[7, 7, 8, 8, 9]));
        predict_into(&mut predicted[..3], &reference);
        assert_eq!(predicted, grays(&[7, 8, 9, 8, 9]));
        predict_into(&mut predicted, &[]);
        assert_eq!(predicted, vec![Rgb::BLACK; 5]);
    }

    #[test]
    fn kernel_sums_squared_differences_over_long_blocks() {
        // Past u32 range in total: every byte differs by 255.
        let len = LANES * 20_000;
        let (p, i) = (vec![255u8; len], vec![0u8; len]);
        assert_eq!(sum_squared_diff(&p, &i), len as u64 * 255 * 255);
        let (p, i) = ([3u8; LANES], [1u8; LANES]);
        assert_eq!(sum_squared_diff(&p, &i), LANES as u64 * 4);
    }

    #[test]
    fn normalized_ties_keep_the_earlier_candidate() {
        // Two `len`-point candidates against a black P-block, at raw sums
        // 22 (16+4+1 + 1) and 21 (16+4+1).
        let candidates_at = |len: usize| -> Vec<Rgb> {
            let mut i = vec![Rgb::BLACK; 2 * len];
            i[0] = Rgb::new(4, 2, 1);
            i[1] = Rgb::new(1, 0, 0);
            i[len] = Rgb::new(4, 2, 1);
            i
        };
        // At length 7 they normalize to 62 and 60: the later one wins.
        let (p, i) = (vec![Rgb::BLACK; 7], candidates_at(7));
        let (matches, _, _) = match_blocks(&p, &i, &[0], &[0, 7], 2, 0);
        assert_eq!((matches[0].i_block, matches[0].best_diff), (1, 60));

        // At length 21 both normalize to 20: a tie, so the earlier
        // candidate wins although its raw sum is larger.
        let (p, i) = (vec![Rgb::BLACK; 21], candidates_at(21));
        for t in [1usize, 2, 3] {
            let got =
                match_blocks_with(&p, &i, &[0], &[0, 21], 2, 0, NonZeroUsize::new(t).unwrap());
            assert_eq!((got.0[0].i_block, got.0[0].best_diff), (0, 20), "threads = {t}");
            assert_eq!(got, oracle_match(&p, &i, &[0], &[0, 21], 2, 0));
        }
    }

    #[test]
    fn empty_blocks_keep_their_distances() {
        // P-block 1 is empty (distance 0 to every candidate, so the first
        // wins); I-block 0 is empty (u64::MAX, winning only when first
        // and alone).
        let p = grays(&[5, 5, 5, 9, 9]);
        let p_starts = [0u32, 3, 3];
        let i = grays(&[5, 5, 9, 9]);
        let i_starts = [0u32, 0, 2];
        for candidates in [1usize, 2, 3] {
            let got = match_blocks(&p, &i, &p_starts, &i_starts, candidates, 0);
            assert_eq!(got, oracle_match(&p, &i, &p_starts, &i_starts, candidates, 0));
        }
        let (matches, _, _) = match_blocks(&p, &i, &p_starts, &i_starts, 3, 0);
        assert_eq!((matches[1].i_block, matches[1].best_diff), (0, 0));
        assert_eq!((matches[0].i_block, matches[0].best_diff), (1, 0));
        let (matches, _, _) = match_blocks(&p, &i, &p_starts, &i_starts, 1, 0);
        assert_eq!((matches[0].i_block, matches[0].best_diff), (0, u64::MAX));
    }

    #[test]
    fn oracle_agrees_on_large_mixed_lengths() {
        // Large enough to fan out; block lengths 0..=23, so 3·len is
        // rarely a multiple of 16, and zero-length blocks on both sides.
        let mut state = 0x9e37_79b9_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let p_lens: Vec<usize> = (0..2_000).map(|_| (next() % 24) as usize).collect();
        let i_lens: Vec<usize> = (0..1_800).map(|_| (next() % 24) as usize).collect();
        let p: Vec<Rgb> = (0..p_lens.iter().sum::<usize>())
            .map(|_| {
                let v = next();
                Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8)
            })
            .collect();
        let i: Vec<Rgb> = (0..i_lens.iter().sum::<usize>())
            .map(|_| {
                let v = next();
                Rgb::new(v as u8, (v >> 8) as u8, (v >> 16) as u8)
            })
            .collect();
        let (p_starts, i_starts) = (starts_of(&p_lens), starts_of(&i_lens));
        let expect = oracle_match(&p, &i, &p_starts, &i_starts, 40, 400_000);
        for t in [1usize, 2, 3] {
            let got = match_blocks_with(
                &p, &i, &p_starts, &i_starts, 40, 400_000, NonZeroUsize::new(t).unwrap(),
            );
            assert_eq!(got, expect, "threads = {t}");
        }
    }

    #[test]
    fn empty_reference_marks_everything_delta() {
        let p = grays(&[1, 2, 3]);
        let (matches, stats, _) = match_blocks(&p, &[], &[0], &[], 4, 1000);
        assert_eq!(stats.delta, 1);
        assert_eq!(matches[0].best_diff, u64::MAX);
    }

    #[test]
    fn parallel_matching_identical_on_large_input() {
        let p: Vec<Rgb> = (0..40_000).map(|i| Rgb::gray((i % 251) as u8)).collect();
        let i: Vec<Rgb> = (0..36_000).map(|i| Rgb::gray((i % 247) as u8)).collect();
        let p_starts: Vec<u32> = (0..p.len() as u32).step_by(20).collect();
        let i_starts: Vec<u32> = (0..i.len() as u32).step_by(20).collect();
        let baseline = match_blocks_with(
            &p, &i, &p_starts, &i_starts, 16, 500, NonZeroUsize::new(1).unwrap(),
        );
        for t in [2usize, 3, 8] {
            let got = match_blocks_with(
                &p, &i, &p_starts, &i_starts, 16, 500, NonZeroUsize::new(t).unwrap(),
            );
            assert_eq!(got, baseline, "threads = {t}");
        }
    }

    proptest! {
        #[test]
        fn reuse_fraction_monotone_in_threshold(
            p in prop::collection::vec(any::<u8>(), 8..64),
            i in prop::collection::vec(any::<u8>(), 8..64),
        ) {
            let p = grays(&p);
            let i = grays(&i);
            let p_starts: Vec<u32> = (0..p.len() as u32).step_by(4).collect();
            let i_starts: Vec<u32> = (0..i.len() as u32).step_by(4).collect();
            let mut last = 0.0;
            for threshold in [0u32, 100, 1_000, 10_000, 1_000_000] {
                let (_, stats, _) = match_blocks(&p, &i, &p_starts, &i_starts, 8, threshold);
                let f = stats.reuse_fraction();
                prop_assert!(f >= last, "reuse fraction decreased: {f} < {last}");
                last = f;
            }
        }

        #[test]
        fn parallel_matching_identical_to_sequential(
            p in prop::collection::vec(any::<u8>(), 16..256),
            i in prop::collection::vec(any::<u8>(), 16..256),
        ) {
            let p = grays(&p);
            let i = grays(&i);
            let p_starts: Vec<u32> = (0..p.len() as u32).step_by(4).collect();
            let i_starts: Vec<u32> = (0..i.len() as u32).step_by(4).collect();
            let baseline = match_blocks_with(
                &p, &i, &p_starts, &i_starts, 8, 500, NonZeroUsize::new(1).unwrap(),
            );
            for t in [2usize, 3, 7] {
                let got = match_blocks_with(
                    &p, &i, &p_starts, &i_starts, 8, 500, NonZeroUsize::new(t).unwrap(),
                );
                prop_assert_eq!(&got, &baseline, "threads = {}", t);
            }
        }

        #[test]
        fn padded_kernel_matches_the_oracle(
            p_lens in prop::collection::vec(0usize..24, 1..160),
            i_lens in prop::collection::vec(0usize..24, 0..160),
            p_bytes in prop::collection::vec(any::<(u8, u8, u8)>(), 3_840),
            i_bytes in prop::collection::vec(any::<(u8, u8, u8)>(), 3_840),
            candidates in 1usize..64,
            threshold in 0u32..20_000,
        ) {
            let p = colors_of(&p_bytes[..p_lens.iter().sum::<usize>()]);
            let i = colors_of(&i_bytes[..i_lens.iter().sum::<usize>()]);
            let (p_starts, i_starts) = (starts_of(&p_lens), starts_of(&i_lens));
            let expect = oracle_match(&p, &i, &p_starts, &i_starts, candidates, threshold);
            for t in [1usize, 2, 3] {
                let got = match_blocks_with(
                    &p, &i, &p_starts, &i_starts, candidates, threshold,
                    NonZeroUsize::new(t).unwrap(),
                );
                prop_assert_eq!(&got, &expect, "threads = {}", t);
            }
        }

        #[test]
        fn pointer_fits_window(
            p in prop::collection::vec(any::<u8>(), 16..128),
            i in prop::collection::vec(any::<u8>(), 16..128),
            candidates in 1usize..16,
        ) {
            let p = grays(&p);
            let i = grays(&i);
            let p_starts: Vec<u32> = (0..p.len() as u32).step_by(4).collect();
            let i_starts: Vec<u32> = (0..i.len() as u32).step_by(4).collect();
            let (matches, _, _) = match_blocks(&p, &i, &p_starts, &i_starts, candidates, 500);
            for m in matches {
                prop_assert!((m.window_offset as usize) < candidates);
            }
        }
    }
}
