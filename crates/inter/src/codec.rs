//! The inter-frame (P-frame) codec facade.

use crate::config::InterConfig;
use crate::matching::{
    self, match_blocks_in, predict_into, BlockMatch, MatchOutcome, MatchScratch, ReuseStats,
};
use pcc_edge::{calib, Device};
use pcc_entropy::varint;
use pcc_intra::{
    decode_layer_threaded, encode_layer_with_starts_into, geometry::GeometryEncoded,
    segment_starts, segment_starts_into, write_layer, GeometryScratch, IntraCodec, LayerEncoded,
};
use pcc_types::{Point3, Rgb, VoxelizedCloud};
use std::fmt;
use std::num::NonZeroUsize;

/// Per-session scratch for the inter encoder — a superset of the intra
/// arena: geometry buffers plus the gather accumulators, block-match
/// table, the matcher's padded byte blocks, the predicted colors of a
/// delta block, and delta-layer buffers.
/// Owned by session-long encoders (the `FrameEncoder` in `pcc-core`) so
/// the per-frame steady state is allocation-free on the single-threaded
/// path.
#[derive(Debug, Default)]
pub struct InterArena {
    geom: GeometryScratch,
    geo: GeometryEncoded,
    sums: Vec<[u32; 3]>,
    counts: Vec<u32>,
    p_colors: Vec<Rgb>,
    p_starts: Vec<u32>,
    i_starts: Vec<u32>,
    matches: Vec<BlockMatch>,
    match_scratch: MatchScratch,
    predicted: Vec<Rgb>,
    delta_values: Vec<[i32; 3]>,
    delta_starts: Vec<u32>,
    bases: Vec<[i32; 3]>,
    residuals: Vec<[i32; 3]>,
    median: Vec<i32>,
}

impl InterArena {
    /// Creates an empty arena; buffers grow on first use and then stick.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An encoded P-frame: intra-coded geometry plus inter-coded attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InterEncoded {
    /// The underlying frame payloads (geometry stream + inter attribute
    /// payload in `attribute`).
    pub frame: pcc_intra::IntraFrame,
    /// Reuse statistics of the block-matching pass.
    pub stats: ReuseStats,
}

/// Errors produced while decoding a P-frame.
#[derive(Debug)]
#[non_exhaustive]
pub enum InterError {
    /// The geometry stream is malformed.
    Geometry(pcc_octree::StreamError),
    /// The attribute payload is malformed.
    Payload(pcc_entropy::Error),
    /// The payload's block table is inconsistent with its geometry.
    Corrupt(&'static str),
}

impl fmt::Display for InterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterError::Geometry(e) => write!(f, "geometry stream error: {e}"),
            InterError::Payload(e) => write!(f, "attribute payload error: {e}"),
            InterError::Corrupt(m) => write!(f, "corrupt inter payload: {m}"),
        }
    }
}

impl std::error::Error for InterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            InterError::Geometry(e) => Some(e),
            InterError::Payload(e) => Some(e),
            InterError::Corrupt(_) => None,
        }
    }
}

impl From<pcc_octree::StreamError> for InterError {
    fn from(e: pcc_octree::StreamError) -> Self {
        InterError::Geometry(e)
    }
}

impl From<pcc_entropy::Error> for InterError {
    fn from(e: pcc_entropy::Error) -> Self {
        InterError::Payload(e)
    }
}

impl From<InterError> for pcc_types::DecodeError {
    fn from(e: InterError) -> Self {
        match e {
            InterError::Geometry(g) => g.into(),
            InterError::Payload(p) => p.into(),
            InterError::Corrupt(what) => pcc_types::DecodeError::Corrupt { what, offset: 0 },
        }
    }
}

/// The proposed inter-frame codec.
///
/// Encodes P-frames against a reference attribute sequence — the decoded
/// colors of the preceding I-frame, in Morton order, exactly what the
/// decoder holds. See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct InterCodec {
    config: InterConfig,
}

impl InterCodec {
    /// Creates a codec with the given configuration.
    pub fn new(config: InterConfig) -> Self {
        InterCodec { config }
    }

    /// The codec's configuration.
    pub fn config(&self) -> &InterConfig {
        &self.config
    }

    /// The host thread count this codec will use on `device`: the intra
    /// config wins, then the device knob, then `PCC_THREADS`, then the
    /// machine's available parallelism.
    pub fn threads_for(&self, device: &Device) -> NonZeroUsize {
        pcc_parallel::resolve(self.config.intra.threads.or(device.configured_host_threads()))
    }

    /// Encodes a P-frame: geometry via the intra pipeline, attributes via
    /// block matching against `reference` (the decoded I-frame's
    /// Morton-ordered voxel colors).
    pub fn encode(
        &self,
        cloud: &VoxelizedCloud,
        reference: &[Rgb],
        device: &Device,
    ) -> InterEncoded {
        let mut arena = InterArena::new();
        let mut out = InterEncoded::default();
        self.encode_into(cloud, reference, device, &mut arena, &mut out);
        out
    }

    /// [`encode`](Self::encode) writing into arena-owned buffers — the
    /// allocation-free per-frame entry point. `arena` carries every
    /// intermediate across frames; `out` is cleared and refilled. The
    /// bitstream is byte-identical to [`encode`](Self::encode), and the
    /// single-threaded entropy-off steady state performs no heap
    /// allocation (asserted by `tests/alloc_steady_state.rs`).
    pub fn encode_into(
        &self,
        cloud: &VoxelizedCloud,
        reference: &[Rgb],
        device: &Device,
        arena: &mut InterArena,
        out: &mut InterEncoded,
    ) {
        let threads = self.threads_for(device);
        pcc_intra::geometry::encode_in(
            cloud,
            self.config.intra.entropy,
            device,
            threads,
            &mut arena.geom,
            &mut arena.geo,
        );

        // Per-voxel colors in Morton order (averaging duplicate points),
        // identical to the intra attribute path's view.
        pcc_intra::attribute::gather_voxel_colors_into(
            cloud,
            &arena.geo,
            threads,
            &mut arena.sums,
            &mut arena.counts,
            &mut arena.p_colors,
        );
        device.charge_gpu("inter_attr/gather", &calib::GATHER, cloud.len().max(1));

        let stats =
            self.encode_attributes_in(reference, device, threads, arena, &mut out.frame.attribute);
        out.frame.geometry.clear();
        out.frame.geometry.extend_from_slice(&arena.geo.stream);
        out.frame.unique_voxels = arena.geo.unique_voxels;
        out.frame.raw_points = cloud.len();
        out.stats = stats;
    }

    /// Attribute-only inter encoding of the arena's gathered
    /// Morton-ordered color sequence, appending to `payload` (cleared
    /// first).
    // Encoder side: block ranges come from segment_starts over the same
    // color arrays, so every slice below is in range by construction.
    #[allow(clippy::indexing_slicing)]
    fn encode_attributes_in(
        &self,
        reference: &[Rgb],
        device: &Device,
        threads: NonZeroUsize,
        arena: &mut InterArena,
        payload: &mut Vec<u8>,
    ) -> ReuseStats {
        let InterArena {
            p_colors,
            p_starts,
            i_starts,
            matches,
            match_scratch,
            predicted,
            delta_values,
            delta_starts,
            bases,
            residuals,
            median,
            ..
        } = arena;
        let p_colors: &[Rgb] = p_colors;
        let m = p_colors.len();
        let blocks = self.config.blocks_for(m);
        segment_starts_into(m, blocks, p_starts);
        segment_starts_into(reference.len(), self.config.blocks_for(reference.len()), i_starts);

        // Block matching (the Diff_Squared / Squared_Sum kernels).
        let match_sp = pcc_probe::span("inter/match");
        let (stats, charge) = match_blocks_in(
            p_colors,
            reference,
            p_starts,
            i_starts,
            self.config.candidates,
            self.config.reuse_threshold,
            threads,
            match_scratch,
            matches,
        );
        device.charge_gpu("inter_attr/diff_squared", &calib::DIFF_SQUARED, charge.pair_items.max(1));
        device.charge_gpu("inter_attr/squared_sum", &calib::SQUARED_SUM, charge.block_pairs.max(1));
        match_sp.stop();

        // Assemble deltas for non-reused blocks (address generation).
        let _delta_sp = pcc_probe::span("inter/delta");
        delta_values.clear();
        delta_starts.clear();
        delta_starts.push(0);
        for (p_idx, mt) in matches.iter().enumerate() {
            if mt.outcome == MatchOutcome::Delta {
                let p_block = &p_colors[block_range(p_starts, p_colors.len(), p_idx)];
                let i_range = block_range(i_starts, reference.len(), mt.i_block as usize);
                predicted.clear();
                predicted.resize(p_block.len(), Rgb::BLACK);
                predict_into(predicted, &reference[i_range]);
                let deltas = p_block.iter().zip(predicted.iter()).map(|(&pc, &b)| pc.delta(b));
                delta_values.extend(deltas);
                delta_starts.push(delta_values.len() as u32);
            }
        }
        delta_starts.pop(); // starts, not ends
        if delta_starts.is_empty() {
            delta_starts.push(0);
        }
        device.charge_gpu("inter_attr/addr_gen", &calib::ADDR_GEN, m.max(1));

        // Compress deltas with the intra Base+Delta layer (segment = block).
        let quant_step = self.config.intra.quant_step();
        encode_layer_with_starts_into(
            delta_values,
            delta_starts,
            quant_step,
            threads,
            bases,
            residuals,
            median,
        );
        device.charge_gpu("inter_attr/delta_encode", &calib::DELTA_QUANT, delta_values.len().max(1));

        // Serialize: counts, flags + pointers, then the delta layer.
        payload.clear();
        varint::write_u64(payload, m as u64);
        varint::write_u64(payload, matches.len() as u64);
        for mt in matches.iter() {
            let reuse_bit = (mt.outcome == MatchOutcome::Reuse) as u64;
            varint::write_u64(payload, (mt.window_offset as u64) << 1 | reuse_bit);
        }
        write_layer(payload, quant_step, delta_starts, bases, residuals);
        device.charge_gpu("inter_attr/reuse_encode", &calib::REUSE_ENCODE, matches.len());
        pcc_probe::add_bytes("inter/attribute", payload.len() as u64);

        stats
    }

    /// Decodes a P-frame against the same reference sequence the encoder
    /// used.
    ///
    /// # Errors
    ///
    /// Returns an [`InterError`] on malformed payloads.
    pub fn decode(
        &self,
        encoded: &InterEncoded,
        reference: &[Rgb],
        device: &Device,
    ) -> Result<VoxelizedCloud, InterError> {
        self.decode_with_limits(encoded, reference, device, &pcc_types::Limits::default())
    }

    /// [`decode`](Self::decode) under explicit resource
    /// [`pcc_types::Limits`]: geometry expansion, the entropy wrapper,
    /// and the delta-layer header are all bounded before they drive
    /// allocations.
    ///
    /// # Errors
    ///
    /// Returns an [`InterError`] on malformed payloads or an exceeded
    /// limit.
    // `p_starts` is derived locally from the decoded voxel count (never
    // from wire bytes), so block ranges — and the `colors[slot]` writes
    // they drive — are bounded by `m`; wire-derived window offsets are
    // clamped before use.
    #[allow(clippy::indexing_slicing)]
    pub fn decode_with_limits(
        &self,
        encoded: &InterEncoded,
        reference: &[Rgb],
        device: &Device,
        limits: &pcc_types::Limits,
    ) -> Result<VoxelizedCloud, InterError> {
        let geo = pcc_intra::geometry::decode_with(
            &encoded.frame.geometry,
            self.config.intra.entropy,
            device,
            limits,
        )?;
        let m = geo.coords.len();

        let mut input = encoded.frame.attribute.as_slice();
        let declared_m = varint::read_u64(&mut input)? as usize;
        if declared_m != m {
            return Err(InterError::Corrupt("voxel count disagrees with geometry"));
        }
        let n_blocks = varint::read_u64(&mut input)? as usize;
        let p_starts = segment_starts(m, self.config.blocks_for(m));
        if n_blocks != p_starts.len() {
            return Err(InterError::Corrupt("block count disagrees with segmentation"));
        }
        let i_starts = segment_starts(reference.len(), self.config.blocks_for(reference.len()));

        let mut flags = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let v = varint::read_u64(&mut input)?;
            flags.push(((v >> 1) as usize, v & 1 == 1));
        }
        let delta_layer = LayerEncoded::from_bytes_with(input, limits)?;
        let deltas = decode_layer_threaded(&delta_layer, self.threads_for(device));

        let mut colors = vec![Rgb::BLACK; m];
        let mut delta_pos = 0usize;
        for (p_idx, &(window_offset, reused)) in flags.iter().enumerate() {
            let (w_start, w_end) =
                matching::candidate_window(p_idx, n_blocks, i_starts.len(), self.config.candidates);
            let i_block_idx = (w_start + window_offset).min(w_end.saturating_sub(1));
            let i_range = block_range(&i_starts, reference.len(), i_block_idx);
            let i_block = reference.get(i_range).unwrap_or(&[]);
            let slots = &mut colors[block_range(&p_starts, m, p_idx)];
            predict_into(slots, i_block);
            if !reused {
                let block_deltas = deltas
                    .get(delta_pos..delta_pos + slots.len())
                    .ok_or(InterError::Corrupt("delta stream shorter than delta blocks"))?;
                delta_pos += slots.len();
                for (slot, d) in slots.iter_mut().zip(block_deltas) {
                    let b = slot.to_i32();
                    *slot = Rgb::from_i32_clamped([b[0] + d[0], b[1] + d[1], b[2] + d[2]]);
                }
            }
        }
        device.charge_gpu("inter_attr_decode", &calib::ATTR_DECODE, m.max(1));

        let origin = Point3::new(geo.origin[0], geo.origin[1], geo.origin[2]);
        VoxelizedCloud::from_grid_with_frame(geo.coords, colors, geo.depth, origin, geo.voxel_size)
            .map_err(|_| InterError::Corrupt("decoded grid rejected"))
    }

    /// Encodes a frame with plain intra coding (used when no reference is
    /// available, and by the IPP scheduler for I-frames).
    pub fn encode_intra(&self, cloud: &VoxelizedCloud, device: &Device) -> pcc_intra::IntraFrame {
        IntraCodec::new(self.config.intra).encode(cloud, device)
    }
}

fn block_range(starts: &[u32], len: usize, idx: usize) -> std::ops::Range<usize> {
    let start = starts.get(idx).map_or(len, |&s| s as usize);
    let end = starts.get(idx + 1).map_or(len, |&e| e as usize);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_edge::PowerMode;
    use pcc_types::{Aabb, PointCloud};

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn frame(shift: f32, color_shift: i32) -> VoxelizedCloud {
        let cloud: PointCloud = (0..400)
            .map(|i| {
                let x = (i % 20) as f32 + shift;
                let y = (i / 20) as f32;
                let c = (60 + (i % 40) + color_shift).clamp(0, 255) as u8;
                (Point3::new(x, y, 0.0), Rgb::gray(c))
            })
            .collect();
        let bb = Aabb::new(Point3::ORIGIN, Point3::new(64.0, 64.0, 4.0));
        VoxelizedCloud::from_cloud_in_box(&cloud, 6, &bb)
    }

    fn reference_colors(vox: &VoxelizedCloud, d: &Device) -> Vec<Rgb> {
        let intra = IntraCodec::new(IntraConfig_lossless());
        let dec = intra.decode(&intra.encode(vox, d), d).unwrap();
        dec.colors().to_vec()
    }

    #[allow(non_snake_case)]
    fn IntraConfig_lossless() -> pcc_intra::IntraConfig {
        pcc_intra::IntraConfig::lossless()
    }

    #[test]
    fn identical_frames_reuse_everything() {
        let d = device();
        let f = frame(0.0, 0);
        let reference = reference_colors(&f, &d);
        let cfg = InterConfig { intra: IntraConfig_lossless(), ..InterConfig::v1() };
        let codec = InterCodec::new(cfg);
        let enc = codec.encode(&f, &reference, &d);
        assert_eq!(enc.stats.delta, 0);
        assert!(enc.stats.reuse_fraction() > 0.99);
        let dec = codec.decode(&enc, &reference, &d).unwrap();
        assert_eq!(dec.colors(), reference.as_slice());
    }

    #[test]
    fn similar_frames_mostly_reuse_and_round_trip() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.3, 1);
        let reference = reference_colors(&i_frame, &d);
        let cfg = InterConfig { intra: IntraConfig_lossless(), ..InterConfig::v2() };
        let codec = InterCodec::new(cfg);
        let enc = codec.encode(&p_frame, &reference, &d);
        assert!(enc.stats.reuse_fraction() > 0.3, "reuse {}", enc.stats.reuse_fraction());
        let dec = codec.decode(&enc, &reference, &d).unwrap();
        assert_eq!(dec.len(), enc.frame.unique_voxels);
    }

    #[test]
    fn delta_blocks_reconstruct_losslessly_at_unit_step() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.0, 90); // big color change: all delta blocks
        let reference = reference_colors(&i_frame, &d);
        let cfg = InterConfig {
            reuse_threshold: 0,
            intra: IntraConfig_lossless(),
            ..InterConfig::v1()
        };
        let codec = InterCodec::new(cfg);
        let enc = codec.encode(&p_frame, &reference, &d);
        assert_eq!(enc.stats.reused, 0);
        let dec = codec.decode(&enc, &reference, &d).unwrap();
        // With threshold 0 and unit quantization, reconstruction is exact.
        let intra = IntraCodec::new(IntraConfig_lossless());
        let expect = intra.decode(&intra.encode(&p_frame, &d), &d).unwrap();
        assert_eq!(dec.colors(), expect.colors());
    }

    #[test]
    fn v2_reuses_at_least_as_much_as_v1() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.5, 2);
        let reference = reference_colors(&i_frame, &d);
        let e1 = InterCodec::new(InterConfig::v1()).encode(&p_frame, &reference, &d);
        let e2 = InterCodec::new(InterConfig::v2()).encode(&p_frame, &reference, &d);
        assert!(e2.stats.reuse_fraction() >= e1.stats.reuse_fraction());
        // More reuse => no larger attribute payload.
        assert!(e2.frame.attribute.len() <= e1.frame.attribute.len());
    }

    #[test]
    fn inter_payload_smaller_than_intra_for_similar_frames() {
        let d = device();
        let i_frame = frame(0.0, 0);
        let p_frame = frame(0.1, 0);
        let reference = reference_colors(&i_frame, &d);
        let codec = InterCodec::new(InterConfig::v2());
        let inter = codec.encode(&p_frame, &reference, &d);
        let intra = codec.encode_intra(&p_frame, &d);
        assert!(
            inter.frame.attribute.len() < intra.attribute.len(),
            "inter {} vs intra {}",
            inter.frame.attribute.len(),
            intra.attribute.len()
        );
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let d = device();
        let f = frame(0.0, 0);
        let reference = reference_colors(&f, &d);
        let codec = InterCodec::new(InterConfig::v1());
        let mut enc = codec.encode(&f, &reference, &d);
        enc.frame.attribute.truncate(3);
        assert!(codec.decode(&enc, &reference, &d).is_err());
        // Wrong declared voxel count.
        let mut enc2 = codec.encode(&f, &reference, &d);
        enc2.frame.attribute[0] ^= 0x7f;
        assert!(codec.decode(&enc2, &reference, &d).is_err());
    }

    #[test]
    fn timeline_records_matching_kernels() {
        let d = device();
        let f = frame(0.0, 0);
        let reference = reference_colors(&f, &d);
        d.reset();
        InterCodec::new(InterConfig::v1()).encode(&f, &reference, &d);
        let t = d.timeline();
        for op in ["diff_squared", "squared_sum", "addr_gen", "reuse_encode"] {
            assert!(t.by_op().contains_key(op), "missing kernel {op}");
        }
    }

    #[test]
    fn empty_reference_falls_back_to_deltas() {
        let d = device();
        let f = frame(0.0, 0);
        let codec = InterCodec::new(InterConfig {
            intra: IntraConfig_lossless(),
            ..InterConfig::v1()
        });
        let enc = codec.encode(&f, &[], &d);
        assert_eq!(enc.stats.reused, 0);
        let dec = codec.decode(&enc, &[], &d).unwrap();
        let intra = IntraCodec::new(IntraConfig_lossless());
        let expect = intra.decode(&intra.encode(&f, &d), &d).unwrap();
        assert_eq!(dec.colors(), expect.colors());
    }
}
