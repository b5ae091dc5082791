//! The traced run's layer replay: after a frame has gone through the
//! serving path, the benchmark calls each layer's public functions on the
//! same input cloud and records a span around every call.
//!
//! Span tree of one replayed frame (all spans carry the frame's index):
//!
//! ```text
//! replay
//! ├─ core.encode.{intra,inter}      FrameEncoder::encode_frame (shadow encoder)
//! ├─ parallel.encode_1thread        the same at one host thread
//! ├─ encode_stages                  calls that together do one encode:
//! │  ├─ core.voxelize               VoxelizedCloud::from_cloud_in_box
//! │  ├─ intra.geometry_encode       (I) intra::geometry::encode_in
//! │  ├─ intra.attribute_encode      (I) intra::attribute::encode_in
//! │  ├─ intra.reference_decode      (I, IPP) the encoder's reference rebuild
//! │  └─ inter.encode                (P) InterCodec::encode_into
//! ├─ kernels                        the paper's kernels on the same voxels:
//! │  ├─ morton.codegen              encode_slice
//! │  ├─ morton.sort                 sort_codes_into
//! │  ├─ kernels.p_geometry          (P) geometry for the leaves and colors
//! │  ├─ octree.build                ParallelOctree::rebuild_from_sorted_codes
//! │  ├─ octree.occupancy            occupancy_into + serialize_occupancy_into
//! │  └─ inter.match                 (P) match_blocks_into
//! ├─ core.mux                       container::mux_frame
//! ├─ stream.chunk_encode            encode_chunk
//! ├─ stream.demux                   decode_chunk
//! ├─ core.decode.{intra,inter}      FrameDecoder::decode_frame (shadow decoder)
//! └─ decode_stages
//!    ├─ intra.geometry_decode       (I) intra::geometry::decode
//!    ├─ intra.attribute_decode      (I) intra::attribute::decode
//!    └─ inter.decode                (P) InterCodec::decode
//! ```
//!
//! `encode_stages` partitions what `encode_frame` does, so the sum of its
//! children's self times over `core.encode` is the trace's coverage; the
//! remainder is unattributed encode time.

use crate::alloc;
use crate::session::digest;
use crate::trace::{SpanId, Tracer};
use pcc_core::{container, Design, EncodedFrame, FrameDecoder, FrameEncoder, PccCodec};
use pcc_edge::{Device, Timeline};
use pcc_inter::{match_blocks_into, BlockMatch, InterArena, InterCodec, InterConfig, InterEncoded};
use pcc_intra::geometry::GeometryEncoded;
use pcc_intra::{attribute, geometry, segment_starts_into, AttributeScratch, GeometryScratch};
use pcc_intra::{IntraCodec, IntraConfig, IntraFrame};
use pcc_morton::{encode_slice, sort_codes_into, MortonCode, SortScratch, SortedCodes};
use pcc_octree::{serialize_occupancy_into, ParallelOctree};
use pcc_stream::{decode_chunk, encode_chunk, Chunk, ChunkKind};
use pcc_types::{Aabb, FrameKind, PointCloud, Rgb, VoxelizedCloud};
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Devices the replay charges its modeled work to: the shadow encoder's,
/// the one-thread encoder's, the shadow decoder's, and the stage calls'.
pub struct ReplayDevices {
    encode: Device,
    encode_1thread: Device,
    decode: Device,
    stages: Device,
}

impl ReplayDevices {
    /// Fresh devices; the one-thread encoder's is pinned to one host thread.
    pub fn new() -> Self {
        let d = || Device::jetson_agx_xavier(pcc_edge::PowerMode::W15);
        ReplayDevices {
            encode: d(),
            encode_1thread: d().with_host_threads(NonZeroUsize::new(1)),
            decode: d(),
            stages: d(),
        }
    }
}

/// Figures the replay accumulates besides its spans.
#[derive(Debug, Default, Clone)]
pub struct ReplayTotals {
    /// Replayed frames.
    pub frames: u64,
    /// Allocation calls inside the shadow `encode_frame`.
    pub encode_allocs: u64,
    /// Reused / all P-blocks, over the counting window.
    pub reused_blocks: u64,
    /// See `reused_blocks`.
    pub p_blocks: u64,
    /// Modeled geometry ms of replayed I-frames.
    pub modeled_geometry_ms: f64,
    /// Modeled attribute ms of replayed I-frames.
    pub modeled_attribute_ms: f64,
    /// Modeled matching (`Diff_Squared` + `Squared_Sum`) ms of P-frames.
    pub modeled_match_ms: f64,
    /// First replayed I- and P-frame modeled encode timelines.
    pub modeled_intra: Option<Timeline>,
    /// See `modeled_intra`.
    pub modeled_inter: Option<Timeline>,
}

/// The replay's codecs and every buffer its stage calls reuse.
pub struct Replay<'d> {
    design: Design,
    depth: u8,
    bb: Aabb,
    inter: InterConfig,
    intra: IntraConfig,
    threads: NonZeroUsize,
    encoder: FrameEncoder<'d>,
    encoder_1thread: FrameEncoder<'d>,
    decoder: FrameDecoder<'d>,
    dev: &'d Device,
    geom: GeometryScratch,
    geo: GeometryEncoded,
    attr: AttributeScratch,
    attr_payload: Vec<u8>,
    reference: Option<Vec<Rgb>>,
    inter_arena: InterArena,
    inter_out: InterEncoded,
    p_geom: GeometryScratch,
    p_geo: GeometryEncoded,
    codes: Vec<MortonCode>,
    sort: SortScratch,
    sorted: SortedCodes,
    tree: ParallelOctree,
    occupancy: Vec<u8>,
    occupancy_stream: Vec<u8>,
    sums: Vec<[u32; 3]>,
    counts: Vec<u32>,
    p_colors: Vec<Rgb>,
    p_starts: Vec<u32>,
    i_starts: Vec<u32>,
    matches: Vec<BlockMatch>,
    mux: Vec<u8>,
    decoded_reference: Option<Vec<Rgb>>,
    /// Accumulated figures.
    pub totals: ReplayTotals,
}

impl<'d> Replay<'d> {
    /// A replay of `design` at `depth` in the session's bounding box.
    pub fn new(design: Design, depth: u8, bb: Aabb, devices: &'d ReplayDevices) -> Self {
        let codec = PccCodec::new(design);
        let inter = design.inter_config().unwrap_or_default();
        let intra = if design == Design::IntraOnly {
            IntraConfig::default()
        } else {
            inter.intra
        };
        Replay {
            design,
            depth,
            bb,
            inter,
            intra,
            threads: pcc_parallel::resolve(None),
            encoder: codec
                .frame_encoder(depth, &devices.encode)
                .with_bounding_box(bb),
            encoder_1thread: codec
                .frame_encoder(depth, &devices.encode_1thread)
                .with_bounding_box(bb),
            decoder: codec.frame_decoder(&devices.decode),
            dev: &devices.stages,
            geom: GeometryScratch::default(),
            geo: GeometryEncoded::default(),
            attr: AttributeScratch::default(),
            attr_payload: Vec::new(),
            reference: None,
            inter_arena: InterArena::new(),
            inter_out: InterEncoded::default(),
            p_geom: GeometryScratch::default(),
            p_geo: GeometryEncoded::default(),
            codes: Vec::new(),
            sort: SortScratch::default(),
            sorted: SortedCodes::default(),
            tree: ParallelOctree::default(),
            occupancy: Vec::new(),
            occupancy_stream: Vec::new(),
            sums: Vec::new(),
            counts: Vec::new(),
            p_colors: Vec::new(),
            p_starts: Vec::new(),
            i_starts: Vec::new(),
            matches: Vec::new(),
            mux: Vec::new(),
            decoded_reference: None,
            totals: ReplayTotals::default(),
        }
    }

    /// Replays frame `f` under span `parent`. `count` says whether the
    /// frame is inside the counting window. Returns the shadow decoder's
    /// cloud digest (to compare with what subscribers got) or why the
    /// replay disagreed with itself.
    pub fn frame(
        &mut self,
        f: u32,
        cloud: &PointCloud,
        t: &mut Tracer,
        parent: SpanId,
        count: bool,
    ) -> Result<u64, String> {
        let n = cloud.len() as u64;
        let p = Some(parent);

        let a0 = alloc::calls();
        let start = Instant::now();
        let (frame, timeline) = self.encoder.encode_frame(cloud);
        let end = Instant::now();
        self.totals.encode_allocs += alloc::calls() - a0;
        self.totals.frames += 1;
        let kind = frame.kind();
        let intra = kind == FrameKind::Intra;
        t.record(
            if intra {
                "core.encode.intra"
            } else {
                "core.encode.inter"
            },
            f,
            p,
            start,
            end,
            n,
        );
        if intra {
            self.totals.modeled_geometry_ms += timeline.stage_ms("geometry").as_f64();
            self.totals.modeled_attribute_ms += timeline.stage_ms("attribute").as_f64();
            self.totals.modeled_intra.get_or_insert(timeline);
        } else {
            self.totals.modeled_match_ms += timeline.stage_ms("inter_attr/diff_squared").as_f64()
                + timeline.stage_ms("inter_attr/squared_sum").as_f64();
            self.totals.modeled_inter.get_or_insert(timeline);
        }

        let one = &mut self.encoder_1thread;
        t.time("parallel.encode_1thread", f, p, n, || {
            black_box(one.encode_frame(cloud))
        });

        let vox = self.encode_stages(f, cloud, &frame, t, parent)?;
        self.kernels(f, kind, &vox, t, parent, count)?;

        self.mux.clear();
        let mux = &mut self.mux;
        t.time("core.mux", f, p, 0, || container::mux_frame(mux, &frame));
        let chunk = Chunk {
            kind: ChunkKind::Frame,
            frame_kind: Some(kind),
            stream_id: 1,
            seq: f,
            frame_index: f,
            payload: self.mux.clone(),
        };
        let bytes = t.time("stream.chunk_encode", f, p, self.mux.len() as u64, || {
            encode_chunk(&chunk)
        });
        let back = t.time("stream.demux", f, p, bytes.len() as u64, || {
            decode_chunk(&bytes)
        });
        if back.as_ref() != Some(&chunk) {
            return Err(format!(
                "frame {f}: chunk did not survive encode_chunk/decode_chunk"
            ));
        }

        let decoder = &mut self.decoder;
        let name = if intra {
            "core.decode.intra"
        } else {
            "core.decode.inter"
        };
        let decoded = t.time(name, f, p, n, || decoder.decode_frame(&frame));
        let cloud_digest = match decoded {
            Ok((decoded, _)) => digest(&decoded, true),
            Err(e) => return Err(format!("frame {f}: shadow decode failed: {e}")),
        };
        self.decode_stages(f, &frame, t, parent)?;
        self.dev.reset();
        Ok(cloud_digest)
    }

    fn encode_stages(
        &mut self,
        f: u32,
        cloud: &PointCloud,
        frame: &EncodedFrame,
        t: &mut Tracer,
        parent: SpanId,
    ) -> Result<VoxelizedCloud, String> {
        let stages = t.open("encode_stages", f, Some(parent));
        let s = Some(stages);
        let n = cloud.len() as u64;
        let (depth, bb) = (self.depth, self.bb);
        let vox = t.time("core.voxelize", f, s, n, || {
            VoxelizedCloud::from_cloud_in_box(cloud, depth, &bb)
        });
        let (dev, threads) = (self.dev, self.threads);
        let result = match frame {
            EncodedFrame::Intra(coded) => {
                let (geom, geo) = (&mut self.geom, &mut self.geo);
                let entropy = self.intra.entropy;
                t.time("intra.geometry_encode", f, s, n, || {
                    geometry::encode_in(&vox, entropy, dev, threads, geom, geo)
                });
                let (attr, payload, cfg) = (&mut self.attr, &mut self.attr_payload, &self.intra);
                let geo = &self.geo;
                t.time("intra.attribute_encode", f, s, n, || {
                    attribute::encode_in(&vox, geo, cfg, dev, attr, payload)
                });
                let same =
                    self.geo.stream == coded.geometry && self.attr_payload == coded.attribute;
                if self.design != Design::IntraOnly {
                    let own = IntraFrame {
                        geometry: self.geo.stream.clone(),
                        attribute: self.attr_payload.clone(),
                        unique_voxels: self.geo.unique_voxels,
                        raw_points: vox.len(),
                    };
                    let codec = IntraCodec::new(self.intra);
                    self.reference = t.time("intra.reference_decode", f, s, n, || {
                        codec.decode(&own, dev).ok().map(|d| d.colors().to_vec())
                    });
                }
                if same {
                    Ok(())
                } else {
                    Err(format!(
                        "frame {f}: intra stage calls disagree with encode_frame"
                    ))
                }
            }
            EncodedFrame::Inter(coded) => match &self.reference {
                Some(reference) => {
                    let codec = InterCodec::new(self.inter);
                    let (arena, out) = (&mut self.inter_arena, &mut self.inter_out);
                    t.time("inter.encode", f, s, n, || {
                        codec.encode_into(&vox, reference, dev, arena, out)
                    });
                    if self.inter_out == *coded {
                        Ok(())
                    } else {
                        Err(format!(
                            "frame {f}: inter.encode disagrees with encode_frame"
                        ))
                    }
                }
                None => Err(format!("frame {f}: P-frame without a replayed I-frame")),
            },
            _ => Err(format!(
                "frame {f}: unexpected frame type for {:?}",
                self.design
            )),
        };
        t.close(stages);
        result.map(|()| vox)
    }

    fn kernels(
        &mut self,
        f: u32,
        kind: FrameKind,
        vox: &VoxelizedCloud,
        t: &mut Tracer,
        parent: SpanId,
        count: bool,
    ) -> Result<(), String> {
        let ks = t.open("kernels", f, Some(parent));
        let k = Some(ks);
        let (dev, threads, depth) = (self.dev, self.threads, self.depth);
        let nv = vox.len() as u64;

        self.codes.clear();
        self.codes.resize(vox.len(), MortonCode::default());
        let codes = &mut self.codes;
        t.time("morton.codegen", f, k, nv, || {
            encode_slice(vox.coords(), codes)
        });
        let (codes, sort, sorted) = (&self.codes, &mut self.sort, &mut self.sorted);
        t.time("morton.sort", f, k, nv, || {
            sort_codes_into(codes, threads, sort, sorted)
        });

        if kind == FrameKind::Predicted {
            // A P-frame's geometry runs inside inter.encode; run it again
            // here for the octree's leaves and the gathered colors.
            let (geom, geo) = (&mut self.p_geom, &mut self.p_geo);
            let entropy = self.intra.entropy;
            t.time("kernels.p_geometry", f, k, nv, || {
                geometry::encode_in(vox, entropy, dev, threads, geom, geo)
            });
        }
        let geo = if kind == FrameKind::Intra {
            &self.geo
        } else {
            &self.p_geo
        };
        let tree = &mut self.tree;
        t.time("octree.build", f, k, nv, || {
            tree.rebuild_from_sorted_codes(&geo.leaf_codes, depth, threads)
        });
        let (tree, occ, stream) = (&self.tree, &mut self.occupancy, &mut self.occupancy_stream);
        t.time("octree.occupancy", f, k, nv, || {
            tree.occupancy_into(threads, occ);
            stream.clear();
            serialize_occupancy_into(depth, tree.leaf_count(), occ, stream);
        });

        let mut result = Ok(());
        if kind == FrameKind::Predicted {
            let Some(reference) = &self.reference else {
                t.close(ks);
                return Err(format!("frame {f}: P-frame without a replayed I-frame"));
            };
            pcc_intra::attribute::gather_voxel_colors_into(
                vox,
                &self.p_geo,
                threads,
                &mut self.sums,
                &mut self.counts,
                &mut self.p_colors,
            );
            let m = self.p_colors.len();
            segment_starts_into(m, self.inter.blocks_for(m), &mut self.p_starts);
            segment_starts_into(
                reference.len(),
                self.inter.blocks_for(reference.len()),
                &mut self.i_starts,
            );
            let cfg = self.inter;
            let (p_colors, p_starts, i_starts, matches) = (
                &self.p_colors,
                &self.p_starts,
                &self.i_starts,
                &mut self.matches,
            );
            let (stats, _) = t.time("inter.match", f, k, p_starts.len() as u64, || {
                match_blocks_into(
                    p_colors,
                    reference,
                    p_starts,
                    i_starts,
                    cfg.candidates,
                    cfg.reuse_threshold,
                    threads,
                    matches,
                )
            });
            if stats != self.inter_out.stats {
                result = Err(format!(
                    "frame {f}: inter.match disagrees with inter.encode"
                ));
            }
            if count {
                self.totals.reused_blocks += stats.reused as u64;
                self.totals.p_blocks += (stats.reused + stats.delta) as u64;
            }
        }
        t.close(ks);
        result
    }

    fn decode_stages(
        &mut self,
        f: u32,
        frame: &EncodedFrame,
        t: &mut Tracer,
        parent: SpanId,
    ) -> Result<(), String> {
        let ds = t.open("decode_stages", f, Some(parent));
        let s = Some(ds);
        let dev = self.dev;
        let result = match frame {
            EncodedFrame::Intra(coded) => {
                let entropy = self.intra.entropy;
                let geo = t.time(
                    "intra.geometry_decode",
                    f,
                    s,
                    coded.unique_voxels as u64,
                    || geometry::decode(&coded.geometry, entropy, dev),
                );
                let cfg = self.intra;
                let colors = t.time(
                    "intra.attribute_decode",
                    f,
                    s,
                    coded.unique_voxels as u64,
                    || attribute::decode(&coded.attribute, &cfg, dev),
                );
                match (geo, colors) {
                    (Ok(g), Ok(c)) if g.coords.len() == c.len() => {
                        self.decoded_reference = Some(c);
                        Ok(())
                    }
                    _ => Err(format!("frame {f}: intra stage decode failed")),
                }
            }
            EncodedFrame::Inter(coded) => match &self.decoded_reference {
                Some(reference) => {
                    let codec = InterCodec::new(self.inter);
                    let out = t.time(
                        "inter.decode",
                        f,
                        s,
                        coded.frame.unique_voxels as u64,
                        || codec.decode(coded, reference, dev),
                    );
                    out.map(drop)
                        .map_err(|e| format!("frame {f}: inter stage decode failed: {e}"))
                }
                None => Err(format!("frame {f}: P-frame without a decoded I-frame")),
            },
            _ => Err(format!("frame {f}: unexpected frame type")),
        };
        t.close(ds);
        result
    }
}
