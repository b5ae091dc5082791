//! The three workloads and the seeded clips they stream.
//!
//! Each workload has a different dominant layer (see `README.md` for the
//! layer → metric → workload predictions):
//!
//! * `intra_100k` — every frame runs Morton, sort, octree and the
//!   Mid+Residual attribute layers; nothing inter, nothing fanned out.
//! * `ipp_100k` — the same clip through the IPP design, so two frames in
//!   three add P-block matching and delta coding. The difference between
//!   the two 100 k workloads is the inter layer.
//! * `fanout_256` — a small cloud (cheap encode) served to 256 mixed
//!   subscribers, so stamping, CRC, ring copies, cache replay and NACK
//!   retransmits are about half of a push.

use pcc_core::Design;
use pcc_datasets::{density_matched_depth, BodyCoverage, SyntheticVideo, Wardrobe};
use pcc_types::{Aabb, PointCloud, VoxelizedCloud};

/// Distinct clip frames; the stream cycles through them. A multiple of
/// the IPP group length, so every group starts on the same clip frame
/// and a P-frame never references across the wrap.
pub const CLIP_FRAMES: usize = 12;

/// One workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Table-I video the synthetic figure imitates.
    pub video: &'static str,
    /// Points per frame.
    pub points: usize,
    /// Codec design.
    pub design: Design,
    /// Subscribers attached from the start on lossless wires.
    pub plain: usize,
    /// Subscribers on seeded record-dropping wires with an ARQ ring.
    pub arq: usize,
    /// Subscribers on fake-clock-throttled wires under a shedding
    /// controller.
    pub throttled: usize,
    /// Subscribers that join during the timed run, replayed from the
    /// resync cache.
    pub late: usize,
}

impl Spec {
    /// Subscribers at the end of the run.
    pub fn subscribers(&self) -> usize {
        self.plain + self.arq + self.throttled + self.late
    }

    /// Voxel-grid depth, density-matched to the full-size captures.
    pub fn depth(&self) -> u8 {
        density_matched_depth(self.points)
    }
}

/// Every workload.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "intra_100k",
        video: "Longdress",
        points: 100_000,
        design: Design::IntraOnly,
        plain: 1,
        arq: 0,
        throttled: 0,
        late: 0,
    },
    Spec {
        name: "ipp_100k",
        video: "Longdress",
        points: 100_000,
        design: Design::IntraInterV1,
        plain: 1,
        arq: 0,
        throttled: 0,
        late: 0,
    },
    Spec {
        name: "fanout_256",
        video: "Andrew10",
        points: 2_000,
        design: Design::IntraInterV1,
        plain: 208,
        arq: 16,
        throttled: 16,
        late: 16,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// Mixes the run seed with a purpose tag, so the clip, every loss
/// schedule and anything else seeded draw independent streams.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The synthetic figure behind a Table-I video name, sampled with `seed`.
fn generator(video: &str, points: usize, seed: u64) -> SyntheticVideo {
    let (coverage, wardrobe) = match video {
        "Longdress" => (BodyCoverage::FullBody, Wardrobe::long_dress()),
        _ => (BodyCoverage::UpperBody, Wardrobe::casual(10)),
    };
    SyntheticVideo::new(video, points, coverage, wardrobe, derive_seed(seed, 1))
}

/// Display indices of the first group of frames, which all carry the
/// clip's sparsest frame (see [`Clip`]).
pub const RAMP_FRAMES: u32 = 3;

/// What a run streams: a seeded clip of the workload's figure, cycled.
///
/// The codec's per-session buffers take their size from the first frame
/// and grow by doubling when a later frame is larger. Over a long capture
/// that always happens, but over a short clip it happens only when the
/// first frame is not the largest, which would make the heap figures
/// depend on the seed's luck (14.5 or 19.8 MiB on `intra_100k`). So the
/// stream opens with one group (I and P slots) of the clip's sparsest
/// frame, and every seed reaches the grown state a long capture reaches.
pub struct Clip {
    frames: Vec<PointCloud>,
    sparsest: usize,
    bb: Aabb,
}

impl Clip {
    /// The clip of `spec` for `seed`.
    pub fn new(spec: &Spec, seed: u64) -> Self {
        Clip::from_frames(
            clip_sized(spec.video, spec.points, seed, CLIP_FRAMES),
            spec.depth(),
        )
    }

    fn from_frames(frames: Vec<PointCloud>, depth: u8) -> Self {
        let bb = frames
            .iter()
            .filter_map(PointCloud::bounding_box)
            .reduce(|a, b| a.union(&b))
            .expect("synthetic frames are never empty");
        let sparsest = (0..frames.len())
            .min_by_key(|&i| {
                VoxelizedCloud::from_cloud_in_box(&frames[i], depth, &bb)
                    .dedup_mean()
                    .len()
            })
            .unwrap_or(0);
        Clip {
            frames,
            sparsest,
            bb,
        }
    }

    /// The cloud pushed at display index `f`.
    pub fn frame(&self, f: u32) -> &PointCloud {
        let i = if f < RAMP_FRAMES {
            self.sparsest
        } else {
            f as usize % self.frames.len()
        };
        &self.frames[i]
    }

    /// The bounding box of every frame: the capture volume.
    pub fn bounding_box(&self) -> Aabb {
        self.bb
    }
}

fn clip_sized(video: &str, points: usize, seed: u64, frames: usize) -> Vec<PointCloud> {
    let gen = generator(video, points, seed);
    (0..frames).map(|i| gen.frame_cloud(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_named_once_and_found_by_name() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
        assert_eq!(by_name("fanout_256").unwrap().subscribers(), 256);
        assert_eq!(by_name("intra_100k").unwrap().depth(), 9);
    }

    #[test]
    fn the_same_seed_gives_identical_inputs_and_another_seed_different_ones() {
        for video in ["Longdress", "Andrew10"] {
            let a = clip_sized(video, 1_500, 11, 3);
            let b = clip_sized(video, 1_500, 11, 3);
            let c = clip_sized(video, 1_500, 12, 3);
            assert_eq!(a, b, "{video}");
            assert_ne!(a, c, "{video}");
            assert!(a.iter().all(|f| f.len() > 1_000));
            // Frames of one clip differ (the figure moves).
            assert_ne!(a[0], a[1]);
        }
    }

    #[test]
    fn the_stream_opens_with_a_group_of_the_sparsest_frame_then_cycles_the_clip() {
        let frames = clip_sized("Andrew10", 1_500, 3, 6);
        let clip = Clip::from_frames(frames.clone(), 7);
        let voxels = |c: &PointCloud| {
            VoxelizedCloud::from_cloud_in_box(c, 7, &clip.bounding_box())
                .dedup_mean()
                .len()
        };
        let sparsest = frames.iter().map(voxels).min().unwrap();
        for f in 0..RAMP_FRAMES {
            assert_eq!(voxels(clip.frame(f)), sparsest);
        }
        for f in RAMP_FRAMES..20 {
            assert_eq!(clip.frame(f), &frames[f as usize % 6]);
        }
    }

    #[test]
    fn derived_seeds_separate_purposes_and_runs() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
    }
}
