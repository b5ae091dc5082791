//! P-block matching (the `Diff_Squared` + `Squared_Sum` kernels, paper
//! Fig. 9) at the V1 operating point: a 100 k-point Longdress P-frame
//! matched against the decoded I-frame, at one thread and at the
//! machine's default thread count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pcc_bench::Scale;
use pcc_datasets::catalog;
use pcc_edge::{Device, PowerMode};
use pcc_inter::{match_blocks_with, InterConfig};
use pcc_intra::{segment_starts, IntraCodec, IntraConfig};
use pcc_types::{Rgb, VoxelizedCloud};
use std::hint::black_box;
use std::num::NonZeroUsize;

const POINTS: usize = 100_000;

/// Morton-ordered per-voxel colors of `vox` after an encode/decode
/// round trip through `config`.
fn decoded_colors(vox: &VoxelizedCloud, config: IntraConfig, device: &Device) -> Vec<Rgb> {
    let codec = IntraCodec::new(config);
    let decoded =
        codec.decode(&codec.encode(vox, device), device).expect("self-encoded frame decodes");
    decoded.colors().to_vec()
}

fn bench_match_blocks(c: &mut Criterion) {
    let scale = Scale { points: POINTS, frames: 2 };
    let video = scale.video(catalog::by_name("Longdress").unwrap());
    let depth = scale.depth();
    let frame = |k| VoxelizedCloud::from_cloud(&video.frame(k).unwrap().cloud, depth);
    let device = Device::jetson_agx_xavier(PowerMode::W15);
    let config = InterConfig::v1();
    // The reference is what the decoder holds (the decoded I-frame); the
    // P-frame's voxel colors enter matching exactly (lossless round trip).
    let reference = decoded_colors(&frame(0), config.intra, &device);
    let p_colors = decoded_colors(&frame(1), IntraConfig::lossless(), &device);
    let p_starts = segment_starts(p_colors.len(), config.blocks_for(p_colors.len()));
    let i_starts = segment_starts(reference.len(), config.blocks_for(reference.len()));

    let mut g = c.benchmark_group("inter/match_blocks");
    g.sample_size(20);
    g.throughput(Throughput::Elements(p_colors.len() as u64));
    let default_threads = pcc_parallel::resolve(None).get();
    let mut counts = vec![1, default_threads];
    counts.dedup();
    for t in counts {
        let threads = NonZeroUsize::new(t).expect("thread counts are positive");
        g.bench_with_input(BenchmarkId::new("threads", t), &threads, |b, &threads| {
            b.iter(|| {
                black_box(match_blocks_with(
                    black_box(&p_colors),
                    &reference,
                    &p_starts,
                    &i_starts,
                    config.candidates,
                    config.reuse_threshold,
                    threads,
                ))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_match_blocks);
criterion_main!(benches);
