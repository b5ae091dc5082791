//! One benchmark run: set-up, the timed closed loop, the checks, and the
//! metrics of either the end-to-end run or the traced run.

use crate::alloc;
use crate::host::{slowness, Host, SpeedProbe, REFERENCE_PROBE_S};
use crate::layers::{Replay, ReplayDevices, ReplayTotals};
use crate::session::{owed_and_delivered, receiver_totals, Ledger, Push, Role, Session};
use crate::stats::{mean, median, percentile, ratio, split_even, tail_percentile};
use crate::trace::{self, Tracer};
use crate::workload::{Clip, Spec};
use crate::Args;
use pcc_edge::{Device, PowerMode};
use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Frames pushed and drained during set-up, growing every buffer to its
/// steady size: as many as the clip has.
const WARMUP_FRAMES: u32 = 12;
/// Timed frames at least, whatever `--seconds` says: 200 samples per
/// subscriber keep 10 beyond the p95.
const MIN_FRAMES: u32 = 200;
/// Timed frames at most (the ledger is allocated for this many up front).
const MAX_FRAMES: u32 = 20_000;
/// The first timed frames, over which the deterministic figures are
/// taken (bits per point, sheds, NACKs, replays, reuse): a fixed window,
/// so they repeat exactly for a seed however fast the host runs.
const COUNT_WINDOW: u32 = 200;
/// Untraced frames the traced run times first, for the tracing overhead.
const UNTRACED_FRAMES: u32 = 60;
/// Late joiners join within the counting window, spread evenly.
fn late_join_frame(j: usize, late: usize) -> u32 {
    ((j + 1) * COUNT_WINDOW as usize / (late + 1)) as u32
}
/// Delivered clouds below this attribute PSNR against the input fail.
const PSNR_FLOOR_DB: f64 = 30.0;
/// Length of the windows the timing figures are taken over. Each timing
/// figure is taken within each window from times scaled by the host's
/// speed (see [`SpeedProbe`]) and reported as the median over windows, so
/// a burst that covers a few windows does not move it.
const WINDOW_S: f64 = 2.5;

/// The timed frames split into windows of about [`WINDOW_S`], as many as
/// keep [`MIN_FRAMES`] latency samples in every window (so each window's
/// p95 keeps ten samples beyond it). `ends[i]` is how many latency samples
/// existed after frame `i` drained.
fn timing_windows(run_s: f64, ends: &[usize]) -> Vec<Range<usize>> {
    let mut parts = ((run_s / WINDOW_S) as usize).max(1);
    loop {
        let windows = split_even(ends.len(), parts);
        let enough = windows.iter().all(|r| {
            let start = r.start.checked_sub(1).map_or(0, |i| ends[i]);
            r.end > r.start && ends[r.end - 1] - start >= MIN_FRAMES as usize
        });
        if enough || parts == 1 {
            return windows;
        }
        parts -= 1;
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// What a run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Deliveries owed.
    pub attempted: u64,
    /// Owed deliveries that failed.
    pub failed: u64,
    /// The metrics of the run's kind.
    pub metrics: Vec<Metric>,
    /// Run record (host, seed, sizes, sample counts), one JSON line.
    pub record: String,
    /// Failed checks, for the log.
    pub messages: Vec<String>,
    /// Trace files of a traced run: path and contents.
    pub files: Vec<(std::path::PathBuf, String)>,
}

impl Outcome {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Deterministic counts at the end of the counting window.
#[derive(Debug, Default, Clone, Copy)]
struct Window {
    wire_bytes: u64,
    points: u64,
    sheds: usize,
    replayed: usize,
    nacks: usize,
    recovered: usize,
}

/// One timing window's frames: push time and latency and decode samples,
/// each part divided by the host's slowness while it was taken.
#[derive(Default)]
struct Samples {
    frames: usize,
    push_s: f64,
    latency_ms: Vec<f64>,
    decode_ms: Vec<f64>,
}

/// One frame's timings: its push, the latency of each delivery (of which
/// `latency_recv_ms` was spent in the receiver), and the decode times of
/// its drain.
struct FrameTimes<'a> {
    push_s: f64,
    latency_ms: &'a [f64],
    latency_recv_ms: &'a [f64],
    decode_ms: &'a [f64],
}

impl Samples {
    /// Adds a frame whose push ran at slowness `push` and whose drain ran
    /// at slowness `drain`.
    fn add(&mut self, t: &FrameTimes<'_>, push: f64, drain: f64) {
        self.frames += 1;
        self.push_s += t.push_s / push;
        self.latency_ms.extend(
            t.latency_ms
                .iter()
                .zip(t.latency_recv_ms)
                .map(|(l, r)| (l - r) / push + r / drain),
        );
        self.decode_ms.extend(t.decode_ms.iter().map(|v| v / drain));
    }

    /// Source fps, latency p50 and p95, decode p50.
    fn figures(mut self) -> [f64; 4] {
        [
            ratio(self.frames as f64, self.push_s),
            median(&mut self.latency_ms).unwrap_or(0.0),
            percentile(&mut self.latency_ms, 95.0).unwrap_or(0.0),
            median(&mut self.decode_ms).unwrap_or(0.0),
        ]
    }
}

/// Runs one workload; `Err` only when the run could not be carried out.
pub fn run(args: &Args) -> Result<Outcome, String> {
    pcc_probe::set_enabled(false);
    let spec = args.workload;
    let host = Host::detect();
    let clip = Clip::new(&spec, args.seed);
    let input = |f: u32| clip.frame(f);
    let bb = clip.bounding_box();
    let device = || Device::jetson_agx_xavier(PowerMode::W15);
    let server = device();
    let rx_devices: Vec<Device> = (0..spec.subscribers()).map(|_| device()).collect();
    let replay_devices = ReplayDevices::new();

    // Bookkeeping sized up front, so the timed heap figures never see it.
    let frames_cap = (WARMUP_FRAMES + UNTRACED_FRAMES + MAX_FRAMES + 1) as usize;
    let mut pushes: Vec<Push> = Vec::with_capacity(frames_cap);
    let mut sample_ends: Vec<(usize, usize)> = Vec::with_capacity(frames_cap);
    let mut late_ms: Vec<f64> = Vec::with_capacity(spec.late);
    // `probe_s[k]`: the speed probe right before timed frame k, which is
    // also the one right after frame k - 1's drain; `mid_probe_s[k]`: the
    // one between frame k's push and its drain.
    let mut probe_s: Vec<f64> = Vec::with_capacity(frames_cap + 1);
    let mut mid_probe_s: Vec<f64> = Vec::with_capacity(frames_cap);
    let mut tracer = Tracer::new();

    // Set-up, several times: construction with the initial subscribes, then
    // the warm-up frames, each step timed between two speed probes and
    // scaled by them. The last set-up is the one the run continues.
    let mut probe = SpeedProbe::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let mut ledger = Ledger::with_capacity(frames_cap, frames_cap * spec.subscribers());
        ledger.keep = Some(Vec::with_capacity(WARMUP_FRAMES as usize));
        if args.trace {
            ledger.recv_spans = Some(Vec::with_capacity(4 * spec.subscribers()));
        }
        let heap_base = alloc::live();
        let mut last = probe.time_once();
        let (mut session, mut took, mut at_reference) = probe.time_step(&mut last, || {
            Session::open(&spec, args.seed, bb, &server, &rx_devices)
        });
        for f in 0..WARMUP_FRAMES {
            let ((), t, r) = probe.time_step(&mut last, || {
                session.push(input(f), &mut ledger);
                session.drain(&mut ledger);
            });
            took += t;
            at_reference += r;
        }
        setup_s.push((took, at_reference));
        kept = Some((session, ledger, heap_base));
    }
    let (mut session, mut ledger, heap_base) = kept.ok_or("no set-up ran")?;

    // Quality of what the reference subscriber received during warm-up.
    let mut psnr = Vec::new();
    for (f, cloud) in ledger.keep.take().unwrap_or_default() {
        match pcc_metrics::attribute_psnr(input(f), &cloud) {
            Some(db) => psnr.push(db),
            None => ledger.fail(format!("frame {f}: no attribute PSNR")),
        }
    }
    let attr_psnr_db = mean(&psnr);
    if attr_psnr_db < PSNR_FLOOR_DB {
        ledger.fail(format!(
            "attribute PSNR {attr_psnr_db:.2} dB under the {PSNR_FLOOR_DB} dB floor"
        ));
    }

    let mut replay = args
        .trace
        .then(|| Replay::new(spec.design, spec.depth(), bb, &replay_devices));
    if let Some(r) = &mut replay {
        // Warm the replay on the warm-up frames, checking it against them.
        let mut scratch = Tracer::new();
        for f in 0..WARMUP_FRAMES {
            let root = scratch.open("warmup", f, None);
            check_replay(
                r.frame(f, input(f), &mut scratch, root, false),
                f,
                &mut ledger,
            );
        }
        r.totals = ReplayTotals::default();
    }

    // The timed closed loop.
    let timed_start = session.frame_index();
    ledger.count_from = timed_start;
    ledger.sampling = true;
    let untraced = if args.trace { UNTRACED_FRAMES } else { 0 };
    let traced_from = if args.trace { untraced } else { u32::MAX };
    let (min_frames, max_frames) = (untraced + MIN_FRAMES, untraced + MAX_FRAMES);
    let heap_timed_start = alloc::live();
    let tracer_heap_start = tracer.heap_bytes();
    let mut heap_peak = 0usize;
    let mut window = Window::default();
    let mut phase_b = (0usize, 0usize);
    let mut late_next = 0usize;
    probe_s.push(probe.time_once());
    let start = Instant::now();
    let mut k = 0u32;
    while k < max_frames && (k < min_frames || start.elapsed().as_secs_f64() < args.seconds) {
        let traced = k >= traced_from;
        if k == traced_from {
            phase_b = (ledger.latency_ms.len(), pushes.len());
            ledger.recv_allocs = 0;
            ledger.recv_calls = 0;
        }
        let f = timed_start + k;
        let cloud = input(f);
        alloc::reset_peak();
        let root = traced.then(|| tracer.open("frame", f, None));
        while late_next < spec.late && late_join_frame(late_next, spec.late) == k {
            let (s, e) = session.attach(Role::Late);
            late_ms.push((e - s).as_secs_f64() * 1e3);
            if let Some(r) = root {
                tracer.record("serve.subscribe", f, Some(r), s, e, 0);
            }
            late_next += 1;
        }
        let bytes_before = session.subs[0].wire.bytes_accepted();
        if let Some(spans) = &mut ledger.recv_spans {
            spans.clear();
        }
        let push = session.push(cloud, &mut ledger);
        mid_probe_s.push(probe.time_once());
        session.drain(&mut ledger);
        heap_peak = heap_peak.max(alloc::peak());
        pushes.push(push);
        sample_ends.push((ledger.latency_ms.len(), ledger.decode_ms.len()));

        if k < COUNT_WINDOW {
            window.wire_bytes += session.subs[0].wire.bytes_accepted() - bytes_before;
            window.points += cloud.len() as u64;
        }
        if k + 1 == COUNT_WINDOW {
            let serve = session.serve_stats();
            let arq = receiver_totals(&session.subs, Role::Arq);
            window.sheds = serve.sheds_refinement + serve.sheds_p_stride;
            window.replayed = serve.replayed_frames;
            window.nacks = arq.arq_nacks;
            window.recovered = arq.arq_recovered;
        }

        if let (Some(r), Some(replay)) = (root, replay.as_mut()) {
            let ps = tracer.record(
                "serve.push",
                f,
                Some(r),
                push.start,
                push.end,
                push.live as u64,
            );
            if let (Some(first), Some(last)) = (push.first_write, push.last_write) {
                tracer.record("serve.encode", f, Some(ps), push.start, first, 0);
                tracer.record("serve.fanout", f, Some(ps), first, last, push.live as u64);
            }
            for &(s, e) in ledger.recv_spans.iter().flatten() {
                tracer.record("stream.recv", f, Some(r), s, e, 0);
            }
            let rs = tracer.open("replay", f, Some(r));
            let counted = k - traced_from < COUNT_WINDOW;
            let digest = replay.frame(f, cloud, &mut tracer, rs, counted);
            tracer.close(rs);
            check_replay(digest, f, &mut ledger);
            tracer.close(r);
        }
        probe_s.push(probe.time_once());
        k += 1;
    }
    let run_s = start.elapsed().as_secs_f64();
    let heap_timed_end = alloc::live();
    let subscribers_end = session.live_subscribers();
    let end_index = session.frame_index();

    let (serve, subs) = session.finish(&mut ledger);
    if serve.subscribers_failed + serve.subscribers_evicted > 0 {
        ledger.fail(format!(
            "{} subscribers failed and {} were evicted",
            serve.subscribers_failed, serve.subscribers_evicted
        ));
    }
    if serve.late_joins != spec.late {
        ledger.fail(format!(
            "{} late joins, expected {}",
            serve.late_joins, spec.late
        ));
    }
    let (owed, delivered) = owed_and_delivered(&subs, timed_start, end_index);
    let failed = owed.saturating_sub(delivered);
    let frames = k as usize;
    // Frames per subscriber behind the reported percentiles (the traced
    // run's traced phase, or the whole untraced run).
    let sampled = k.saturating_sub(untraced) as usize;
    let tail = tail_percentile(sampled);
    if tail.is_none_or(|p| p < 95.0) {
        ledger.fail(format!(
            "{sampled} frames per subscriber are too few for a p95"
        ));
    }

    let mut record = format!(
        "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},{},\"seconds\":{},\"run_s\":{run_s},\
         \"timed_frames\":{frames},\"frames_per_subscriber\":{sampled},\"subscribers\":{},\
         \"points_per_frame\":{},\"depth\":{},\"tail_percentile\":{}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        host.json_fields(),
        args.seconds,
        spec.subscribers(),
        spec.points,
        spec.depth(),
        tail.unwrap_or(0.0),
    );

    let mut files = Vec::new();
    let metrics = if args.trace {
        let (lat_b, push_b) = phase_b;
        let mut untraced = ledger.latency_ms[..lat_b].to_vec();
        let mut traced = ledger.latency_ms[lat_b..].to_vec();
        let base = median(&mut untraced).unwrap_or(0.0);
        let overhead = ratio(median(&mut traced).unwrap_or(0.0) - base, base);
        let retained = heap_timed_end as f64
            - heap_timed_start as f64
            - (tracer.heap_bytes() as f64 - tracer_heap_start as f64);
        let layer = LayerInputs {
            pushes: &pushes[push_b..],
            ledger: &ledger,
            window,
            late_ms: &late_ms,
            replayed_total: serve.replayed_frames,
            retained_per_sub: retained / subscribers_end.max(1) as f64,
            overhead,
            overhead_samples: (untraced.len(), traced.len()),
        };
        let replay = replay.as_ref().ok_or("traced run without a replay")?;
        let out = layer_metrics(&layer, tracer.spans(), &replay.totals);
        files = trace_files(&spec, timed_start + traced_from, &tracer, &replay.totals);
        if let Some((path, _)) = files.first() {
            let _ = write!(record, ",\"trace_file\":\"{}\"", path.display());
        }
        out
    } else {
        let lat_ends: Vec<usize> = sample_ends.iter().map(|e| e.0).collect();
        let windows = timing_windows(run_s, &lat_ends);
        let _ = write!(record, ",\"timing_windows\":{}", windows.len());
        // Per window: the figures as measured, the figures from each
        // frame's times divided by the host's slowness while they were taken
        // (over the push: the mean of the probes right before and right
        // after it; over the drain: the same around the drain), and the
        // window's mean slowness.
        let (mut measured, mut scaled, mut window_slowness) = (Vec::new(), Vec::new(), Vec::new());
        // Frames, latency and decode samples per window.
        let mut counts: Vec<[usize; 3]> = Vec::new();
        for r in windows.iter().filter(|r| !r.is_empty()) {
            let mut raw = Samples::default();
            let mut at_ref = Samples::default();
            let mut slow_sum = 0.0;
            for i in r.clone() {
                let push = slowness((probe_s[i] + mid_probe_s[i]) / 2.0);
                let drain = slowness((mid_probe_s[i] + probe_s[i + 1]) / 2.0);
                let from = i.checked_sub(1).map_or((0, 0), |j| sample_ends[j]);
                let to = sample_ends[i];
                let times = FrameTimes {
                    push_s: (pushes[i].end - pushes[i].start).as_secs_f64(),
                    latency_ms: &ledger.latency_ms[from.0..to.0],
                    latency_recv_ms: &ledger.latency_recv_ms[from.0..to.0],
                    decode_ms: &ledger.decode_ms[from.1..to.1],
                };
                raw.add(&times, 1.0, 1.0);
                at_ref.add(&times, push, drain);
                slow_sum += (push + drain) / 2.0;
            }
            counts.push([
                at_ref.frames,
                at_ref.latency_ms.len(),
                at_ref.decode_ms.len(),
            ]);
            measured.push(raw.figures());
            scaled.push(at_ref.figures());
            window_slowness.push(slow_sum / r.len() as f64);
        }
        let column =
            |rows: &[[f64; 4]], j: usize| -> Vec<f64> { rows.iter().map(|f| f[j]).collect() };
        let shown = |values: &[f64]| -> String {
            let v: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            v.join(",")
        };
        for (j, name) in ["fps", "p50_ms", "p95_ms", "decode_ms"].iter().enumerate() {
            let _ = write!(
                record,
                ",\"window_{name}_measured\":[{}],\"window_{name}\":[{}]",
                shown(&column(&measured, j)),
                shown(&column(&scaled, j))
            );
        }
        let setups: Vec<String> = setup_s
            .iter()
            .map(|(took, scaled)| format!("[{took:.6},{scaled:.6}]"))
            .collect();
        let _ = write!(
            record,
            ",\"window_slowness\":[{}],\"reference_probe_s\":{REFERENCE_PROBE_S},\"setup_s_measured_and_scaled\":[{}]",
            shown(&window_slowness),
            setups.join(",")
        );
        // The figures are medians over the calmer half of the windows (lower
        // mean slowness): when a neighbour is busiest, times stretch more
        // than the probe does, and the scaling no longer makes up for it.
        let mut calm: Vec<usize> = (0..scaled.len()).collect();
        calm.sort_by(|&a, &b| window_slowness[a].total_cmp(&window_slowness[b]));
        calm.truncate(scaled.len().div_ceil(2));
        calm.sort_unstable();
        let _ = write!(record, ",\"calm_windows\":{calm:?}");
        let used: Vec<[f64; 4]> = calm.iter().map(|&i| scaled[i]).collect();
        let [mut fps, mut p50, mut p95, mut dec] = [0, 1, 2, 3].map(|j| column(&used, j));
        let [n_frames, n_lat, n_dec] =
            [0, 1, 2].map(|j| calm.iter().map(|&i| counts[i][j]).sum::<usize>());
        let mut setup: Vec<f64> = setup_s.iter().map(|s| s.1).collect();
        vec![
            metric(
                "setup_s",
                median(&mut setup).unwrap_or(0.0),
                "s",
                setup.len(),
            ),
            metric(
                "source_fps",
                median(&mut fps).unwrap_or(0.0),
                "frames/s",
                n_frames,
            ),
            metric(
                "delivered_ms_p50",
                median(&mut p50).unwrap_or(0.0),
                "ms",
                n_lat,
            ),
            metric(
                "delivered_ms_p95",
                median(&mut p95).unwrap_or(0.0),
                "ms",
                n_lat,
            ),
            metric(
                "decode_ms_p50",
                median(&mut dec).unwrap_or(0.0),
                "ms",
                n_dec,
            ),
            metric(
                "wire_bits_per_point",
                ratio(window.wire_bytes as f64 * 8.0, window.points as f64),
                "bits/pt",
                COUNT_WINDOW.min(k) as usize,
            ),
            metric("attr_psnr_db", attr_psnr_db, "dB", psnr.len()),
            metric(
                "delivered_share",
                ratio(delivered as f64, owed as f64),
                "ratio",
                owed as usize,
            ),
            metric(
                "heap_peak_mb",
                heap_peak.saturating_sub(heap_base) as f64 / (1u64 << 20) as f64,
                "MiB",
                frames,
            ),
        ]
    };

    record.push_str(",\"samples\":{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            record.push(',');
        }
        let _ = write!(record, "\"{}\":{}", m.name, m.samples);
    }
    let _ = write!(record, "}},\"failed_checks\":{}}}}}", ledger.failures);

    let correct = ledger.failures == 0 && failed == 0 && owed > 0;
    Ok(Outcome {
        correct,
        attempted: owed.max(1),
        failed,
        metrics,
        record,
        messages: ledger.messages,
        files,
    })
}

fn check_replay(result: Result<u64, String>, f: u32, ledger: &mut Ledger) {
    match result {
        Ok(d) if ledger.ref_digest.get(f as usize).copied().flatten() == Some(d) => {}
        Ok(_) => ledger.fail(format!(
            "frame {f}: the replay decoded another cloud than subscribers got"
        )),
        Err(e) => ledger.fail(e),
    }
}

/// Serving-path figures the per-layer metrics draw on.
struct LayerInputs<'a> {
    pushes: &'a [Push],
    ledger: &'a Ledger,
    window: Window,
    late_ms: &'a [f64],
    replayed_total: usize,
    retained_per_sub: f64,
    overhead: f64,
    overhead_samples: (usize, usize),
}

/// `(calls, total ns, total items)` of the spans named `name`.
fn totals(spans: &[trace::Span], name: &str) -> (usize, f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0.0, 0.0), |(c, d, i), s| {
            (c + 1, d + s.dur_ns() as f64, i + s.items as f64)
        })
}

fn layer_metrics(x: &LayerInputs<'_>, spans: &[trace::Span], r: &ReplayTotals) -> Vec<Metric> {
    let per_item = |name: &'static str, metric_name: &'static str, unit: &'static str| {
        let (c, d, i) = totals(spans, name);
        metric(metric_name, ratio(d, i), unit, c)
    };
    let mean_ms = |name: &'static str, metric_name: &'static str| {
        let (c, d, _) = totals(spans, name);
        metric(metric_name, ratio(d, c as f64) / 1e6, "ms", c)
    };
    let (enc_i, enc_i_ns, _) = totals(spans, "core.encode.intra");
    let (enc_p, enc_p_ns, _) = totals(spans, "core.encode.inter");
    let (one, one_ns, _) = totals(spans, "parallel.encode_1thread");
    let (geo_n, geo_ns, _) = totals(spans, "intra.geometry_encode");
    let (attr_n, attr_ns, _) = totals(spans, "intra.attribute_encode");
    let (match_n, match_ns, _) = totals(spans, "inter.match");
    let (mux_n, mux_ns, _) = totals(spans, "core.mux");

    // Coverage: self time of the calls that partition an encode, over
    // the encode they replay.
    let self_ns = trace::self_times(spans);
    let staged: f64 = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| {
            s.parent
                .and_then(|p| spans.get(p))
                .is_some_and(|p| p.name == "encode_stages")
        })
        .map(|(_, &ns)| ns as f64)
        .sum();

    let frames = x.pushes.len();
    let mut push_ms: Vec<f64> = x
        .pushes
        .iter()
        .map(|p| (p.end - p.start).as_secs_f64() * 1e3)
        .collect();
    let encode_ms: Vec<f64> = x
        .pushes
        .iter()
        .filter_map(|p| p.first_write.map(|w| (w - p.start).as_secs_f64() * 1e3))
        .collect();
    let fanout_ns: Vec<f64> = x
        .pushes
        .iter()
        .filter_map(|p| match (p.first_write, p.last_write) {
            (Some(a), Some(b)) => Some((b - a).as_nanos() as f64 / p.live.max(1) as f64),
            _ => None,
        })
        .collect();
    let push_allocs: f64 = x.pushes.iter().map(|p| p.allocs as f64).sum();
    let w = x.window;
    vec![
        per_item("morton.codegen", "morton.codegen_ns_per_point", "ns/pt"),
        per_item("morton.sort", "morton.sort_ns_per_point", "ns/pt"),
        per_item("octree.build", "octree.build_ns_per_point", "ns/pt"),
        per_item("octree.occupancy", "octree.occupancy_ns_per_point", "ns/pt"),
        mean_ms("intra.geometry_encode", "intra.geometry_encode_ms"),
        mean_ms("intra.attribute_encode", "intra.attribute_encode_ms"),
        mean_ms("intra.geometry_decode", "intra.geometry_decode_ms"),
        mean_ms("intra.attribute_decode", "intra.attribute_decode_ms"),
        mean_ms("inter.match", "inter.match_ms"),
        mean_ms("inter.encode", "inter.encode_ms"),
        mean_ms("inter.decode", "inter.decode_ms"),
        metric(
            "inter.reuse_fraction",
            ratio(r.reused_blocks as f64, r.p_blocks as f64),
            "ratio",
            r.p_blocks as usize,
        ),
        mean_ms("core.encode.intra", "core.encode_ms.intra"),
        mean_ms("core.encode.inter", "core.encode_ms.inter"),
        mean_ms("core.decode.intra", "core.decode_ms.intra"),
        mean_ms("core.decode.inter", "core.decode_ms.inter"),
        metric(
            "core.mux_us",
            ratio(mux_ns, mux_n as f64) / 1e3,
            "us",
            mux_n,
        ),
        metric(
            "core.encode_allocs_per_frame",
            ratio(r.encode_allocs as f64, r.frames as f64),
            "allocs/frame",
            r.frames as usize,
        ),
        metric(
            "parallel.encode_speedup",
            ratio(one_ns, enc_i_ns + enc_p_ns),
            "x",
            one,
        ),
        per_item(
            "stream.chunk_encode",
            "stream.chunk_encode_ns_per_byte",
            "ns/B",
        ),
        per_item("stream.demux", "stream.demux_ns_per_byte", "ns/B"),
        metric(
            "stream.recv_allocs_per_frame",
            ratio(x.ledger.recv_allocs as f64, x.ledger.recv_calls as f64),
            "allocs/frame",
            x.ledger.recv_calls as usize,
        ),
        metric(
            "stream.arq_nacks",
            w.nacks as f64,
            "count",
            COUNT_WINDOW as usize,
        ),
        metric(
            "stream.arq_recovered_share",
            ratio(w.recovered as f64, w.nacks as f64),
            "ratio",
            w.nacks,
        ),
        metric(
            "serve.push_ms_p50",
            median(&mut push_ms).unwrap_or(0.0),
            "ms",
            frames,
        ),
        metric("serve.encode_ms", mean(&encode_ms), "ms", encode_ms.len()),
        metric(
            "serve.fanout_ns_per_subscriber",
            mean(&fanout_ns),
            "ns",
            fanout_ns.len(),
        ),
        metric("serve.late_join_ms", mean(x.late_ms), "ms", x.late_ms.len()),
        metric(
            "serve.replayed_frames",
            w.replayed as f64,
            "count",
            x.replayed_total,
        ),
        metric(
            "serve.sheds",
            w.sheds as f64,
            "count",
            COUNT_WINDOW as usize,
        ),
        metric(
            "serve.push_allocs_per_frame",
            ratio(push_allocs, frames as f64),
            "allocs/frame",
            frames,
        ),
        metric(
            "serve.retained_bytes_per_subscriber",
            x.retained_per_sub,
            "B",
            frames,
        ),
        metric(
            "edge.measured_over_modeled.geometry",
            ratio(geo_ns / 1e6, r.modeled_geometry_ms),
            "x",
            geo_n,
        ),
        metric(
            "edge.measured_over_modeled.attribute",
            ratio(attr_ns / 1e6, r.modeled_attribute_ms),
            "x",
            attr_n,
        ),
        metric(
            "edge.measured_over_modeled.inter_match",
            ratio(match_ns / 1e6, r.modeled_match_ms),
            "x",
            match_n,
        ),
        metric(
            "trace.encode_coverage",
            ratio(staged, enc_i_ns + enc_p_ns),
            "ratio",
            enc_i + enc_p,
        ),
        metric(
            "trace.overhead_share",
            x.overhead,
            "ratio",
            x.overhead_samples.0 + x.overhead_samples.1,
        ),
    ]
}

/// Traced frames whose spans go into the Chrome trace file (every span
/// feeds the metrics; the file only has to show a few groups of frames).
const TRACE_FILE_FRAMES: u32 = 12;

/// The first traced frames' spans, then the first I- and P-frame's
/// modeled encode timelines, as Chrome traces to write under `out/`
/// beside the benchmark sources — one set per workload (the run record
/// names the seed).
fn trace_files(
    spec: &Spec,
    first_traced: u32,
    tracer: &Tracer,
    r: &ReplayTotals,
) -> Vec<(std::path::PathBuf, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let spans = tracer.spans();
    let shown = spans
        .iter()
        .take_while(|s| s.frame < first_traced + TRACE_FILE_FRAMES)
        .count();
    let mut files = vec![(
        dir.join(format!("{}.measured.json", spec.name)),
        trace::to_chrome_trace(&spans[..shown]),
    )];
    for (kind, timeline) in [("intra", &r.modeled_intra), ("inter", &r.modeled_inter)] {
        if let Some(t) = timeline {
            files.push((
                dir.join(format!("{}.modeled-{kind}.json", spec.name)),
                pcc_edge::trace::to_chrome_trace(t),
            ));
        }
    }
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_core::Design;

    /// Every subscriber role, at a size a test can afford.
    const TINY: Spec = Spec {
        name: "tiny",
        video: "Andrew10",
        points: 1_500,
        design: Design::IntraInterV1,
        plain: 3,
        arq: 2,
        throttled: 2,
        late: 2,
    };

    fn figures(seed: u64, trace: bool, names: &[&str]) -> Vec<f64> {
        let out = run(&Args {
            workload: TINY,
            seed,
            seconds: 0.01,
            trace,
        })
        .unwrap();
        assert!(out.correct, "{:?}", out.messages);
        assert_eq!(out.failed, 0);
        names
            .iter()
            .map(|n| out.metrics.iter().find(|m| m.name == *n).unwrap().value)
            .collect()
    }

    #[test]
    fn a_seed_repeats_its_deterministic_figures_exactly_and_another_seed_moves_them() {
        let names = ["wire_bits_per_point", "attr_psnr_db", "delivered_share"];
        let a = figures(5, false, &names);
        assert_eq!(a, figures(5, false, &names));
        assert_eq!(a[2], 1.0);
        assert_ne!(a, figures(6, false, &names));

        let counts = [
            "inter.reuse_fraction",
            "stream.arq_nacks",
            "serve.sheds",
            "serve.replayed_frames",
        ];
        let c = figures(5, true, &counts);
        assert_eq!(c, figures(5, true, &counts));
        assert!(
            c.iter().skip(1).all(|&v| v > 0.0),
            "every fan-out path was exercised: {c:?}"
        );
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;

    #[test]
    fn timing_windows_keep_enough_latency_samples_in_each() {
        // One sample per frame: 1 000 frames over 35 s fit five windows
        // of 200, not fourteen.
        let ends: Vec<usize> = (1..=1_000).collect();
        let w = timing_windows(35.0, &ends);
        assert_eq!(w.len(), 5);
        assert!(w.iter().all(|r| r.len() == 200));
        // 256 samples per frame: fourteen windows of 2.5 s.
        let ends: Vec<usize> = (1..=700).map(|i| i * 256).collect();
        assert_eq!(timing_windows(35.0, &ends).len(), 14);
        // Too few samples for two windows: one.
        let ends: Vec<usize> = (1..=300).collect();
        assert_eq!(timing_windows(35.0, &ends), vec![0..300]);
    }

    #[test]
    fn samples_taken_on_a_slow_host_count_shorter() {
        // The same two frames at full speed, and with the pushes twice and
        // the drains four times as slow; a latency's receiver part is drain
        // time, the rest push time.
        let mut at_speed = Samples::default();
        let mut slow = Samples::default();
        for (push_s, wait, recv, decode) in [
            (0.01, [3.0, 5.0], [1.0, 1.0], [1.0]),
            (0.03, [6.0, 9.0], [2.0, 1.0], [3.0]),
        ] {
            for (samples, push, drain) in [(&mut at_speed, 1.0, 1.0), (&mut slow, 2.0, 4.0)] {
                let recv = recv.map(|r| drain * r);
                samples.add(
                    &FrameTimes {
                        push_s: push * push_s,
                        latency_ms: &[push * wait[0] + recv[0], push * wait[1] + recv[1]],
                        latency_recv_ms: &recv,
                        decode_ms: &decode.map(|d| drain * d),
                    },
                    push,
                    drain,
                );
            }
        }
        let figures = at_speed.figures();
        assert_eq!(figures, slow.figures());
        for (got, want) in figures.into_iter().zip([50.0, 6.0, 10.0, 1.0]) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }
}
