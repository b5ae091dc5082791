//! Encoder-side overload supervision for live sessions.
//!
//! [`stream_video`](crate::stream_video) keeps real time only as long as
//! the encoder keeps up with the frame rate; when it falls behind, the
//! bounded transmit queue fills and the session silently turns into an
//! offline encode with a growing latency bubble. This module closes the
//! loop: [`stream_video_supervised`] runs the same encode/transmit
//! pipeline under a [`Supervisor`] that
//!
//! * walks a [`QualityLadder`](pcc_adapt::QualityLadder) via a hysteresis
//!   [`Controller`] fed per-frame observations — encode time against the
//!   deadline, transmit-queue occupancy, and receiver loss counters fed
//!   back through [`SharedStats`] — applying rung changes only at GOF
//!   boundaries so the reference chain never breaks mid-group;
//! * abandons over-deadline P-frames after the fact (the *watchdog*):
//!   an encode that blew `abandon_factor ×` the frame budget is dropped
//!   instead of queued, surfacing on the wire as an ordinary frame-index
//!   gap every PR-2 receiver already survives;
//! * contains encode-worker panics ([`pcc_parallel::contain`]): a panic
//!   becomes one skipped frame plus a
//!   [`panics_contained`](crate::StreamStats::panics_contained) tick, and
//!   the session keeps running — an I-slot panic additionally invalidates
//!   the encoder reference so the following frames re-anchor as
//!   intra-coded pictures.
//!
//! Every decision is a pure function of the observation sequence: the
//! controller never reads a clock, and the supervisor reads time only
//! through an injected [`Clock`], so a session driven by a
//! [`FakeClock`](pcc_adapt::FakeClock) and a deterministic load model
//! replays to an identical rung trace and wire stream on any machine.
//! With [`Supervisor::passthrough`] the supervised path is byte- and
//! stats-identical to plain [`stream_video`](crate::stream_video) —
//! which is, in fact, implemented as exactly that call.

use crate::session::{header_chunk, StreamConfig};
use crate::source::{FramePayload, Subscription};
use crate::stats::{SharedStats, StreamStats};
use pcc_adapt::{Clock, Controller, FrameObservation, SystemClock};
use pcc_core::{container, PccCodec};
use pcc_edge::Device;
use pcc_parallel::queue;
use pcc_types::{FrameKind, Video};
use std::io::{self, Write};
use std::sync::Arc;

/// A deterministic stand-in for measured encode time: maps `(frame_index,
/// modeled_ms)` to the milliseconds charged against the deadline.
pub type LoadProfile = Box<dyn FnMut(usize, f64) -> f64 + Send>;

/// A fault hook run inside the supervision boundary just before each
/// frame encodes; panicking here exercises panic containment.
pub type EncodeFault = Box<dyn FnMut(usize) + Send>;

/// The supervision policy for one [`stream_video_supervised`] session.
///
/// [`passthrough`](Supervisor::passthrough) disables every control
/// mechanism except panic containment; [`new`](Supervisor::new) arms the
/// overload controller and the deadline watchdog. Builders inject the
/// clock, the receiver feedback channel, and the deterministic load /
/// fault hooks tests use.
pub struct Supervisor {
    controller: Option<Controller>,
    clock: Arc<dyn Clock>,
    load_profile: Option<LoadProfile>,
    encode_fault: Option<EncodeFault>,
    feedback: Option<SharedStats>,
    abandon_factor: f64,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("controller", &self.controller)
            .field("abandon_factor", &self.abandon_factor)
            .field("has_load_profile", &self.load_profile.is_some())
            .field("has_encode_fault", &self.encode_fault.is_some())
            .field("has_feedback", &self.feedback.is_some())
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// No controller, no watchdog: the pipeline behaves exactly like
    /// unsupervised [`stream_video`](crate::stream_video) (panic
    /// containment stays on — it changes nothing unless a worker
    /// actually panics).
    pub fn passthrough() -> Self {
        Supervisor {
            controller: None,
            clock: Arc::new(SystemClock::default()),
            load_profile: None,
            encode_fault: None,
            feedback: None,
            abandon_factor: f64::INFINITY,
        }
    }

    /// Arms overload control with `controller` and the deadline watchdog
    /// at its default threshold (2× the frame budget).
    pub fn new(controller: Controller) -> Self {
        Supervisor {
            controller: Some(controller),
            clock: Arc::new(SystemClock::default()),
            load_profile: None,
            encode_fault: None,
            feedback: None,
            abandon_factor: 2.0,
        }
    }

    /// Reads time through `clock` instead of the system clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Replaces measured encode wall time with a deterministic model:
    /// `profile(frame_index, modeled_ms)` is charged against the
    /// deadline instead of the wall clock. Tests use this to script an
    /// overload window that replays identically on any machine.
    pub fn with_load_profile(
        mut self,
        profile: impl FnMut(usize, f64) -> f64 + Send + 'static,
    ) -> Self {
        self.load_profile = Some(Box::new(profile));
        self
    }

    /// Runs `fault(frame_index)` inside the supervision boundary before
    /// each encode; a panic in the hook exercises containment end to end
    /// (`pcc-fault`'s `panic_on_frames` builds suitable hooks).
    pub fn with_encode_fault(mut self, fault: impl FnMut(usize) + Send + 'static) -> Self {
        self.encode_fault = Some(Box::new(fault));
        self
    }

    /// Samples receiver counters from `feedback` (published by
    /// [`Receiver::with_feedback`](crate::Receiver::with_feedback)) as
    /// the loss signal for the controller. Drops the supervisor itself
    /// caused — shed, watchdog-abandoned, or panic-skipped frames — are
    /// subtracted before the controller sees the counter, so degradation
    /// never reads as network loss and pins the session down-ladder.
    pub fn with_feedback(mut self, feedback: SharedStats) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Sets the watchdog threshold: a P-frame whose (effective) encode
    /// time exceeds `factor ×` the frame budget is abandoned after the
    /// fact instead of queued. I-frames are never abandoned — they are
    /// the resync anchors the loss model leans on.
    pub fn with_abandon_factor(mut self, factor: f64) -> Self {
        assert!(factor > 1.0, "abandon factor must exceed 1");
        self.abandon_factor = factor;
        self
    }

    /// The controller, for post-session inspection of its rung trace.
    pub fn controller(&self) -> Option<&Controller> {
        self.controller.as_ref()
    }
}

/// [`stream_video`](crate::stream_video) under a [`Supervisor`]: same
/// overlapped encode/transmit pipeline, same wire format, plus overload
/// control, a deadline watchdog, and panic containment.
///
/// Degradation artifacts are all wire-compatible: rung changes only vary
/// encode-side knobs (reuse threshold, single- vs two-layer intra) that
/// coded frames self-describe, and shed/abandoned frames surface as
/// frame-index gaps every receiver already treats as loss. A receiver
/// needs no notion of the supervisor's existence.
///
/// # Errors
///
/// Propagates transport errors (encoding stops early when the transport
/// dies).
#[allow(clippy::too_many_arguments)]
pub fn stream_video_supervised<W: Write>(
    codec: &PccCodec,
    video: &Video,
    depth: u8,
    device: &Device,
    writer: W,
    config: &StreamConfig,
    supervisor: &mut Supervisor,
) -> io::Result<(W, StreamStats)> {
    let budget = config.frame_budget_ms.or_else(|| {
        let fps = f64::from(video.fps());
        (fps > 0.0).then_some(1000.0 / fps)
    });
    let (tx, rx) = queue::bounded::<FramePayload>(config.queue_depth.max(1));
    let header = header_chunk(config.stream_id, codec.design(), depth);

    let Supervisor { controller, clock, load_profile, encode_fault, feedback, abandon_factor } =
        &mut *supervisor;
    let clock = Arc::clone(clock);
    let abandon_factor = *abandon_factor;
    let feedback = feedback.clone();

    std::thread::scope(|s| {
        let encode = s.spawn(move || {
            let mut encoder = codec.frame_encoder(depth, device);
            if let Some(bb) = video.bounding_box() {
                encoder = encoder.with_bounding_box(bb);
            }
            let gof = encoder.gof_pattern();
            let mut over_budget = 0usize;
            let mut encode_ns = 0u64;
            let mut degraded = 0usize;
            let mut watchdog_skips = 0usize;
            let mut panics_contained = 0usize;
            // Frames this supervisor withheld from the wire (shed,
            // abandoned, or panic-skipped): the receiver counts them as
            // dropped, but they are not network loss.
            let mut suppressed = 0usize;
            for frame in video.iter() {
                let idx = encoder.frame_index();
                if let Some(ctl) = controller.as_mut() {
                    if gof.is_gof_start(idx) {
                        if let Some(rung) = ctl.take_rung_change(idx) {
                            encoder.set_inter_config(rung.config);
                        }
                    }
                    if ctl.should_skip(idx, &gof) {
                        encoder.skip_frame();
                        degraded += 1;
                        suppressed += 1;
                        continue;
                    }
                }

                let sp = pcc_probe::span("stream/encode");
                let t0 = clock.now();
                let outcome = pcc_parallel::contain(|| {
                    if let Some(fault) = encode_fault.as_mut() {
                        fault(idx);
                    }
                    encoder.encode_frame(&frame.cloud)
                });
                let wall_ms = clock.now().saturating_sub(t0).as_secs_f64() * 1000.0;
                encode_ns += sp.stop();
                let (encoded, timeline) = match outcome {
                    Ok(out) => out,
                    Err(_) => {
                        // The encoder's partial state for this frame is
                        // untrusted; skip the slot (an I-slot skip also
                        // invalidates the reference, forcing the group
                        // to re-anchor intra) and keep the session up.
                        panics_contained += 1;
                        suppressed += 1;
                        encoder.skip_frame();
                        continue;
                    }
                };
                let modeled_ms = timeline.total_modeled_ms().as_f64();
                if budget.is_some_and(|b| modeled_ms > b) {
                    over_budget += 1;
                }
                let kind = encoded.kind();
                if let Some(ctl) = controller.as_mut() {
                    let effective_ms = match load_profile.as_mut() {
                        Some(profile) => profile(idx, modeled_ms),
                        None => wall_ms,
                    };
                    let fb = feedback.as_ref().map(|f| f.snapshot()).unwrap_or_default();
                    ctl.observe(&FrameObservation {
                        frame_index: idx,
                        encode_ms: effective_ms,
                        queue_depth: tx.len(),
                        queue_capacity: tx.capacity(),
                        receiver_dropped: fb.frames_dropped.saturating_sub(suppressed),
                        receiver_arq_degraded: fb.arq_degraded,
                        receiver_refresh_requests: fb.refresh_requests,
                    });
                    if kind == FrameKind::Predicted
                        && budget.is_some_and(|b| effective_ms > abandon_factor * b)
                    {
                        // Watchdog: the frame is already encoded (state
                        // consistent, index advanced) but arrived too
                        // late to be worth transmitting.
                        watchdog_skips += 1;
                        degraded += 1;
                        suppressed += 1;
                        continue;
                    }
                    if ctl.rung() > 0 {
                        degraded += 1;
                    }
                }
                let mut payload = Vec::new();
                container::mux_frame(&mut payload, &encoded);
                if tx.send(FramePayload::from_bytes(idx as u32, kind, payload)).is_err() {
                    // The transmit side died; encoding on would be wasted work.
                    break;
                }
            }
            let rung_changes = controller.as_ref().map_or(0, |c| c.rung_changes());
            // thread::scope unblocks when this closure returns, before the
            // thread-local buffers' Drop flush — publish spans now so a
            // take_report() right after the session sees them.
            pcc_probe::flush_thread();
            (over_budget, encode_ns, degraded, watchdog_skips, panics_contained, rung_changes)
        });

        // The transmit half is one subscription: the same header, frame
        // and end chunks (and byte and chunk accounting) as a Sender.
        let transmit = || -> io::Result<(W, StreamStats)> {
            let mut sub = Subscription::attach(writer, &header)?;
            while let Some(frame) = rx.recv() {
                sub.send_payload(&frame)?;
            }
            sub.finish(video.len() as u32)
        };
        let result = transmit();
        // On a transport error the receiver half of the queue is dropped
        // here, which makes the encoder's next send fail and stop early.
        drop(rx);
        let (over_budget, encode_ns, degraded, watchdog_skips, panics_contained, rung_changes) =
            encode.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        let (writer, mut stats) = result?;
        stats.frames_over_budget = over_budget;
        stats.frames_degraded = degraded;
        stats.watchdog_skips = watchdog_skips;
        stats.panics_contained = panics_contained;
        stats.rung_changes = rung_changes;
        stats.add_stage_ns("stream/encode", encode_ns);
        Ok((writer, stats))
    })
}
