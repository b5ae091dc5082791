//! Sender/receiver session state machines over the chunk layer.
//!
//! A session is one coded video in flight: the sender emits a
//! stream-header chunk (design + depth), then one frame chunk per coded
//! picture, then an end chunk carrying the total frame count. The
//! receiver decodes incrementally — it never buffers the whole video —
//! and treats every chunk as untrusted: CRC failures, gaps, duplicates,
//! and reordering all degrade to dropped frames, never to a panic or a
//! wrongly-referenced picture.
//!
//! Loss handling follows the IPP dependency structure: P-frames
//! reference only their group's I-frame, so a lost P-frame costs exactly
//! itself, while a lost I-frame orphans the rest of its group — the
//! receiver invalidates the decoded reference and waits for the next
//! intact I-frame (a *resync*).

use crate::arq::{ArqConfig, Retransmit, SharedRing};
use crate::chunk::{decode_chunk, Chunk, ChunkKind, ChunkReader};
use crate::recovery::{RecoveryRequest, RepairSource, SharedRepairRing};
use crate::stats::{SharedStats, StreamStats};
use pcc_adapt::{Clock, SystemClock};
use pcc_core::{container, Design, EncodedFrame, FrameDecoder, PccCodec};
use pcc_edge::Device;
use pcc_types::{Aabb, FrameKind, GofPattern, PointCloud, Video};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Version byte of the stream-header chunk payload.
pub const STREAM_VERSION: u8 = 1;

/// Session knobs for a sender.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Session identity stamped on every chunk; receivers drop chunks
    /// from foreign streams.
    pub stream_id: u32,
    /// Coded frames buffered between the encode and transmit threads of
    /// [`stream_video`] — the backpressure bound.
    pub queue_depth: usize,
    /// Per-frame modeled encode latency budget in milliseconds; frames
    /// that exceed it are counted in
    /// [`StreamStats::frames_over_budget`]. [`stream_video`] defaults to
    /// the video's frame period (1000 / fps) when unset.
    pub frame_budget_ms: Option<f64>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig { stream_id: 1, queue_depth: 3, frame_budget_ms: None }
    }
}

pub(crate) fn header_chunk(stream_id: u32, design: Design, depth: u8) -> Chunk {
    Chunk {
        kind: ChunkKind::StreamHeader,
        frame_kind: None,
        stream_id,
        seq: 0,
        frame_index: 0,
        payload: vec![STREAM_VERSION, container::design_tag(design), depth],
    }
}

pub(crate) fn end_chunk(stream_id: u32, seq: u32, total_frames: u32) -> Chunk {
    Chunk {
        kind: ChunkKind::End,
        frame_kind: None,
        stream_id,
        seq,
        frame_index: total_frames,
        payload: total_frames.to_le_bytes().to_vec(),
    }
}

/// Push-style sending session: encode and emit one frame per call.
///
/// The trivial 1-subscriber composition of a
/// [`FrameSource`](crate::FrameSource) (encoder + frame/GOF tracking)
/// and a [`Subscription`](crate::Subscription) (writer, sequence space,
/// ARQ ring, stats): the stream header is written on construction, each
/// [`send_frame`](Self::send_frame) encodes once and emits one frame
/// chunk (flushing the transport at I-frames so resync points hit the
/// wire immediately), and [`finish`](Self::finish) seals the stream
/// with an end chunk. Broadcast fan-out composes one source with many
/// subscriptions instead (see the `pcc-serve` crate).
///
/// For whole-video sending with encode/transmit overlap, use
/// [`stream_video`].
#[derive(Debug)]
pub struct Sender<'d, W: Write> {
    source: crate::FrameSource<'d>,
    sub: crate::Subscription<W>,
    /// Receiver feedback slot; drained for recovery requests before each
    /// encode so an intra-refresh ask re-anchors at the next slot.
    feedback: Option<SharedStats>,
}

impl<'d, W: Write> Sender<'d, W> {
    /// Opens a session: writes and flushes the stream-header chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn new(
        codec: &PccCodec,
        depth: u8,
        device: &'d Device,
        writer: W,
        config: &StreamConfig,
    ) -> io::Result<Self> {
        let source = crate::FrameSource::new(codec, depth, device, config);
        let sub = crate::Subscription::attach(writer, &source.header())?;
        Ok(Sender { source, sub, feedback: None })
    }

    /// Voxelizes every frame in a common bounding box (see
    /// [`FrameEncoder::with_bounding_box`]).
    pub fn with_bounding_box(mut self, bb: Aabb) -> Self {
        self.source = self.source.with_bounding_box(bb);
        self
    }

    /// Parks every outgoing chunk (including the already-written stream
    /// header) in `ring` so an ARQ receiver holding a clone can NACK
    /// gaps against it. See [`crate::arq`].
    pub fn with_arq(mut self, ring: SharedRing) -> Self {
        self.sub = self.sub.with_arq(ring);
        self
    }

    /// Listens on the receiver's feedback slot for recovery requests: an
    /// [`RecoveryRequest::IntraRefresh`] published there (by a receiver
    /// built [`with_recovery`](Receiver::with_recovery) on the same
    /// [`SharedStats`] handle) makes the next
    /// [`send_frame`](Self::send_frame) re-anchor with an
    /// out-of-schedule I-frame.
    pub fn with_feedback(mut self, feedback: SharedStats) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Parks every brick-partitioned I-frame in `ring` so a receiver
    /// holding a clone can NACK individually damaged bricks (see
    /// [`Receiver::with_repair`]).
    pub fn with_repair(mut self, ring: SharedRepairRing) -> Self {
        self.source = self.source.with_repair(ring);
        self
    }

    /// Encodes and transmits the next frame, returning its coded kind.
    /// Pending recovery requests on the feedback slot are drained first,
    /// so a refresh ask published after the previous frame lands at this
    /// slot.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send_frame(&mut self, cloud: &PointCloud) -> io::Result<FrameKind> {
        if let Some(feedback) = &self.feedback {
            self.source.drain_refresh_asks(feedback);
        }
        let frame = self.source.encode_next(cloud);
        self.sub.record_encode(&frame);
        self.sub.send_payload(&frame)?;
        Ok(frame.kind)
    }

    /// Counters so far.
    pub fn stats(&self) -> &StreamStats {
        self.sub.stats()
    }

    /// Seals the stream with an end chunk and returns the transport.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn finish(self) -> io::Result<(W, StreamStats)> {
        let total = self.sub.stats().frames_sent as u32;
        self.sub.finish(total)
    }
}

/// Streams a whole video with the encode and transmit stages overlapped.
///
/// The encode thread drives a [`FrameEncoder`] (whose hot path fans out
/// across `pcc-parallel` threads) and hands coded frames through a
/// bounded [`queue`](pcc_parallel::queue) of `config.queue_depth` frames
/// to the transmit loop — when the wire is slower than the encoder, the
/// queue fills and encoding blocks instead of buffering the video. The
/// transport is flushed at every I-frame boundary.
///
/// The per-frame latency budget defaults to the video's frame period
/// (1000 / fps); frames whose modeled edge encode time exceeds it are
/// counted in [`StreamStats::frames_over_budget`].
///
/// # Errors
///
/// Propagates transport errors (encoding stops early when the transport
/// dies).
pub fn stream_video<W: Write>(
    codec: &PccCodec,
    video: &Video,
    depth: u8,
    device: &Device,
    writer: W,
    config: &StreamConfig,
) -> io::Result<(W, StreamStats)> {
    // The unsupervised path is the supervised one with every control
    // mechanism off — byte- and stats-identical to the historical
    // implementation (`tests/overload_soak.rs` pins this).
    crate::supervise::stream_video_supervised(
        codec,
        video,
        depth,
        device,
        writer,
        config,
        &mut crate::supervise::Supervisor::passthrough(),
    )
}

/// One frame delivered by a [`Receiver`].
#[derive(Debug, Clone)]
pub struct Delivered {
    /// Display index of the frame within the video.
    pub frame_index: usize,
    /// How the frame was coded.
    pub kind: FrameKind,
    /// The decoded world-space cloud.
    pub cloud: PointCloud,
    /// Modeled edge decode latency of this frame in milliseconds.
    pub modeled_decode_ms: f64,
    /// `Some((bricks_dropped, bricks_total))` when this is a *partial*
    /// frame: a damaged brick-partitioned I-frame whose surviving
    /// bricks were salvaged. The cloud is missing the dropped subtrees,
    /// and the session stays desynchronized until a clean I-frame
    /// arrives (a partial picture never anchors P-frames). `None` for
    /// fully decoded frames.
    pub partial: Option<(usize, usize)>,
}

/// Incremental, loss-resilient receiving session.
///
/// Pull frames with [`recv_frame`](Self::recv_frame); the receiver
/// consumes chunks as needed and holds only the decoded reference state,
/// never the whole video. Corrupt, stale, foreign, and undecodable
/// chunks are dropped; gaps that cross an I-frame desynchronize the
/// session until the next intact I-frame re-anchors it.
pub struct Receiver<'d, R: Read> {
    chunks: ChunkReader<R>,
    device: &'d Device,
    decoder: Option<FrameDecoder<'d>>,
    gof: GofPattern,
    stream_id: Option<u32>,
    depth: u8,
    design: Option<Design>,
    /// Index the next in-order frame chunk should carry.
    next_frame: usize,
    /// First frame index this receiver was meant to see. Frames below it
    /// were produced before the subscriber joined — never sent, not
    /// lost — and are excluded from loss accounting. Set by
    /// [`with_join_at`](Self::with_join_at) or by the extended stream
    /// header a broadcast writes for late joiners; 0 for from-the-start
    /// sessions.
    join_at: usize,
    /// Wire sequence number the next chunk should carry (ARQ gap
    /// detection).
    next_seq: u32,
    /// Recovered chunks waiting to be processed before the transport is
    /// read again.
    pending: VecDeque<Chunk>,
    /// Absolute transport offset of the current chunk's payload, passed
    /// to the demuxer so corruption reports are stream-absolute. Zero
    /// for ARQ-recovered or deferred chunks, whose bytes did not come
    /// from the primary transport position — their errors report
    /// frame-relative offsets (documented on
    /// [`Receiver::recv_frame`]).
    payload_offset: u64,
    arq: Option<ArqState>,
    /// Counter snapshots published to the sender side after every frame.
    feedback: Option<SharedStats>,
    /// Where brick-repair NACKs go: answers with the original
    /// `geometry ++ attribute` bytes of one damaged brick.
    repair: Option<Box<dyn RepairSource + Send>>,
    /// Recovery mode: publish intra-refresh requests when the reference
    /// breaks, and treat any counted gap as a potential lost anchor
    /// (out-of-schedule refresh I-frames make the static GOF cadence an
    /// unreliable oracle).
    recovery: bool,
    /// An intra-refresh request is in flight; suppresses duplicates
    /// until the session re-anchors.
    refresh_outstanding: bool,
    /// Live-transport mode: a chunk-less poll means "no data yet", not
    /// end of stream.
    streaming: bool,
    /// Whether the decoder holds the reference the next P-frame needs.
    synced: bool,
    /// Whether any frame has been lost since the last resync point.
    loss_since_sync: bool,
    done: bool,
    stats: StreamStats,
}

/// The receiver half of an ARQ session: where NACKs go, and the bounds
/// recovery runs under.
struct ArqState {
    source: Box<dyn Retransmit + Send>,
    config: ArqConfig,
    /// Timebase for retry backoff and the recovery deadline. The system
    /// clock in production; a [`FakeClock`](pcc_adapt::FakeClock) in
    /// timing tests, which makes the NACK/degrade sequence deterministic.
    clock: Arc<dyn Clock>,
}

impl std::fmt::Debug for ArqState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArqState").field("config", &self.config).finish_non_exhaustive()
    }
}

impl<'d, R: Read> std::fmt::Debug for Receiver<'d, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver")
            .field("stream_id", &self.stream_id)
            .field("design", &self.design)
            .field("next_frame", &self.next_frame)
            .field("next_seq", &self.next_seq)
            .field("arq", &self.arq)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'d, R: Read> Receiver<'d, R> {
    /// Opens a receiving session over a transport.
    pub fn new(reader: R, device: &'d Device) -> Self {
        Receiver {
            chunks: ChunkReader::new(reader),
            device,
            decoder: None,
            gof: GofPattern::all_intra(),
            stream_id: None,
            depth: 0,
            design: None,
            next_frame: 0,
            join_at: 0,
            next_seq: 0,
            pending: VecDeque::new(),
            payload_offset: 0,
            arq: None,
            feedback: None,
            repair: None,
            recovery: false,
            refresh_outstanding: false,
            streaming: false,
            synced: false,
            loss_since_sync: false,
            done: false,
            stats: StreamStats::default(),
        }
    }

    /// Enables ARQ: wire-sequence gaps are NACKed against `source`
    /// (typically a clone of the sender's [`SharedRing`]) under the
    /// bounds in `config`. Chunks that cannot be recovered fall back to
    /// the base skip-and-resync handling and are counted in
    /// [`StreamStats::arq_degraded`].
    pub fn with_arq<S: Retransmit + Send + 'static>(self, source: S, config: ArqConfig) -> Self {
        self.with_arq_clock(source, config, Arc::new(SystemClock::default()))
    }

    /// [`with_arq`](Self::with_arq) with an explicit timebase for retry
    /// backoff and the recovery deadline. Tests drive this with a
    /// [`FakeClock`](pcc_adapt::FakeClock) so ARQ timing decisions are
    /// deterministic and wall-clock-free.
    pub fn with_arq_clock<S: Retransmit + Send + 'static>(
        mut self,
        source: S,
        config: ArqConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        self.arq = Some(ArqState { source: Box::new(source), config, clock });
        self
    }

    /// Declares that this receiver joined the stream at display index
    /// `frame`: frames before it were produced before the subscription
    /// existed and must not be booked as loss. A broadcast replaying
    /// its resync cache announces the same fact in the extended stream
    /// header, so explicit use of this builder is only needed when the
    /// join point is known out of band; the larger of the two wins.
    pub fn with_join_at(mut self, frame: usize) -> Self {
        self.join_at = self.join_at.max(frame);
        self
    }

    /// Publishes the receiver's counters into `feedback` after every
    /// [`recv_frame`](Self::recv_frame), so a sender-side overload
    /// controller (see [`Supervisor`](crate::Supervisor)) can react to
    /// drops and ARQ degradation it observes.
    pub fn with_feedback(mut self, feedback: SharedStats) -> Self {
        self.feedback = Some(feedback);
        self
    }

    /// Enables receiver-driven recovery: when the reference picture
    /// breaks (a lost or undecodable I-frame, a gap that may have
    /// swallowed one), the receiver publishes
    /// [`RecoveryRequest::IntraRefresh`] into its feedback slot — at
    /// most one per desync episode — and the sender re-anchors with an
    /// out-of-schedule I-frame. Requires
    /// [`with_feedback`](Self::with_feedback); without a feedback slot
    /// the request has nowhere to go and recovery mode only tightens the
    /// desync rule.
    ///
    /// Recovery receivers treat *any* counted gap as a potential lost
    /// anchor: once refresh I-frames can appear at arbitrary slots, the
    /// static GOF cadence no longer proves a gap was P-only, so the
    /// session desynchronizes and re-anchors instead of guessing. Do not
    /// combine with senders that deliberately stride P-frames (shedding
    /// controllers) — every shed would read as loss.
    pub fn with_recovery(mut self) -> Self {
        self.recovery = true;
        self
    }

    /// Enables brick-level repair: when a brick-partitioned I-frame
    /// arrives with individually damaged bricks, each broken cell is
    /// NACKed against `source` (typically a clone of the sender's
    /// [`SharedRepairRing`]) and the retransmitted payload is CRC
    /// re-verified and spliced back in. A fully mended frame is
    /// delivered bit-exact and re-anchors the reference chain; a repair
    /// that cannot complete falls back to partial salvage.
    pub fn with_repair<S: RepairSource + Send + 'static>(mut self, source: S) -> Self {
        self.repair = Some(Box::new(source));
        self
    }

    /// Switches the session to live-transport semantics: a poll that
    /// finds no complete chunk returns `Ok(None)` *without* ending the
    /// session, and the session is over only when an end chunk arrives
    /// (check [`is_done`](Self::is_done)). Use this when the sender is
    /// still writing — an interleaved in-process pipe, a nonblocking
    /// socket — where "no bytes buffered" must not read as EOF.
    pub fn with_streaming(mut self) -> Self {
        self.chunks.set_streaming(true);
        self.streaming = true;
        self
    }

    /// Whether the session has ended: an end chunk arrived, or (in
    /// batch mode) the transport ran out of bytes.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the decoder currently holds the reference picture the
    /// next P-frame needs. `false` between a broken anchor and the next
    /// intact (or repaired) I-frame — the window a simulation harness
    /// checks re-anchoring invariants over.
    pub fn is_synced(&self) -> bool {
        self.synced
    }

    /// Whether a published intra-refresh ask is still unanswered (set
    /// when a recovery receiver publishes
    /// [`RecoveryRequest::IntraRefresh`], cleared when the session
    /// re-anchors). At most one ask is outstanding per desync episode.
    pub fn refresh_outstanding(&self) -> bool {
        self.refresh_outstanding
    }

    /// The stream's design, once the stream-header chunk has arrived.
    pub fn design(&self) -> Option<Design> {
        self.design
    }

    /// The stream's voxel-grid depth, once the header has arrived.
    pub fn depth(&self) -> Option<u8> {
        self.design.map(|_| self.depth)
    }

    /// Counters so far.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Consumes the session, returning its final counters.
    pub fn into_stats(self) -> StreamStats {
        self.stats
    }

    fn sync_chunk_counters(&mut self) {
        self.stats.bytes_received = self.chunks.bytes_read();
        self.stats.corrupt_events = self.chunks.corrupt_events() as usize;
    }

    /// Delivers the next decodable frame, or `None` at end of stream.
    ///
    /// Corruption and loss never surface as errors — they are dropped
    /// frames in [`stats`](Self::stats). Damaged brick-partitioned
    /// I-frames whose index survives are delivered *partially* instead
    /// (see [`Delivered::partial`]). Internally, demux errors carry
    /// stream-absolute byte offsets for chunks read straight from the
    /// transport; ARQ-recovered or deferred chunks fall back to
    /// frame-relative offsets (their bytes did not come from the
    /// transport's current position).
    ///
    /// # Errors
    ///
    /// Propagates transport errors only.
    pub fn recv_frame(&mut self) -> io::Result<Option<Delivered>> {
        let result = self.recv_frame_inner();
        if let Some(feedback) = &self.feedback {
            feedback.publish(&self.stats);
        }
        result
    }

    fn recv_frame_inner(&mut self) -> io::Result<Option<Delivered>> {
        if self.done {
            return Ok(None);
        }
        loop {
            let chunk = if let Some(recovered) = self.pending.pop_front() {
                // Recovered/deferred payloads were not read at the
                // transport's current position; their demux errors fall
                // back to frame-relative offsets.
                self.payload_offset = 0;
                recovered
            } else {
                let Some(chunk) = self.chunks.next_chunk()? else {
                    self.sync_chunk_counters();
                    if self.streaming {
                        // Live transport: no complete chunk buffered
                        // yet. The session ends only at an end chunk.
                        return Ok(None);
                    }
                    // Transport ended without an end chunk.
                    self.done = true;
                    return Ok(None);
                };
                self.sync_chunk_counters();
                self.payload_offset = self.chunks.last_payload_offset().unwrap_or(0);
                if self.arq.is_some() {
                    self.recover_seq_gap(&chunk);
                    if !self.pending.is_empty() {
                        // Process recovered chunks first, then this one.
                        self.pending.push_back(chunk);
                        continue;
                    }
                }
                chunk
            };
            self.note_seq(&chunk);
            match chunk.kind {
                ChunkKind::StreamHeader => self.handle_header(&chunk),
                ChunkKind::End => {
                    if self.stream_id.is_some_and(|id| id != chunk.stream_id) {
                        self.stats.chunks_dropped += 1;
                        continue;
                    }
                    self.handle_end(&chunk);
                    return Ok(None);
                }
                ChunkKind::Frame => {
                    if let Some(delivered) = self.handle_frame(chunk) {
                        return Ok(Some(delivered));
                    }
                }
            }
        }
    }

    /// Advances the expected wire sequence number past `chunk`.
    fn note_seq(&mut self, chunk: &Chunk) {
        if self.stream_id.is_none() || self.stream_id == Some(chunk.stream_id) {
            self.next_seq = self.next_seq.max(chunk.seq.saturating_add(1));
        }
    }

    /// NACKs the wire-sequence gap `next_seq..chunk.seq` (if any) against
    /// the ARQ source, queueing recovered chunks onto `pending` in seq
    /// order. Unrecoverable sequence numbers are counted as degraded and
    /// left to the frame-level skip-and-resync path.
    fn recover_seq_gap(&mut self, chunk: &Chunk) {
        let Some(arq) = self.arq.as_mut() else { return };
        if self.stream_id.is_some_and(|id| id != chunk.stream_id) {
            // Foreign-stream chunks say nothing about our gaps.
            return;
        }
        if chunk.seq <= self.next_seq {
            return;
        }
        let gap_start = arq.clock.now();
        let first_missing = self.next_seq;
        let gap = (chunk.seq - first_missing) as usize;
        // Only the newest `ring_chunks` sequence numbers can still be in
        // the sender's ring; NACKing older ones is wasted round trips.
        let reachable = gap.min(arq.config.ring_chunks);
        let aged_out = gap - reachable;
        if aged_out > 0 {
            self.stats.arq_degraded += aged_out;
            pcc_probe::add_count("stream/arq_degraded", aged_out as u64);
        }
        for seq in (chunk.seq - reachable as u32)..chunk.seq {
            let mut recovered = false;
            for attempt in 0..arq.config.retry_budget.max(1) {
                if attempt > 0 && arq.clock.now().saturating_sub(gap_start) >= arq.config.deadline {
                    // Deadline spent: degrade instead of stalling the
                    // playhead any longer.
                    break;
                }
                self.stats.arq_nacks += 1;
                pcc_probe::add_count("stream/arq_nack", 1);
                let candidate = arq.source.retransmit(seq).and_then(|b| decode_chunk(&b));
                if let Some(c) = candidate {
                    if c.seq == seq && c.stream_id == chunk.stream_id {
                        self.pending.push_back(c);
                        recovered = true;
                        self.stats.arq_recovered += 1;
                        pcc_probe::add_count("stream/arq_recovered", 1);
                        break;
                    }
                }
                if attempt + 1 < arq.config.retry_budget {
                    let backoff = arq.config.backoff_after(attempt);
                    if !backoff.is_zero() {
                        arq.clock.sleep(backoff);
                    }
                }
            }
            if !recovered {
                self.stats.arq_degraded += 1;
                pcc_probe::add_count("stream/arq_degraded", 1);
            }
        }
    }

    fn handle_header(&mut self, chunk: &Chunk) {
        if self.stream_id.is_some() {
            // Duplicate or foreign header.
            self.stats.chunks_dropped += 1;
            return;
        }
        let (version, design_byte, depth) = match chunk.payload.as_slice() {
            [v, d, depth, ..] => (*v, *d, *depth),
            _ => {
                self.stats.chunks_dropped += 1;
                return;
            }
        };
        let Some(design) = container::design_from_tag(design_byte) else {
            self.stats.chunks_dropped += 1;
            return;
        };
        if version != STREAM_VERSION {
            self.stats.chunks_dropped += 1;
            return;
        }
        let codec = PccCodec::new(design);
        self.decoder = Some(codec.frame_decoder(self.device));
        self.gof = design.gof_pattern();
        self.stream_id = Some(chunk.stream_id);
        self.design = Some(design);
        self.depth = depth;
        if let Some(bytes) = chunk.payload.get(3..7) {
            if let Ok(raw) = <[u8; 4]>::try_from(bytes) {
                // Extended header from a broadcast: the join point of a
                // late subscriber. An explicit `with_join_at` value wins
                // when larger (the application may know better).
                self.join_at = self.join_at.max(u32::from_le_bytes(raw) as usize);
            }
        }
    }

    fn handle_end(&mut self, chunk: &Chunk) {
        self.done = true;
        self.stats.clean_shutdown = true;
        if let Ok(total) = <[u8; 4]>::try_from(chunk.payload.as_slice()) {
            let total = u32::from_le_bytes(total) as usize;
            let baseline = self.loss_baseline(total);
            if total > baseline {
                // Frames lost at the very tail of the stream leave no
                // later chunk to reveal the gap; the end chunk does.
                self.stats.frames_dropped += total - baseline;
            }
        }
    }

    /// Where loss accounting starts for a gap that ends at `index`: the
    /// playhead, or the join point for frames that predate this
    /// receiver's subscription (never sent, so never lost).
    fn loss_baseline(&self, index: usize) -> usize {
        self.next_frame.max(self.join_at.min(index))
    }

    /// Processes one intact frame chunk; returns a frame when it decodes.
    fn handle_frame(&mut self, chunk: Chunk) -> Option<Delivered> {
        let Some(stream_id) = self.stream_id else {
            // No (usable) stream header arrived before this frame; with
            // the design unknown it can never be decoded. Track the
            // playhead anyway so the end chunk's tail accounting does
            // not count these frames twice.
            let index = chunk.frame_index as usize;
            if index < self.next_frame {
                self.stats.chunks_dropped += 1;
            } else {
                self.stats.frames_dropped += index - self.loss_baseline(index) + 1;
                self.next_frame = index + 1;
                self.loss_since_sync = true;
            }
            return None;
        };
        if chunk.stream_id != stream_id {
            self.stats.chunks_dropped += 1;
            return None;
        }
        let index = chunk.frame_index as usize;
        if index < self.next_frame {
            // Stale: duplicate or reordered behind the playhead.
            self.stats.chunks_dropped += 1;
            return None;
        }

        // A gap means the frames in between are gone. Losing P-frames
        // costs only themselves (they reference the GOF's I-frame, not
        // each other); losing an I-frame breaks the reference chain.
        // Frames below the join point were never sent to this receiver,
        // so they are skipped, not lost — but a skipped I-frame still
        // strands the reference chain, so the desync check runs over
        // the whole gap either way.
        let counted_gap = index - self.loss_baseline(index);
        if counted_gap > 0 {
            self.stats.frames_dropped += counted_gap;
            self.loss_since_sync = true;
        }
        let crossed_intra =
            index > self.next_frame && self.gof.range_contains_intra(self.next_frame..index);
        // With recovery on, any counted gap may have swallowed an
        // out-of-schedule refresh I-frame the GOF cadence knows nothing
        // about — desynchronize and re-anchor instead of guessing.
        if crossed_intra || (self.recovery && counted_gap > 0) {
            self.desync();
        }
        self.next_frame = index + 1;
        let Some(decoder) = self.decoder.as_mut() else {
            // Unreachable in practice (stream_id implies a parsed
            // header), but a hostile stream must get a dropped frame,
            // never a panic.
            return self.drop_frame(index);
        };
        decoder.skip_frames(index - decoder.next_index());

        let demux_sp = pcc_probe::span("stream/demux");
        let mut input = chunk.payload.as_slice();
        // Stream-absolute error offsets: the chunk layer knows where this
        // payload sat in the transport, so a corruption report points at
        // the broken byte of the *stream*, not of the frame.
        let demuxed = container::demux_frame(&mut input, self.payload_offset as usize);
        self.stats.add_stage_ns("stream/demux", demux_sp.stop());
        let frame = match demuxed {
            Ok(frame) if input.is_empty() => frame,
            // CRC-intact but unparseable payload (a sender bug or a
            // 2^-32 CRC fluke): treat as a lost frame.
            _ => return self.drop_frame(index),
        };

        let kind = frame.kind();
        if kind == FrameKind::Predicted && !self.synced {
            // This frame's I-frame never made it; decoding against the
            // previous group's reference would show the wrong picture.
            return self.drop_frame(index);
        }
        let Some(decoder) = self.decoder.as_mut() else {
            return self.drop_frame(index);
        };
        let decode_sp = pcc_probe::span("stream/decode");
        let decoded = decoder.decode_frame(&frame);
        self.stats.add_stage_ns("stream/decode", decode_sp.stop());
        match decoded {
            Ok((cloud, timeline)) => {
                if kind == FrameKind::Intra {
                    if !self.synced {
                        if self.loss_since_sync {
                            self.stats.resyncs += 1;
                        }
                        self.synced = true;
                        self.loss_since_sync = false;
                    }
                    // Any intact anchor satisfies an in-flight refresh
                    // request.
                    self.refresh_outstanding = false;
                }
                self.stats.frames_delivered += 1;
                Some(Delivered {
                    frame_index: index,
                    kind,
                    cloud,
                    modeled_decode_ms: timeline.total_modeled_ms().as_f64(),
                    partial: None,
                })
            }
            Err(_) => {
                if kind == FrameKind::Intra {
                    // Brick-level repair first: NACK the damaged cells
                    // and, if every one comes back verified, deliver the
                    // frame bit-exact — it re-anchors like a clean
                    // I-frame, so no desync and no refresh request.
                    if let Some(delivered) = self.try_repair(index, &frame) {
                        return Some(delivered);
                    }
                }
                // The decoder consumed the frame slot but produced
                // nothing whole; its reference state is questionable
                // either way, so the session desynchronizes until the
                // next clean I-frame.
                self.desync();
                self.loss_since_sync = true;
                if kind == FrameKind::Intra {
                    // Brick-partitioned I-frames carry per-brick CRCs:
                    // salvage the surviving subtrees and deliver a
                    // partial picture instead of losing the frame.
                    if let Some(s) =
                        self.decoder.as_ref().and_then(|d| d.salvage_intra(&frame))
                    {
                        self.stats.partial_frames += 1;
                        self.stats.bricks_dropped += s.bricks_dropped;
                        self.stats.frames_delivered += 1;
                        return Some(Delivered {
                            frame_index: index,
                            kind,
                            cloud: s.cloud,
                            modeled_decode_ms: s.timeline.total_modeled_ms().as_f64(),
                            partial: Some((s.bricks_dropped, s.bricks_total)),
                        });
                    }
                }
                self.stats.frames_dropped += 1;
                None
            }
        }
    }

    /// Attempts brick-level repair of a damaged intra frame (see
    /// [`with_repair`](Self::with_repair)); `None` leaves the session
    /// exactly as the failed decode left it.
    fn try_repair(&mut self, index: usize, frame: &EncodedFrame) -> Option<Delivered> {
        let repair = self.repair.as_mut()?;
        let decoder = self.decoder.as_mut()?;
        let mut nacks = 0usize;
        let frame_index = index as u32;
        let outcome = decoder.repair_intra(frame, &mut |cell| {
            nacks += 1;
            repair.repair(&RecoveryRequest::BrickRepair { frame_index, cell })
        });
        self.stats.brick_nacks += nacks;
        pcc_probe::add_count("stream/brick_nack", nacks as u64);
        match outcome {
            Some(r) => {
                self.stats.frames_repaired += 1;
                self.stats.bricks_repaired += r.bricks_repaired;
                if !self.synced {
                    if self.loss_since_sync {
                        self.stats.resyncs += 1;
                    }
                    self.synced = true;
                    self.loss_since_sync = false;
                }
                self.refresh_outstanding = false;
                self.stats.frames_delivered += 1;
                Some(Delivered {
                    frame_index: index,
                    kind: FrameKind::Intra,
                    cloud: r.cloud,
                    modeled_decode_ms: r.timeline.total_modeled_ms().as_f64(),
                    partial: None,
                })
            }
            None => {
                if nacks > 0 {
                    // Damage was found and NACKed but the frame could
                    // not be made whole (ring aged out, bytes failed
                    // re-verification); fall back to partial salvage.
                    self.stats.repairs_failed += 1;
                }
                None
            }
        }
    }

    fn drop_frame(&mut self, index: usize) -> Option<Delivered> {
        self.stats.frames_dropped += 1;
        self.loss_since_sync = true;
        // In recovery mode any dropped frame may have been an
        // out-of-schedule anchor, so the conservative move is always to
        // re-anchor; otherwise the static cadence decides.
        if self.recovery || self.gof.kind_of(index) == FrameKind::Intra {
            self.desync();
        }
        if let Some(decoder) = self.decoder.as_mut() {
            decoder.skip_frames(1);
        }
        None
    }

    fn desync(&mut self) {
        self.synced = false;
        if let Some(decoder) = self.decoder.as_mut() {
            decoder.invalidate_reference();
        }
        if self.recovery && !self.refresh_outstanding {
            if let Some(feedback) = &self.feedback {
                feedback.push_recovery(RecoveryRequest::IntraRefresh {
                    at_frame: self.next_frame as u32,
                });
                self.stats.refresh_requests += 1;
                self.refresh_outstanding = true;
            }
        }
    }
}
