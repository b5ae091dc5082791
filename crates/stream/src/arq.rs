//! Bounded retransmission (ARQ) for lossy transports.
//!
//! The base session layer is purely feed-forward: a lost chunk is a lost
//! frame, and a lost I-frame costs its whole group. When the deployment
//! has *some* back channel — even a simulated one — a sender can park
//! recently sent chunks in a bounded [`SharedRing`] and a receiver can
//! NACK sequence gaps against it ([`Receiver::with_arq`]):
//!
//! ```text
//!   sender ──chunks──▶ lossy transport ──▶ receiver
//!     │                                       │ seq gap detected
//!     └────── SharedRing ◀─────── NACK(seq) ──┘
//!                │
//!                └──── re-stamped chunk ──▶ pending queue
//! ```
//!
//! The ring retains frames by reference: each entry is the chunk's
//! sequence number plus the shared, refcounted frame record
//! ([`FramePayload`]) it carried, and the 26-byte chunk header is
//! re-stamped around that record (with its stored CRC) only when a NACK
//! asks for it. Retained bytes are therefore flat in subscriber count: N
//! subscribers' rings point at the same N-times-shared records.
//!
//! Recovery is bounded on every axis so a hostile or dead link can never
//! wedge the session: the ring holds the last `ring_chunks` sent chunks
//! (older gaps are immediately *degraded*), each missing sequence number
//! gets at most `retry_budget` NACKs with exponential backoff between
//! attempts, and a per-gap `deadline` cuts retries off entirely.
//! Whatever stays missing falls back to the base skip-and-resync
//! behavior and is counted in
//! [`StreamStats::arq_degraded`](crate::StreamStats::arq_degraded).
//!
//! [`Receiver::with_arq`]: crate::Receiver::with_arq

use crate::chunk::{encode_chunk_parts, ChunkKind};
use crate::source::FramePayload;
use crate::window::Window;
use std::time::Duration;

/// A source the receiver can pull lost chunks back out of.
///
/// `retransmit` is the NACK: the receiver names the sequence number it
/// is missing and gets the encoded chunk bytes back, or `None` when the
/// source no longer has them (aged out of the ring, or the simulated
/// back channel lost the retransmission too).
pub trait Retransmit {
    /// Requests the encoded bytes of the chunk with wire sequence `seq`.
    fn retransmit(&mut self, seq: u32) -> Option<Vec<u8>>;
}

/// One parked chunk, enough to reproduce its exact wire image.
#[derive(Debug)]
enum Parked {
    /// A stream-header or end chunk: a few dozen bytes, kept as sent.
    Control(Vec<u8>),
    /// A frame chunk: the shared record, re-stamped on demand.
    Frame { stream_id: u32, frame: FramePayload },
}

/// A cloneable, thread-safe ring of the most recently sent chunks.
///
/// The sender half parks every chunk as it hits the wire
/// ([`Sender::with_arq`](crate::Sender::with_arq),
/// [`Subscription::with_arq`](crate::Subscription::with_arq)); a clone
/// handed to the receiver serves its NACKs. Capacity is in chunks;
/// parking past it evicts the oldest entry, so memory stays proportional
/// to the configured window no matter how long the session runs. Frame
/// chunks are held by reference to their shared record (see the module
/// docs).
#[derive(Debug, Clone)]
pub struct SharedRing(Window<(u32, Parked)>);

impl SharedRing {
    /// Creates a shared ring holding at most `capacity` chunks
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SharedRing(Window::new(capacity))
    }

    /// Parks a control chunk (stream header or end) by its wire image.
    pub(crate) fn park_control(&self, seq: u32, bytes: Vec<u8>) {
        self.0.push((seq, Parked::Control(bytes)));
    }

    /// Parks frame chunk `seq` by reference to its shared record.
    pub(crate) fn park_frame(&self, stream_id: u32, seq: u32, frame: &FramePayload) {
        self.0.push((seq, Parked::Frame { stream_id, frame: frame.clone() }));
    }

    /// Maximum chunks the ring holds.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

impl Retransmit for SharedRing {
    fn retransmit(&mut self, seq: u32) -> Option<Vec<u8>> {
        self.0.find_map(|(s, parked)| {
            (*s == seq).then(|| match parked {
                Parked::Control(bytes) => bytes.clone(),
                Parked::Frame { stream_id, frame } => encode_chunk_parts(
                    ChunkKind::Frame,
                    Some(frame.kind),
                    *stream_id,
                    seq,
                    frame.frame_index,
                    &frame.payload,
                    frame.payload_crc,
                ),
            })
        })
    }
}

/// Recovery bounds for an ARQ-enabled receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArqConfig {
    /// Window (in chunks) the sender's ring is assumed to hold; gaps
    /// older than this behind the newest received chunk are degraded
    /// without being NACKed.
    pub ring_chunks: usize,
    /// NACK attempts per missing sequence number before giving up.
    pub retry_budget: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub backoff_base: Duration,
    /// Ceiling on the per-attempt backoff.
    pub backoff_cap: Duration,
    /// Wall-clock budget for recovering one gap. Once it has passed,
    /// every still-missing sequence number gets exactly one more attempt
    /// (never zero — a single NACK is cheaper than a resync) and the
    /// rest of the budget is forfeited: graceful degradation to
    /// skip-and-resync.
    pub deadline: Duration,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            ring_chunks: 64,
            retry_budget: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            deadline: Duration::from_millis(200),
        }
    }
}

impl ArqConfig {
    /// The backoff to sleep after failed attempt number `attempt`
    /// (0-based): `backoff_base << attempt`, capped at `backoff_cap`.
    pub fn backoff_after(&self, attempt: u32) -> Duration {
        let shifted = self
            .backoff_base
            .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .unwrap_or(self.backoff_cap);
        shifted.min(self.backoff_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_restamps_parked_frames_and_evicts_oldest() {
        let mut ring = SharedRing::new(3);
        let reader = ring.clone();
        let header = vec![9u8; 4];
        reader.park_control(0, header.clone());
        let frames: Vec<FramePayload> = (1..5u32)
            .map(|i| FramePayload::from_bytes(i, pcc_types::FrameKind::Predicted, vec![i as u8; 8]))
            .collect();
        for (seq, frame) in (1..5u32).zip(&frames) {
            reader.park_frame(7, seq, frame);
        }
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.retransmit(0), None, "oldest must age out");
        assert_eq!(ring.retransmit(1), None);
        for (seq, frame) in (2..5u32).zip(&frames[1..]) {
            let want = encode_chunk_parts(
                ChunkKind::Frame,
                Some(frame.kind),
                7,
                seq,
                frame.frame_index,
                &frame.payload,
                frame.payload_crc,
            );
            assert_eq!(ring.retransmit(seq), Some(want));
        }
        let mut control = SharedRing::new(2);
        control.park_control(0, header.clone());
        assert_eq!(control.retransmit(0), Some(header));
        assert_eq!(control.retransmit(1), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = ArqConfig {
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            ..ArqConfig::default()
        };
        assert_eq!(cfg.backoff_after(0), Duration::from_millis(2));
        assert_eq!(cfg.backoff_after(1), Duration::from_millis(4));
        assert_eq!(cfg.backoff_after(2), Duration::from_millis(8));
        assert_eq!(cfg.backoff_after(3), Duration::from_millis(10));
        assert_eq!(cfg.backoff_after(200), Duration::from_millis(10));
    }
}
