//! The recovery plane: receiver-driven repair requests and the sender's
//! bounded brick repair ring.
//!
//! The stream layer already degrades gracefully — ARQ re-fetches lost
//! chunks, damaged brick frames deliver partially, a broken reference
//! desynchronizes until the next scheduled I-frame — but nothing here
//! *recovers* proactively. This module adds the two missing verbs:
//!
//! * [`RecoveryRequest::IntraRefresh`] — a receiver whose reference
//!   picture is broken (lost or orphaned I-frame, drift past a group)
//!   publishes a refresh request over the existing feedback channel
//!   ([`SharedStats`](crate::SharedStats)); the sender re-anchors with an
//!   out-of-schedule I-frame at the next slot instead of letting the
//!   receiver wait out the rest of the group. This is the PLI/FIR idiom
//!   of mature video transports.
//! * [`RecoveryRequest::BrickRepair`] — a receiver holding a damaged
//!   brick-partitioned I-frame NACKs the specific damaged cells; a
//!   [`RepairSource`] answers with the original `geometry ++ attribute`
//!   payload of just that brick, re-verified against the frame's own
//!   index CRC before it is spliced back in. The sender side keeps a
//!   bounded per-GOF [`SharedRepairRing`] of recent brick I-frames to
//!   answer from. It parks each frame's shared wire record by reference
//!   (the same refcounted bytes the subscribers' ARQ rings and the
//!   broadcast's resync cache hold) plus its parsed brick index, and
//!   slices a brick's bytes out of the record only when a NACK asks.

use crate::source::FramePayload;
use crate::window::Window;
use pcc_core::{container, BrickIndex};
use pcc_types::Limits;

/// A repair verb a receiver publishes toward its sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRequest {
    /// The receiver's reference picture is broken: please re-anchor with
    /// an out-of-schedule I-frame at the next frame slot.
    IntraRefresh {
        /// The next frame index the receiver expects — the earliest slot
        /// the refresh could land on (diagnostic; the sender re-anchors
        /// at its own next slot regardless).
        at_frame: u32,
    },
    /// One brick of a delivered-but-damaged intra frame failed its CRC:
    /// please retransmit that brick's payload bytes.
    BrickRepair {
        /// Stream-order index of the damaged frame.
        frame_index: u32,
        /// Morton cell id of the damaged brick (the key the frame's own
        /// brick index files payload ranges under).
        cell: u64,
    },
}

/// Answers brick NACKs with original payload bytes.
///
/// The synchronous mirror of [`Retransmit`](crate::Retransmit): the
/// receiver calls [`repair`](Self::repair) inline while it still holds
/// the damaged frame, and a `Some` answer is spliced back in after CRC
/// re-verification. Implementations answer
/// [`RecoveryRequest::BrickRepair`] with the brick's
/// `geometry ++ attribute` bytes exactly as encoded; other requests
/// return `None`.
pub trait RepairSource {
    /// Returns the retransmitted payload for `request`, or `None` when
    /// the request cannot be served (aged out of the ring, unknown frame
    /// or cell, or not a brick repair at all).
    fn repair(&mut self, request: &RecoveryRequest) -> Option<Vec<u8>>;
}

/// One parked brick I-frame: the shared wire record plus the parsed
/// index that maps cells to byte ranges within its payloads.
#[derive(Debug)]
struct ParkedFrame {
    frame: FramePayload,
    index: BrickIndex,
}

impl ParkedFrame {
    /// The `geometry ++ attribute` bytes of brick `cell`, if indexed.
    fn brick(&self, cell: u64) -> Option<Vec<u8>> {
        let entry = self.index.entries().iter().find(|e| e.cell == cell)?;
        let (geometry, attribute) = container::intra_payloads(&self.frame.payload)?;
        let geom = geometry.get(entry.geom.clone())?;
        let attr = attribute.get(entry.attr.clone())?;
        Some([geom, attr].concat())
    }
}

/// A clonable, thread-safe, bounded ring of recent brick-partitioned
/// I-frames the sender can answer [`RecoveryRequest::BrickRepair`] NACKs
/// from.
///
/// The sender half ([`FrameSource::with_repair`](crate::FrameSource::with_repair))
/// parks frames through one clone
/// while every receiver NACKs through its own — the same sharing shape
/// as [`SharedRing`](crate::SharedRing) for ARQ. Capacity is counted in
/// frames; one or two is enough for the per-GOF repair window (P-frames
/// reference only their group's I-frame, so a brick NACK always targets
/// the current or previous anchor). Parking a frame takes a reference to
/// its record and parses its brick index once, so answering a NACK is a
/// range lookup plus a copy of one brick — no re-encode, no re-parse.
#[derive(Debug, Clone)]
pub struct SharedRepairRing(Window<ParkedFrame>);

impl SharedRepairRing {
    /// Creates a shared ring keeping the last `capacity` brick I-frames
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SharedRepairRing(Window::new(capacity))
    }

    /// Parks an encoded frame if it is a brick-partitioned intra frame;
    /// anything else (monolithic intra, P-frames, baselines) is ignored.
    /// The oldest parked frame is evicted once the ring is full.
    pub fn park(&self, frame: &FramePayload) {
        let Some((geometry, _)) = container::intra_payloads(&frame.payload) else { return };
        if !BrickIndex::detect(geometry) {
            return;
        }
        // The sender parses its own just-encoded bytes: default limits
        // are exactly the regime those bytes were produced under.
        let Ok(index) = BrickIndex::parse(geometry, &Limits::default()) else { return };
        self.0.push(ParkedFrame { frame: frame.clone(), index });
    }

    /// Number of frames currently parked.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the ring holds no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl RepairSource for SharedRepairRing {
    fn repair(&mut self, request: &RecoveryRequest) -> Option<Vec<u8>> {
        let RecoveryRequest::BrickRepair { frame_index, cell } = request else {
            return None;
        };
        // Newest first: a re-anchored session can park a refresh I-frame
        // with the same index as a still-parked predecessor.
        self.0
            .find_map(|p| (p.frame.frame_index == *frame_index).then(|| p.brick(*cell)))
            .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcc_core::{Design, EncodedFrame, PccCodec};
    use pcc_datasets::catalog;
    use pcc_edge::{Device, PowerMode};
    use pcc_inter::InterConfig;
    use pcc_types::crc::crc32;

    fn brick_frame() -> EncodedFrame {
        let video = catalog::by_name("Loot").unwrap().generate_scaled(1, 1_500);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let mut cfg = InterConfig::default();
        cfg.intra.brick_depth = 2;
        let codec = PccCodec::with_inter_config(cfg);
        let mut enc = codec.frame_encoder(7, &device);
        let (frame, _) = enc.encode_frame(&video.frame(0).unwrap().cloud);
        frame
    }

    /// The shared wire record a source would park for `frame`.
    fn record(frame_index: u32, frame: &EncodedFrame) -> FramePayload {
        let mut bytes = Vec::new();
        container::mux_frame(&mut bytes, frame);
        FramePayload::from_bytes(frame_index, frame.kind(), bytes)
    }

    #[test]
    fn ring_answers_nacks_with_crc_exact_payloads() {
        let frame = brick_frame();
        let EncodedFrame::Intra(f) = &frame else { panic!("expected intra") };
        let index = BrickIndex::parse(&f.geometry, &Limits::default()).unwrap();
        assert!(!index.entries().is_empty());

        let mut ring = SharedRepairRing::new(2);
        ring.park(&record(4, &frame));
        for entry in index.entries() {
            let bytes = ring
                .repair(&RecoveryRequest::BrickRepair { frame_index: 4, cell: entry.cell })
                .expect("parked brick must be servable");
            assert_eq!(bytes.len(), entry.geom.len() + entry.attr.len());
            assert_eq!(crc32(&bytes), entry.crc, "ring payload must match the index CRC");
        }
    }

    #[test]
    fn ring_misses_unknown_frames_cells_and_aged_out_entries() {
        let frame = brick_frame();
        let mut ring = SharedRepairRing::new(1);
        ring.park(&record(0, &frame));
        assert!(ring
            .repair(&RecoveryRequest::BrickRepair { frame_index: 9, cell: 0 })
            .is_none());
        assert!(ring
            .repair(&RecoveryRequest::BrickRepair { frame_index: 0, cell: u64::MAX })
            .is_none());
        assert!(ring.repair(&RecoveryRequest::IntraRefresh { at_frame: 0 }).is_none());
        // Capacity 1: parking a second frame evicts the first.
        ring.park(&record(3, &frame));
        assert_eq!(ring.len(), 1);
        assert!(ring
            .repair(&RecoveryRequest::BrickRepair { frame_index: 0, cell: 0 })
            .is_none());
    }

    #[test]
    fn non_brick_frames_are_never_parked() {
        let video = catalog::by_name("Loot").unwrap().generate_scaled(1, 800);
        let device = Device::jetson_agx_xavier(PowerMode::W15);
        let codec = PccCodec::new(Design::IntraInterV1);
        let mut enc = codec.frame_encoder(7, &device);
        let (frame, _) = enc.encode_frame(&video.frame(0).unwrap().cloud);
        let ring = SharedRepairRing::new(4);
        ring.park(&record(0, &frame));
        assert!(ring.is_empty(), "monolithic intra frames carry no brick index");
    }
}
