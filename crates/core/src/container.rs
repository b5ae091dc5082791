//! A byte-level container for encoded videos.
//!
//! [`EncodedVideo`] values live in memory; to store or transmit a coded
//! stream, the container frames every payload with lengths and tags:
//!
//! ```text
//! magic "PCCV" | version u8 | design u8 | depth u8 | varint frame count
//! per frame: tag u8 | varint geometry len | geometry bytes
//!                   | varint attribute len | attribute bytes
//!                   | frame metadata (per tag)
//! ```
//!
//! The per-frame record is exposed on its own through [`mux_frame`] /
//! [`demux_frame`], so transports that frame each coded picture
//! separately (the `pcc-stream` chunked wire format) share one byte
//! layout with the monolithic `.pccv` file: a frame extracted from a
//! live chunk is bit-identical to the same frame inside a container.
//!
//! Timelines are measurement artifacts and are deliberately *not* stored;
//! a demuxed video carries empty timelines.

use crate::codec::{EncodedFrame, EncodedVideo};
use crate::design::Design;
use pcc_baseline::{CwipcFrame, Tmc13Frame};
use pcc_inter::{InterEncoded, ReuseStats};
use pcc_intra::IntraFrame;
use pcc_entropy::varint;
use pcc_types::{LimitExceeded, Limits};
use std::fmt;

const MAGIC: &[u8; 4] = b"PCCV";
const VERSION: u8 = 1;

/// Errors produced while demuxing a container.
///
/// Parse failures carry the byte offset (relative to the start of the
/// stream handed to the demuxer) at which the field that broke begins,
/// so corruption reports say *where* the stream went bad.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ContainerError {
    /// The stream does not start with the `PCCV` magic.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u8),
    /// Unknown design or frame tag byte.
    BadTag {
        /// The offending tag byte.
        tag: u8,
        /// Byte offset of the tag within the stream.
        offset: usize,
    },
    /// The stream ended prematurely.
    Truncated {
        /// Byte offset of the field the stream ended inside of.
        offset: usize,
    },
    /// A wire-declared size exceeds the demuxer's resource [`Limits`].
    LimitExceeded(LimitExceeded),
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not a pcc container (bad magic)"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::BadTag { tag, offset } => {
                write!(f, "unknown tag byte {tag:#04x} at offset {offset}")
            }
            ContainerError::Truncated { offset } => {
                write!(f, "container ended prematurely at offset {offset}")
            }
            ContainerError::LimitExceeded(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<LimitExceeded> for ContainerError {
    fn from(e: LimitExceeded) -> Self {
        ContainerError::LimitExceeded(e)
    }
}

impl From<ContainerError> for pcc_types::DecodeError {
    fn from(e: ContainerError) -> Self {
        match e {
            ContainerError::BadMagic => pcc_types::DecodeError::BadMagic { offset: 0 },
            ContainerError::BadVersion(v) => pcc_types::DecodeError::BadVersion { version: v },
            ContainerError::BadTag { tag, offset } => {
                pcc_types::DecodeError::BadTag { tag, offset }
            }
            ContainerError::Truncated { offset } => pcc_types::DecodeError::Truncated { offset },
            ContainerError::LimitExceeded(l) => pcc_types::DecodeError::Limit(l),
        }
    }
}

/// A byte cursor that remembers its absolute position in the enclosing
/// stream, so every parse error reports where the stream broke.
struct Cursor<'a> {
    input: &'a [u8],
    offset: usize,
}

impl<'a> Cursor<'a> {
    fn new(input: &'a [u8], offset: usize) -> Self {
        Cursor { input, offset }
    }

    fn take_byte(&mut self) -> Result<u8, ContainerError> {
        let (&b, rest) = self
            .input
            .split_first()
            .ok_or(ContainerError::Truncated { offset: self.offset })?;
        self.input = rest;
        self.offset += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let (head, rest) = self
            .input
            .split_at_checked(n)
            .ok_or(ContainerError::Truncated { offset: self.offset })?;
        self.input = rest;
        self.offset += n;
        Ok(head)
    }

    fn read_varint(&mut self) -> Result<u64, ContainerError> {
        let before = self.input.len();
        let v = varint::read_u64(&mut self.input)
            .map_err(|_| ContainerError::Truncated { offset: self.offset })?;
        self.offset += before - self.input.len();
        Ok(v)
    }
}

/// Serializes an encoded video into a self-contained byte stream.
///
/// # Examples
///
/// ```
/// use pcc_core::{container, Design, PccCodec};
/// use pcc_datasets::catalog;
/// use pcc_edge::{Device, PowerMode};
///
/// let video = catalog::by_name("Loot").unwrap().generate_scaled(2, 500);
/// let device = Device::jetson_agx_xavier(PowerMode::W15);
/// let codec = PccCodec::new(Design::IntraOnly);
/// let encoded = codec.encode_video(&video, 6, &device);
///
/// let bytes = container::mux(&encoded);
/// let back = container::demux(&bytes)?;
/// assert_eq!(back.frames.len(), 2);
/// assert_eq!(back.depth, 6);
/// # Ok::<(), pcc_core::container::ContainerError>(())
/// ```
pub fn mux(video: &EncodedVideo) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(design_tag(video.design));
    out.push(video.depth);
    varint::write_u64(&mut out, video.frames.len() as u64);
    for frame in &video.frames {
        mux_frame(&mut out, frame);
    }
    out
}

/// Upper bound on a frame record's bytes beyond its two payloads: the
/// tag byte plus at most six varints of at most ten bytes each.
const MAX_RECORD_OVERHEAD: usize = 1 + 6 * 10;

/// Appends one frame record (tag, payloads, metadata) to `out`.
///
/// This is exactly the per-frame byte layout of [`mux`]; a container is
/// the header followed by `mux_frame` records back to back. Transports
/// that deliver frames individually (chunked streaming) use this
/// directly. Room for the whole record is reserved up front, so a record
/// muxed into an empty `Vec` is one allocation with at most a few dozen
/// bytes of spare capacity — the buffer can be retained as is.
pub fn mux_frame(out: &mut Vec<u8>, frame: &EncodedFrame) {
    out.reserve(frame.size().total_bytes() + MAX_RECORD_OVERHEAD);
    match frame {
        EncodedFrame::Tmc13(f) => {
            out.push(0x01);
            write_payloads(out, &f.geometry, &f.attribute);
            varint::write_u64(out, f.unique_voxels as u64);
            varint::write_u64(out, f.raw_points as u64);
        }
        EncodedFrame::Cwipc(f) => {
            out.push(if f.predicted { 0x03 } else { 0x02 });
            write_payloads(out, &f.geometry, &f.attribute);
            varint::write_u64(out, f.unique_voxels as u64);
            varint::write_u64(out, f.raw_points as u64);
            varint::write_u64(out, f.matched_blocks as u64);
            varint::write_u64(out, f.total_blocks as u64);
        }
        EncodedFrame::Intra(f) => {
            out.push(0x04);
            write_payloads(out, &f.geometry, &f.attribute);
            varint::write_u64(out, f.unique_voxels as u64);
            varint::write_u64(out, f.raw_points as u64);
        }
        EncodedFrame::Inter(f) => {
            out.push(0x05);
            write_payloads(out, &f.frame.geometry, &f.frame.attribute);
            varint::write_u64(out, f.frame.unique_voxels as u64);
            varint::write_u64(out, f.frame.raw_points as u64);
            varint::write_u64(out, f.stats.reused as u64);
            varint::write_u64(out, f.stats.delta as u64);
        }
    }
}

/// Parses one frame record produced by [`mux_frame`], advancing `input`
/// past it.
///
/// `stream_offset` is the absolute position of `input[0]` in the
/// enclosing stream; it only affects the offsets reported in errors
/// (pass 0 when the slice holds a standalone frame).
///
/// # Errors
///
/// Returns a [`ContainerError`] on malformed input.
pub fn demux_frame(
    input: &mut &[u8],
    stream_offset: usize,
) -> Result<EncodedFrame, ContainerError> {
    demux_frame_with(input, stream_offset, &Limits::default())
}

/// [`demux_frame`] under explicit resource [`Limits`]: wire-declared
/// payload lengths and voxel counts are bounded before they drive
/// allocations.
///
/// # Errors
///
/// Returns a [`ContainerError`] on malformed input or an exceeded limit.
pub fn demux_frame_with(
    input: &mut &[u8],
    stream_offset: usize,
    limits: &Limits,
) -> Result<EncodedFrame, ContainerError> {
    let mut cursor = Cursor::new(input, stream_offset);
    let frame = demux_frame_at(&mut cursor, limits)?;
    *input = cursor.input;
    Ok(frame)
}

fn demux_frame_at(
    cursor: &mut Cursor<'_>,
    limits: &Limits,
) -> Result<EncodedFrame, ContainerError> {
    let tag_offset = cursor.offset;
    let tag = cursor.take_byte()?;
    let (geometry, attribute) = read_payloads(cursor, limits)?;
    let (geometry, attribute) = (geometry.to_vec(), attribute.to_vec());
    let unique_voxels = cursor.read_varint()? as usize;
    limits.check_points(unique_voxels as u64)?;
    let raw_points = cursor.read_varint()? as usize;
    limits.check_points(raw_points as u64)?;
    Ok(match tag {
        0x01 => EncodedFrame::Tmc13(Tmc13Frame {
            geometry,
            attribute,
            unique_voxels,
            raw_points,
        }),
        0x02 | 0x03 => {
            let matched_blocks = cursor.read_varint()? as usize;
            let total_blocks = cursor.read_varint()? as usize;
            EncodedFrame::Cwipc(CwipcFrame {
                geometry,
                attribute,
                predicted: tag == 0x03,
                unique_voxels,
                raw_points,
                matched_blocks,
                total_blocks,
            })
        }
        0x04 => EncodedFrame::Intra(IntraFrame {
            geometry,
            attribute,
            unique_voxels,
            raw_points,
        }),
        0x05 => {
            let reused = cursor.read_varint()? as usize;
            let delta = cursor.read_varint()? as usize;
            EncodedFrame::Inter(InterEncoded {
                frame: IntraFrame { geometry, attribute, unique_voxels, raw_points },
                stats: ReuseStats { reused, delta },
            })
        }
        other => return Err(ContainerError::BadTag { tag: other, offset: tag_offset }),
    })
}

/// The geometry and attribute payloads of an intra-coded frame record
/// (an [`EncodedFrame::Intra`] muxed by [`mux_frame`]), borrowed from
/// the record without copying. `None` for any other frame kind and for
/// malformed records.
///
/// Holders of a muxed record use this to reach the coded payloads — for
/// example to slice one brick out of a retained brick-partitioned
/// I-frame — without knowing the record layout.
pub fn intra_payloads(record: &[u8]) -> Option<(&[u8], &[u8])> {
    let mut cursor = Cursor::new(record, 0);
    if cursor.take_byte().ok()? != 0x04 {
        return None;
    }
    read_payloads(&mut cursor, &Limits::default()).ok()
}

/// Parses a container produced by [`mux`].
///
/// # Errors
///
/// Returns a [`ContainerError`] on malformed input.
pub fn demux(bytes: &[u8]) -> Result<EncodedVideo, ContainerError> {
    demux_with(bytes, &Limits::default())
}

/// [`demux`] under explicit resource [`Limits`]: the frame count, every
/// payload length, and every wire-declared voxel count are bounded
/// before they drive allocations, and the grid depth is checked against
/// the limit ceiling.
///
/// # Errors
///
/// Returns a [`ContainerError`] on malformed input or an exceeded limit.
pub fn demux_with(bytes: &[u8], limits: &Limits) -> Result<EncodedVideo, ContainerError> {
    let mut cursor = Cursor::new(bytes, 0);
    let magic = cursor.take(4)?;
    if magic != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = cursor.take_byte()?;
    if version != VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let design_offset = cursor.offset;
    let design_byte = cursor.take_byte()?;
    let design = design_from_tag(design_byte)
        .ok_or(ContainerError::BadTag { tag: design_byte, offset: design_offset })?;
    let depth = cursor.take_byte()?;
    limits.check_depth(depth)?;
    let count = cursor.read_varint()? as usize;
    limits.check_blocks(count as u64)?;

    let mut frames = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        frames.push(demux_frame_at(&mut cursor, limits)?);
    }
    let timelines = vec![pcc_edge::Timeline::default(); frames.len()];
    Ok(EncodedVideo { design, frames, encode_timelines: timelines, depth })
}

/// The wire tag byte for a design (shared by the container header and
/// the `pcc-stream` stream-header chunk).
pub fn design_tag(design: Design) -> u8 {
    match design {
        Design::Tmc13 => 0x10,
        Design::Cwipc => 0x11,
        Design::IntraOnly => 0x12,
        Design::IntraInterV1 => 0x13,
        Design::IntraInterV2 => 0x14,
    }
}

/// The design a wire tag byte names, or `None` for unknown tags.
pub fn design_from_tag(tag: u8) -> Option<Design> {
    Some(match tag {
        0x10 => Design::Tmc13,
        0x11 => Design::Cwipc,
        0x12 => Design::IntraOnly,
        0x13 => Design::IntraInterV1,
        0x14 => Design::IntraInterV2,
        _ => return None,
    })
}

fn write_payloads(out: &mut Vec<u8>, geometry: &[u8], attribute: &[u8]) {
    varint::write_u64(out, geometry.len() as u64);
    out.extend_from_slice(geometry);
    varint::write_u64(out, attribute.len() as u64);
    out.extend_from_slice(attribute);
}

fn read_payloads<'a>(
    cursor: &mut Cursor<'a>,
    limits: &Limits,
) -> Result<(&'a [u8], &'a [u8]), ContainerError> {
    let g_len = cursor.read_varint()? as usize;
    limits.check_alloc(g_len as u64)?;
    let g = cursor.take(g_len)?;
    let a_len = cursor.read_varint()? as usize;
    limits.check_alloc(a_len as u64)?;
    let a = cursor.take(a_len)?;
    Ok((g, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PccCodec;
    use pcc_datasets::catalog;
    use pcc_edge::{Device, PowerMode};

    fn device() -> Device {
        Device::jetson_agx_xavier(PowerMode::W15)
    }

    fn encode(design: Design) -> EncodedVideo {
        let video = catalog::by_name("Loot").unwrap().generate_scaled(3, 800);
        PccCodec::new(design).encode_video(&video, 6, &device())
    }

    #[test]
    fn round_trips_all_designs_and_stays_decodable() {
        for design in Design::ALL {
            let original = encode(design);
            let bytes = mux(&original);
            let back = demux(&bytes).unwrap_or_else(|e| panic!("{design}: {e}"));
            assert_eq!(back.design, design);
            assert_eq!(back.depth, original.depth);
            assert_eq!(back.frames.len(), original.frames.len());
            assert_eq!(back.total_size().total_bytes(), original.total_size().total_bytes());
            // The demuxed stream must still decode end-to-end.
            let decoded = PccCodec::new(design).decode_video(&back, &device()).unwrap();
            assert_eq!(decoded.len(), original.frames.len());
        }
    }

    #[test]
    fn per_frame_records_match_container_layout() {
        // A container is the header followed by `mux_frame` records, so
        // chaining demux_frame over the body must reproduce every frame.
        let original = encode(Design::IntraInterV1);
        let bytes = mux(&original);
        let mut standalone = Vec::new();
        for frame in &original.frames {
            mux_frame(&mut standalone, frame);
        }
        assert!(bytes.ends_with(&standalone), "frame records diverge from container body");

        let body_start = bytes.len() - standalone.len();
        let mut input = &bytes[body_start..];
        for (i, frame) in original.frames.iter().enumerate() {
            let offset = body_start + (standalone.len() - input.len());
            let parsed = demux_frame(&mut input, offset)
                .unwrap_or_else(|e| panic!("frame {i}: {e}"));
            assert_eq!(parsed.size().total_bytes(), frame.size().total_bytes(), "frame {i}");
            assert_eq!(parsed.kind(), frame.kind(), "frame {i}");
        }
        assert!(input.is_empty());
    }

    #[test]
    fn intra_payloads_borrow_exactly_the_intra_frames_blobs() {
        let original = encode(Design::IntraInterV1);
        for frame in &original.frames {
            let mut record = Vec::new();
            mux_frame(&mut record, frame);
            assert!(record.capacity() - record.len() <= MAX_RECORD_OVERHEAD, "no regrowth slack");
            match frame {
                EncodedFrame::Intra(f) => {
                    let (g, a) = intra_payloads(&record).expect("intra record");
                    assert_eq!((g, a), (f.geometry.as_slice(), f.attribute.as_slice()));
                    assert_eq!(intra_payloads(&record[..record.len() / 2]), None);
                }
                _ => assert_eq!(intra_payloads(&record), None),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let original = encode(Design::IntraOnly);
        let mut bytes = mux(&original);
        bytes[0] = b'X';
        assert_eq!(demux(&bytes).unwrap_err(), ContainerError::BadMagic);
        let mut bytes = mux(&original);
        bytes[4] = 99;
        assert_eq!(demux(&bytes).unwrap_err(), ContainerError::BadVersion(99));
    }

    #[test]
    fn truncations_never_panic_and_report_an_offset() {
        let bytes = mux(&encode(Design::IntraInterV1));
        for cut in (0..bytes.len()).step_by(37) {
            match demux(&bytes[..cut]) {
                Err(ContainerError::Truncated { offset }) => {
                    assert!(offset <= cut, "offset {offset} past cut {cut}");
                }
                Err(other) => panic!("prefix {cut}: unexpected error {other}"),
                Ok(_) => panic!("prefix {cut} accepted"),
            }
        }
    }

    #[test]
    fn bad_tags_rejected_with_offset() {
        let original = encode(Design::IntraOnly);
        let mut bytes = mux(&original);
        bytes[5] = 0x7f; // design tag lives at offset 5
        assert_eq!(
            demux(&bytes).unwrap_err(),
            ContainerError::BadTag { tag: 0x7f, offset: 5 }
        );
    }

    #[test]
    fn frame_tag_errors_point_at_the_frame() {
        let original = encode(Design::IntraOnly);
        let bytes = mux(&original);
        // First frame tag sits right after the header: 4 magic + version +
        // design + depth + varint count (1 byte for 3 frames).
        let tag_at = 8;
        let mut bad = bytes.clone();
        assert_eq!(bad[tag_at], 0x04, "layout drifted; fix the offset");
        bad[tag_at] = 0x6e;
        assert_eq!(
            demux(&bad).unwrap_err(),
            ContainerError::BadTag { tag: 0x6e, offset: tag_at }
        );
    }

    #[test]
    fn design_tags_round_trip() {
        for design in Design::ALL {
            assert_eq!(design_from_tag(design_tag(design)), Some(design));
        }
        assert_eq!(design_from_tag(0x00), None);
        assert_eq!(design_from_tag(0x7f), None);
    }

    #[test]
    fn limits_bound_declared_sizes_before_allocation() {
        let original = encode(Design::IntraOnly);
        let bytes = mux(&original);
        // A hostile depth byte must be rejected by the ceiling, not passed
        // downstream.
        let mut deep = bytes.clone();
        deep[6] = 63; // depth byte lives at offset 6
        assert!(matches!(
            demux(&deep).unwrap_err(),
            ContainerError::LimitExceeded(e) if e.what == "octree depth"
        ));
        // Payload lengths above the allocation budget are limit errors even
        // though the stream is long enough to satisfy them.
        let tight = Limits { max_alloc_bytes: 8, ..Limits::default() };
        assert!(matches!(
            demux_with(&bytes, &tight).unwrap_err(),
            ContainerError::LimitExceeded(e) if e.what == "alloc bytes"
        ));
        // Default limits accept the genuine stream unchanged.
        demux_with(&bytes, &Limits::default()).unwrap();
    }

    #[test]
    fn container_overhead_is_small() {
        let original = encode(Design::IntraOnly);
        let payload: usize = original.total_size().total_bytes();
        let bytes = mux(&original);
        assert!(bytes.len() < payload + 32 * original.frames.len());
    }
}
