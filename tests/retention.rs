//! Retention by reference: a coded frame is held once, however many
//! subscribers' ARQ rings can retransmit it.
//!
//! A counting global allocator tracks live heap bytes (`alloc` and
//! `alloc_zeroed` add, `dealloc` subtracts, `realloc` adds the size
//! difference). A broadcast over `io::sink()` wires pushes the same
//! clip with one ARQ subscriber and then with sixteen, each with a
//! 64-chunk [`SharedRing`]; the live heap held per *added* subscriber
//! must stay below one average frame payload. A ring that copied its
//! chunks would hold ~64 payloads per subscriber instead.
//!
//! The same test pins what a ring gives back: for every parked sequence
//! number (stream header, frames, end chunk) `retransmit(seq)` returns
//! exactly the bytes of the single transport write that carried that
//! chunk, on a subscriber's first life and again after a resubscribe.
//!
//! Everything lives in ONE `#[test]` function: the counter is global, so
//! a second test running on a sibling harness thread would pollute the
//! measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

use pcc::core::{Design, PccCodec};
use pcc::datasets::catalog;
use pcc::edge::{Device, PowerMode};
use pcc::serve::{Broadcast, SubscriberConfig};
use pcc::stream::chunk::HEADER_LEN;
use pcc::stream::{decode_chunk, Retransmit, SharedRing, StreamConfig};
use pcc::types::Video;

struct LiveBytes;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: delegates every operation to `System`, only adding a relaxed
// counter update — layout contracts are untouched.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: LiveBytes = LiveBytes;

const FRAMES: usize = 80;
const ARQ_RING: usize = 64;
const DEPTH: u8 = 7;
/// Stream-header chunk bytes: chunk framing around a 3-byte payload.
const HEADER_CHUNK: usize = HEADER_LEN + 3 + 4;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

fn device() -> Device {
    Device::jetson_agx_xavier(PowerMode::W15)
}

/// Twelve distinct IPP frames, cycled to make up the pushes.
fn clip() -> Video {
    catalog::by_name("Loot").unwrap().generate_scaled(12, 3_000)
}

fn codec() -> PccCodec {
    PccCodec::new(Design::IntraInterV1)
}

/// Pushes `FRAMES` frames through a broadcast with `subscribers` ARQ
/// subscribers on sink wires. Returns the live heap the broadcast holds
/// once the pushes are done, and the average frame payload in bytes.
fn retained(video: &Video, device: &Device, subscribers: usize) -> (isize, usize) {
    let base = live();
    let mut bc = Broadcast::new(&codec(), DEPTH, device, &StreamConfig::default());
    for _ in 0..subscribers {
        let config =
            SubscriberConfig { arq_ring: Some(SharedRing::new(ARQ_RING)), ..Default::default() };
        bc.subscribe(io::sink(), config).unwrap();
    }
    for i in 0..FRAMES {
        bc.push_frame(&video.frame(i % video.len()).unwrap().cloud);
    }
    let held = live() - base;
    let per_subscriber = bc.serve_stats().aggregate.bytes_sent as usize / subscribers;
    let avg_payload = (per_subscriber - HEADER_CHUNK) / FRAMES - (HEADER_LEN + 4);
    drop(bc);
    (held, avg_payload)
}

/// A transport that records every write call as one record, and can be
/// killed: once `dead` is set, every write fails.
#[derive(Clone, Default)]
struct RecordingWire {
    writes: Arc<Mutex<Vec<Vec<u8>>>>,
    dead: Arc<AtomicBool>,
}

impl RecordingWire {
    fn records(&self) -> Vec<Vec<u8>> {
        self.writes.lock().unwrap().clone()
    }
}

impl Write for RecordingWire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "wire killed"));
        }
        self.writes.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Every write on `wire` is one whole chunk, and the ring re-creates
/// each of them byte for byte under its sequence number.
fn assert_ring_replays_wire(ring: &SharedRing, wire: &RecordingWire, life: &str) {
    let mut ring = ring.clone();
    let records = wire.records();
    assert!(records.len() > 2, "{life}: header, frames and more expected");
    for (seq, record) in records.iter().enumerate() {
        let chunk = decode_chunk(record)
            .unwrap_or_else(|| panic!("{life}: write {seq} is not exactly one chunk"));
        assert_eq!(chunk.seq as usize, seq, "{life}: writes arrive in sequence order");
        assert_eq!(
            ring.retransmit(seq as u32).as_deref(),
            Some(record.as_slice()),
            "{life}: retransmit({seq}) must equal the bytes that went on the wire"
        );
    }
}

#[test]
fn retained_bytes_are_flat_in_subscriber_count_and_retransmits_match_the_wire() {
    let video = clip();
    let device = device();

    // -- Retained bytes per added ARQ subscriber. The first run warms
    //    lazily initialised state (thread pools, per-thread buffers) so
    //    it is not booked against either measured run.
    let _ = retained(&video, &device, 1);
    let (one, avg_payload) = retained(&video, &device, 1);
    let (sixteen, _) = retained(&video, &device, 16);
    let per_added = (sixteen - one) / 15;
    assert!(avg_payload > 0);
    assert!(
        per_added < avg_payload as isize,
        "each added ARQ subscriber holds {per_added} B of live heap, more than one average \
         frame payload ({avg_payload} B): its ring must hold frames by reference, not copies \
         (1 subscriber: {one} B, 16 subscribers: {sixteen} B)"
    );

    // -- Retransmits are the wire bytes, header through end chunk, on
    //    both lives of a resubscribed subscriber.
    let mut bc = Broadcast::new(&codec(), DEPTH, &device, &StreamConfig::default());
    let ring = SharedRing::new(ARQ_RING);
    let first = RecordingWire::default();
    let config = SubscriberConfig { arq_ring: Some(ring.clone()), ..Default::default() };
    let id = bc.subscribe(first.clone(), config).unwrap();
    for i in 0..8 {
        bc.push_frame(&video.frame(i).unwrap().cloud);
    }
    assert_ring_replays_wire(&ring, &first, "first life");

    first.dead.store(true, Ordering::Relaxed);
    bc.push_frame(&video.frame(8).unwrap().cloud);
    assert!(!bc.is_alive(id), "a failed write must kill the slot");

    let second = RecordingWire::default();
    assert!(bc.resubscribe(id, second.clone()).unwrap());
    for i in 9..12 {
        bc.push_frame(&video.frame(i).unwrap().cloud);
    }
    bc.finish();
    let records = second.records();
    let end = decode_chunk(records.last().unwrap()).unwrap();
    assert_eq!(end.kind, pcc::stream::ChunkKind::End, "the end chunk is parked too");
    assert_ring_replays_wire(&ring, &second, "after resubscribe");
}
