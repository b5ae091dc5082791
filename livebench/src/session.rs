//! The serving path under test — one [`Broadcast`], its subscribers'
//! wires, and one [`Receiver`] per subscriber — plus the ledger that
//! checks every delivery and turns write timestamps into latencies.
//!
//! The loop is closed and single-threaded: the driver pushes frame k,
//! then drains every receiver, then pushes frame k+1. Each receiver
//! stands for a separate viewer device, so a (frame, subscriber) latency
//! is the time from the push start until this wire's last byte of the
//! frame was written, plus this receiver's own `recv_frame` time — never
//! the time other receivers spent decoding.

use crate::alloc;
use crate::wire::{Wire, WireReader, WriteLog};
use crate::workload::{derive_seed, Spec};
use pcc_adapt::{Controller, ControllerConfig, FakeClock, QualityLadder};
use pcc_core::PccCodec;
use pcc_edge::Device;
use pcc_inter::InterConfig;
use pcc_serve::{Broadcast, ServeStats, SubscriberConfig};
use pcc_stream::{ArqConfig, Receiver, SharedRing, StreamConfig, StreamStats};
use pcc_types::{Aabb, FrameKind, PointCloud};
use std::sync::Arc;
use std::time::Instant;

/// Record-drop probability of an ARQ subscriber's wire.
pub const ARQ_DROP: f64 = 0.05;
/// Chunks each ARQ ring keeps (the receiver's default NACK window).
const ARQ_RING: usize = 64;
/// Fake-clock charge of a throttled wire: ~10 µs per byte, hopelessly
/// slower than the controller's budget, so it sheds every GOF it can.
const THROTTLE_NS_PER_BYTE: u64 = 10_000;

/// How a subscriber is wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Lossless wire, attached from the start.
    Plain,
    /// Seeded record-dropping wire; the receiver NACKs gaps against the
    /// broadcast's ARQ ring.
    Arq,
    /// Fake-clock-throttled wire under a per-subscriber shedding
    /// controller (refinement shedding and P-striding).
    Throttled,
    /// Lossless wire attached mid-run, replayed from the resync cache.
    Late,
}

/// Roles of the subscribers attached at the start, in fan-out order.
/// ARQ and throttled subscribers are spread evenly through the order so
/// none of them systematically waits behind every other write; the
/// first subscriber is always plain (it is the reference).
pub fn initial_roles(spec: &Spec) -> Vec<Role> {
    let n = spec.plain + spec.arq + spec.throttled;
    let special = spec.arq + spec.throttled;
    let mut roles = vec![Role::Plain; n];
    let (mut arq, mut thr) = (spec.arq, spec.throttled);
    for k in 0..special {
        // Never slot 0, and distinct slots while at least one is plain.
        let at = (k + 1) * n / (special + 1);
        let role = if (k % 2 == 0 && arq > 0) || thr == 0 {
            Role::Arq
        } else {
            Role::Throttled
        };
        match role {
            Role::Arq => arq -= 1,
            _ => thr -= 1,
        }
        if let Some(slot) = roles.get_mut(at) {
            *slot = role;
        }
    }
    roles
}

/// The controller of a throttled subscriber: every observed send blows
/// the 1 ms budget, so it steps down one rung per GOF to the bottom rung
/// (refinement shed on I-frames, every second P-frame strided) and stays.
fn shedding_controller() -> Controller {
    Controller::new(
        QualityLadder::standard(InterConfig::v1()),
        ControllerConfig {
            frame_budget_ms: 1.0,
            degrade_after: 3,
            upgrade_after: 100,
            headroom: 0.9,
        },
    )
}

/// Order-sensitive digest of a cloud's positions (and colors).
pub fn digest(cloud: &PointCloud, colors: bool) -> u64 {
    let mix = |h: u64, v: u64| (h.rotate_left(5) ^ v).wrapping_mul(0x517C_C1B7_2722_0A95);
    let mut h = mix(0, cloud.len() as u64);
    for p in cloud.positions() {
        h = mix(h, u64::from(p.x.to_bits()) | u64::from(p.y.to_bits()) << 32);
        h = mix(h, u64::from(p.z.to_bits()));
    }
    if colors {
        for c in cloud.colors() {
            h = mix(
                h,
                u64::from(c.r) | u64::from(c.g) << 8 | u64::from(c.b) << 16,
            );
        }
    }
    h
}

/// One subscriber: its slot in the broadcast, its wire, its receiver.
pub struct Sub<'d> {
    /// How it is wired.
    pub role: Role,
    /// The subscriber's pipe.
    pub wire: Wire,
    /// The viewer's receiver.
    pub rx: Receiver<'d, WireReader>,
    /// First display index this subscriber is owed.
    owed_from: u32,
    /// First display index pushed after it joined (latency samples).
    sample_from: u32,
    /// Last delivered display index.
    last: Option<u32>,
    /// Counted frames delivered intact (or degraded but geometry-exact).
    pub delivered_ok: u64,
    /// Counted P-frames its controller withheld (degraded, not owed).
    pub strided: u64,
}

/// Per-frame push figures.
#[derive(Debug, Clone, Copy)]
pub struct Push {
    /// When `push_frame` was called.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// First and last accepted wire write during the push.
    pub first_write: Option<Instant>,
    /// See `first_write`.
    pub last_write: Option<Instant>,
    /// Allocation calls inside `push_frame`.
    pub allocs: u64,
    /// Subscribers served by the push.
    pub live: usize,
}

/// Everything the drain learns: reference digests, latency and decode
/// samples, and every failed check.
pub struct Ledger {
    /// Push start per display index.
    push_start: Vec<Option<Instant>>,
    /// Frame kind per display index.
    kinds: Vec<Option<FrameKind>>,
    /// Full-cloud digest of the reference (first plain) subscriber.
    pub ref_digest: Vec<Option<u64>>,
    /// Geometry-only digest of the same.
    ref_geom: Vec<Option<u64>>,
    /// Whether deliveries are being sampled (the timed run).
    pub sampling: bool,
    /// First display index counted in the delivery ledger (owed,
    /// delivered, strided): the first timed frame.
    pub count_from: u32,
    /// Push→delivered latency per (frame, subscriber), ms.
    pub latency_ms: Vec<f64>,
    /// The receiver's own `recv_frame` time within each latency, ms.
    pub latency_recv_ms: Vec<f64>,
    /// `recv_frame` time per delivered frame, ms.
    pub decode_ms: Vec<f64>,
    /// Allocation calls inside delivering `recv_frame` calls.
    pub recv_allocs: u64,
    /// Delivering `recv_frame` calls counted in `recv_allocs`.
    pub recv_calls: u64,
    /// Start and end of each delivering call of the current drain, for
    /// spans.
    pub recv_spans: Option<Vec<(Instant, Instant)>>,
    /// The reference subscriber's delivered clouds, when kept.
    pub keep: Option<Vec<(u32, PointCloud)>>,
    /// Failed checks so far.
    pub failures: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Ledger {
    /// A ledger with room for `frames` display indices and `samples`
    /// latency samples, allocated up front so the timed run's heap
    /// figures see none of the benchmark's own bookkeeping grow.
    pub fn with_capacity(frames: usize, samples: usize) -> Self {
        Ledger {
            push_start: vec![None; frames],
            kinds: vec![None; frames],
            ref_digest: vec![None; frames],
            ref_geom: vec![None; frames],
            sampling: false,
            count_from: u32::MAX,
            latency_ms: Vec::with_capacity(samples),
            latency_recv_ms: Vec::with_capacity(samples),
            decode_ms: Vec::with_capacity(samples),
            recv_allocs: 0,
            recv_calls: 0,
            recv_spans: None,
            keep: None,
            failures: 0,
            messages: Vec::new(),
        }
    }

    /// Books a failed check.
    pub fn fail(&mut self, message: String) {
        self.failures += 1;
        if self.messages.len() < 8 {
            self.messages.push(message);
        }
    }

    fn slot<T>(v: &mut [Option<T>], index: u32) -> Option<&mut Option<T>> {
        v.get_mut(index as usize)
    }
}

/// One broadcast session with its audience.
pub struct Session<'d> {
    bc: Broadcast<'d>,
    /// Subscribers in fan-out order.
    pub subs: Vec<Sub<'d>>,
    log: WriteLog,
    throttle_clock: FakeClock,
    rx_devices: &'d [Device],
    seed: u64,
    last_intra: u32,
}

impl<'d> Session<'d> {
    /// Opens the broadcast and attaches the initial subscribers.
    pub fn open(
        spec: &Spec,
        seed: u64,
        bb: Aabb,
        server: &'d Device,
        rx_devices: &'d [Device],
    ) -> Self {
        let codec = PccCodec::new(spec.design);
        let bc = Broadcast::new(&codec, spec.depth(), server, &StreamConfig::default())
            .with_bounding_box(bb);
        let mut session = Session {
            bc,
            subs: Vec::with_capacity(spec.subscribers()),
            log: WriteLog::default(),
            throttle_clock: FakeClock::new(),
            rx_devices,
            seed,
            last_intra: 0,
        };
        for role in initial_roles(spec) {
            session.attach(role);
        }
        session
    }

    /// Display index the next push gets.
    pub fn frame_index(&self) -> u32 {
        self.bc.frame_index() as u32
    }

    /// Subscribers the broadcast is serving.
    pub fn live_subscribers(&self) -> usize {
        self.bc.subscriber_count()
    }

    /// Session counters so far.
    pub fn serve_stats(&self) -> ServeStats {
        self.bc.serve_stats()
    }

    /// Attaches one subscriber and its receiver; returns when
    /// `Broadcast::subscribe` started and returned.
    pub fn attach(&mut self, role: Role) -> (Instant, Instant) {
        let i = self.subs.len();
        let wire = match role {
            Role::Arq => Wire::lossy(derive_seed(self.seed, 1_000 + i as u64), ARQ_DROP, 1),
            _ => Wire::new(),
        };
        let mut ring = None;
        let (writer, config) = match role {
            Role::Arq => {
                let r = SharedRing::new(ARQ_RING);
                ring = Some(r.clone());
                (
                    wire.writer(&self.log),
                    SubscriberConfig {
                        arq_ring: Some(r),
                        ..Default::default()
                    },
                )
            }
            Role::Throttled => (
                wire.throttled_writer(&self.log, self.throttle_clock.clone(), THROTTLE_NS_PER_BYTE),
                SubscriberConfig {
                    controller: Some(shedding_controller()),
                    clock: Some(Arc::new(self.throttle_clock.clone())),
                    ..Default::default()
                },
            ),
            Role::Plain | Role::Late => (wire.writer(&self.log), SubscriberConfig::default()),
        };
        let late = self.bc.frame_index() > 0;
        let start = Instant::now();
        self.bc
            .subscribe(writer, config)
            .expect("an in-memory wire cannot fail");
        let end = Instant::now();
        let device = self
            .rx_devices
            .get(i)
            .expect("one receiver device per subscriber");
        let mut rx = Receiver::new(wire.reader(), device).with_streaming();
        if let Some(r) = ring {
            // ARQ timing on a fake clock: retransmits come from memory, so
            // recovery never depends on how fast this host happens to be.
            rx = rx.with_arq_clock(r, ArqConfig::default(), Arc::new(FakeClock::new()));
        }
        let next = self.frame_index();
        self.subs.push(Sub {
            role,
            wire,
            rx,
            owed_from: if late { self.last_intra } else { 0 },
            sample_from: next,
            last: None,
            delivered_ok: 0,
            strided: 0,
        });
        (start, end)
    }

    /// Pushes one frame through the broadcast.
    pub fn push(&mut self, cloud: &PointCloud, ledger: &mut Ledger) -> Push {
        self.log.reset();
        let index = self.frame_index();
        let a0 = alloc::calls();
        let start = Instant::now();
        let kind = self.bc.push_frame(cloud);
        let end = Instant::now();
        let allocs = alloc::calls() - a0;
        let (first_write, last_write) = self.log.window();
        if kind == FrameKind::Intra {
            self.last_intra = index;
        }
        if let Some(s) = Ledger::slot(&mut ledger.push_start, index) {
            *s = Some(start);
        }
        if let Some(k) = Ledger::slot(&mut ledger.kinds, index) {
            *k = Some(kind);
        }
        Push {
            start,
            end,
            first_write,
            last_write,
            allocs,
            live: self.live_subscribers(),
        }
    }

    /// Drains every receiver of whatever its wire holds, checking each
    /// delivery.
    pub fn drain(&mut self, ledger: &mut Ledger) {
        for s in 0..self.subs.len() {
            drain_one(&mut self.subs, s, ledger);
        }
    }

    /// Seals every stream with an end chunk (losses stopped first, so end
    /// chunks always arrive), drains the receivers to the end, checks
    /// that every subscriber saw a clean end and was served every frame
    /// it was owed, and returns the session counters.
    pub fn finish(self, ledger: &mut Ledger) -> (ServeStats, Vec<Sub<'d>>) {
        let Session { bc, mut subs, .. } = self;
        for sub in &subs {
            sub.wire.stop_losses();
        }
        let total = bc.frame_index() as u32;
        let stats = bc.finish();
        ledger.sampling = false;
        for s in 0..subs.len() {
            drain_one(&mut subs, s, ledger);
            let sub = &mut subs[s];
            if !(sub.rx.is_done() && sub.rx.stats().clean_shutdown) {
                ledger.fail(format!(
                    "subscriber {s} ({:?}) saw no clean end chunk",
                    sub.role
                ));
            }
            // Frames missing at the very tail: strides for a throttled
            // subscriber, failures for anyone else.
            let from = sub.last.map_or(sub.owed_from, |l| l + 1);
            account_gap(sub, s, from, total, ledger);
        }
        (stats, subs)
    }
}

/// Books the display indices `from..to` that `subs[s]` never got.
fn account_gap(sub: &mut Sub<'_>, s: usize, from: u32, to: u32, ledger: &mut Ledger) {
    for missing in from..to {
        let kind = ledger.kinds.get(missing as usize).copied().flatten();
        if sub.role == Role::Throttled && kind == Some(FrameKind::Predicted) {
            if missing >= ledger.count_from {
                sub.strided += 1;
            }
        } else {
            ledger.fail(format!(
                "subscriber {s} ({:?}) never got frame {missing}",
                sub.role
            ));
        }
    }
}

fn drain_one(subs: &mut [Sub<'_>], s: usize, ledger: &mut Ledger) {
    let Some(sub) = subs.get_mut(s) else { return };
    loop {
        let a0 = alloc::calls();
        let start = Instant::now();
        let got = sub.rx.recv_frame();
        let end = Instant::now();
        let allocs = alloc::calls() - a0;
        let frame = match got {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) => {
                ledger.fail(format!("subscriber {s}: transport error {e}"));
                return;
            }
        };
        let f = frame.frame_index as u32;
        if ledger.sampling {
            ledger.recv_allocs += allocs;
            ledger.recv_calls += 1;
            ledger.decode_ms.push((end - start).as_secs_f64() * 1e3);
            if f >= sub.sample_from {
                let written = sub.wire.last_write().unwrap_or(end);
                let pushed = ledger
                    .push_start
                    .get(f as usize)
                    .copied()
                    .flatten()
                    .unwrap_or(written);
                let latency = written.saturating_duration_since(pushed) + (end - start);
                ledger.latency_ms.push(latency.as_secs_f64() * 1e3);
                ledger
                    .latency_recv_ms
                    .push((end - start).as_secs_f64() * 1e3);
            }
            if let Some(spans) = &mut ledger.recv_spans {
                spans.push((start, end));
            }
        }

        // Order, gaps, and the late joiner's first frame.
        match sub.last {
            Some(last) if f <= last => {
                ledger.fail(format!("subscriber {s}: frame {f} after {last}"));
                continue;
            }
            Some(last) => account_gap(sub, s, last + 1, f, ledger),
            None if sub.role == Role::Late && f != sub.owed_from => ledger.fail(format!(
                "late joiner {s}: first frame {f}, not the GOF's I-frame {}",
                sub.owed_from
            )),
            None => account_gap(sub, s, sub.owed_from, f, ledger),
        }
        sub.last = Some(f);
        if frame.partial.is_some() {
            ledger.fail(format!("subscriber {s}: frame {f} delivered partial"));
            continue;
        }

        // Content: plain, ARQ and late subscribers must match the
        // reference bit for bit; throttled ones keep exact geometry
        // (shed refinement only coarsens colors).
        let full = digest(&frame.cloud, true);
        let geom = digest(&frame.cloud, false);
        let reference = ledger.ref_digest.get(f as usize).copied().flatten();
        let ok = match (sub.role, reference) {
            (Role::Throttled, _) => {
                ledger.ref_geom.get(f as usize).copied().flatten() == Some(geom)
            }
            (Role::Plain, None) => {
                if let Some(d) = Ledger::slot(&mut ledger.ref_digest, f) {
                    *d = Some(full);
                }
                if let Some(g) = Ledger::slot(&mut ledger.ref_geom, f) {
                    *g = Some(geom);
                }
                if let Some(keep) = &mut ledger.keep {
                    keep.push((f, frame.cloud));
                }
                true
            }
            (_, reference) => reference == Some(full),
        };
        if ok {
            if f >= ledger.count_from {
                sub.delivered_ok += 1;
            }
        } else {
            ledger.fail(format!(
                "subscriber {s} ({:?}): frame {f} differs from the reference",
                sub.role
            ));
        }
    }
}

/// Deliveries owed from display index `from` up to `to`, and how many
/// of them arrived intact, over every subscriber. Strided frames are
/// not owed; frames before a late joiner's join point are not owed.
pub fn owed_and_delivered(subs: &[Sub<'_>], from: u32, to: u32) -> (u64, u64) {
    let mut owed = 0;
    let mut ok = 0;
    for sub in subs {
        let start = sub.owed_from.max(from);
        owed += u64::from(to.saturating_sub(start)).saturating_sub(sub.strided);
        ok += sub.delivered_ok;
    }
    (owed, ok)
}

/// Receiver counters of every subscriber with `role`, summed.
pub fn receiver_totals(subs: &[Sub<'_>], role: Role) -> StreamStats {
    let mut total = StreamStats::default();
    for sub in subs.iter().filter(|s| s.role == role) {
        total.merge(sub.rx.stats());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn initial_roles_match_the_spec_and_start_with_a_plain_reference() {
        let mut specs = WORKLOADS.to_vec();
        specs.push(Spec {
            plain: 3,
            arq: 2,
            throttled: 2,
            ..WORKLOADS[2]
        });
        specs.push(Spec {
            plain: 1,
            arq: 0,
            throttled: 5,
            ..WORKLOADS[2]
        });
        for spec in specs {
            let roles = initial_roles(&spec);
            let count = |r| roles.iter().filter(|&&x| x == r).count();
            assert_eq!(roles[0], Role::Plain);
            assert_eq!(count(Role::Plain), spec.plain);
            assert_eq!(count(Role::Arq), spec.arq);
            assert_eq!(count(Role::Throttled), spec.throttled);
        }
    }
}
