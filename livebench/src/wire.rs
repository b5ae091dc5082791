//! The benchmark's own subscriber transport: an in-memory pipe per
//! subscriber that the driver thread fills (through the broadcast) and
//! drains (through the subscriber's receiver).
//!
//! Faults and throttling live here rather than in any program crate, so
//! the benchmark keeps measuring the same wire when those crates change:
//!
//! * a *lossy* wire drops whole write records (one record = one chunk,
//!   since the chunk writer emits each chunk with a single `write_all`)
//!   on a seeded schedule, sparing an immune prefix (the stream header);
//! * a *throttled* writer charges a shared [`FakeClock`] per byte, which
//!   the subscriber's degradation controller reads as send time.
//!
//! Every accepted write stamps the wire's last-write instant and the
//! shared [`WriteLog`], which is how the benchmark times encode (push
//! start to first write) and fan-out (first to last write).

use pcc_adapt::{Clock, FakeClock};
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// SplitMix64: tiny, seedable, and good enough for a loss schedule.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Seeded record-drop schedule of a lossy wire.
#[derive(Debug, Clone)]
struct Loss {
    rng: SplitMix64,
    /// Drop when the next random draw is below this.
    threshold: u64,
    /// Records (from the first) that are never dropped.
    immune: u64,
    enabled: bool,
}

#[derive(Debug, Default)]
struct State {
    buf: Vec<u8>,
    read_at: usize,
    records: u64,
    dropped: u64,
    bytes_accepted: u64,
    last_write: Option<Instant>,
    loss: Option<Loss>,
}

/// First and last accepted write across every wire since the last
/// [`WriteLog::reset`] — one push's fan-out window.
#[derive(Debug, Clone, Default)]
pub struct WriteLog(Arc<Mutex<(Option<Instant>, Option<Instant>)>>);

impl WriteLog {
    fn lock(&self) -> MutexGuard<'_, (Option<Instant>, Option<Instant>)> {
        self.0
            .lock()
            .expect("write log lock poisoned: a writer panicked")
    }

    /// Forgets the previous window.
    pub fn reset(&self) {
        *self.lock() = (None, None);
    }

    /// `(first, last)` accepted write since the last reset.
    pub fn window(&self) -> (Option<Instant>, Option<Instant>) {
        *self.lock()
    }

    fn stamp(&self, at: Instant) {
        let mut w = self.lock();
        if w.0.is_none() {
            w.0 = Some(at);
        }
        w.1 = Some(at);
    }
}

/// One subscriber's pipe. Clones share the same bytes.
#[derive(Debug, Clone, Default)]
pub struct Wire(Arc<Mutex<State>>);

impl Wire {
    /// A lossless wire.
    pub fn new() -> Self {
        Wire::default()
    }

    /// A wire dropping each write record with probability `p_drop`
    /// (seeded), except the first `immune` records.
    pub fn lossy(seed: u64, p_drop: f64, immune: u64) -> Self {
        let wire = Wire::new();
        wire.lock().loss = Some(Loss {
            rng: SplitMix64::new(seed),
            threshold: (p_drop.clamp(0.0, 1.0) * u64::MAX as f64) as u64,
            immune,
            enabled: true,
        });
        wire
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.0
            .lock()
            .expect("wire lock poisoned: a writer panicked")
    }

    /// The sending end, stamping `log` on every accepted write.
    pub fn writer(&self, log: &WriteLog) -> WireWriter {
        WireWriter {
            wire: self.clone(),
            log: log.clone(),
            throttle: None,
        }
    }

    /// A sending end that also charges `clock` `ns_per_byte` per byte
    /// written, as a link of that speed would.
    pub fn throttled_writer(
        &self,
        log: &WriteLog,
        clock: FakeClock,
        ns_per_byte: u64,
    ) -> WireWriter {
        WireWriter {
            wire: self.clone(),
            log: log.clone(),
            throttle: Some((clock, ns_per_byte)),
        }
    }

    /// The receiving end. A read with nothing buffered returns 0 bytes,
    /// which a streaming receiver reads as "no data yet".
    pub fn reader(&self) -> WireReader {
        WireReader(self.clone())
    }

    /// Ends the loss schedule: every later record is delivered. The
    /// benchmark calls this before sealing streams, so end chunks arrive.
    pub fn stop_losses(&self) {
        if let Some(loss) = &mut self.lock().loss {
            loss.enabled = false;
        }
    }

    /// When the last accepted record finished writing.
    pub fn last_write(&self) -> Option<Instant> {
        self.lock().last_write
    }

    /// Bytes accepted onto the wire so far.
    pub fn bytes_accepted(&self) -> u64 {
        self.lock().bytes_accepted
    }

    /// Records the loss schedule dropped so far.
    #[cfg(test)]
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Bytes written but not yet read.
    #[cfg(test)]
    pub fn buffered(&self) -> usize {
        let s = self.lock();
        s.buf.len() - s.read_at
    }
}

/// Sending end of a [`Wire`].
#[derive(Debug)]
pub struct WireWriter {
    wire: Wire,
    log: WriteLog,
    throttle: Option<(FakeClock, u64)>,
}

impl Write for WireWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        {
            let mut s = self.wire.lock();
            let record = s.records;
            s.records += 1;
            let drop = match &mut s.loss {
                Some(loss) if loss.enabled && record >= loss.immune => {
                    loss.rng.next_u64() < loss.threshold
                }
                _ => false,
            };
            if drop {
                s.dropped += 1;
            } else {
                s.buf.extend_from_slice(buf);
                s.bytes_accepted += buf.len() as u64;
                let now = Instant::now();
                s.last_write = Some(now);
                self.log.stamp(now);
            }
        }
        if let Some((clock, ns_per_byte)) = &self.throttle {
            // A dropped record still occupied the link.
            clock.sleep(Duration::from_nanos(
                (buf.len() as u64).saturating_mul(*ns_per_byte),
            ));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Receiving end of a [`Wire`].
#[derive(Debug)]
pub struct WireReader(Wire);

impl Read for WireReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut s = self.0.lock();
        let start = s.read_at;
        let n = out.len().min(s.buf.len() - start);
        if let (Some(dst), Some(src)) = (out.get_mut(..n), s.buf.get(start..start + n)) {
            dst.copy_from_slice(src);
        }
        s.read_at += n;
        if s.read_at == s.buf.len() {
            // Fully drained: reuse the buffer from the front.
            s.buf.clear();
            s.read_at = 0;
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..(i % 7 + 1)).map(|j| (i * 31 + j) as u8).collect())
            .collect()
    }

    fn read_all(r: &mut WireReader, chunk: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; chunk];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                return out;
            }
            out.extend_from_slice(&buf[..n]);
        }
    }

    #[test]
    fn a_lossless_wire_keeps_every_byte_in_order_across_interleaved_reads() {
        let log = WriteLog::default();
        let wire = Wire::new();
        let mut w = wire.writer(&log);
        let mut r = wire.reader();
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for (i, rec) in records(200).iter().enumerate() {
            w.write_all(rec).unwrap();
            expected.extend_from_slice(rec);
            if i % 3 == 0 {
                // Odd read sizes split records across reads.
                got.extend(read_all(&mut r, 5));
            }
        }
        got.extend(read_all(&mut r, 64));
        assert_eq!(got, expected);
        assert_eq!(wire.dropped(), 0);
        assert_eq!(wire.bytes_accepted(), expected.len() as u64);
        assert_eq!(wire.buffered(), 0);
    }

    #[test]
    fn a_lossy_wire_drops_whole_records_on_its_seeded_schedule_only() {
        let run = |seed: u64| {
            let log = WriteLog::default();
            let wire = Wire::lossy(seed, 0.2, 1);
            let mut w = wire.writer(&log);
            let recs = records(300);
            for rec in &recs {
                w.write_all(rec).unwrap();
            }
            (read_all(&mut wire.reader(), 1024), wire.dropped(), recs)
        };
        let (got, dropped, recs) = run(7);
        assert!(
            dropped > 20 && dropped < 100,
            "dropped {dropped} of 300 at p = 0.2"
        );
        // What arrived is an in-order subsequence of whole records that
        // starts with the immune first record.
        let mut at = 0;
        let mut kept = 0;
        for (i, rec) in recs.iter().enumerate() {
            if got.get(at..at + rec.len()) == Some(rec.as_slice()) {
                at += rec.len();
                kept += 1;
            } else {
                assert!(i > 0, "the immune record was dropped");
            }
        }
        assert_eq!(at, got.len(), "bytes arrived that were not whole records");
        assert_eq!(kept + dropped as usize, recs.len());
        // Same seed, same schedule; another seed, another schedule.
        assert_eq!(run(7).0, got);
        assert_ne!(run(8).0, got);
    }

    #[test]
    fn stopping_losses_delivers_everything_after() {
        let log = WriteLog::default();
        let wire = Wire::lossy(3, 1.0, 0);
        let mut w = wire.writer(&log);
        w.write_all(b"lost").unwrap();
        wire.stop_losses();
        w.write_all(b"kept").unwrap();
        assert_eq!(read_all(&mut wire.reader(), 16), b"kept");
        assert_eq!(wire.dropped(), 1);
    }

    #[test]
    fn throttled_writes_charge_the_fake_clock_per_byte_and_stamp_the_log() {
        let log = WriteLog::default();
        let clock = FakeClock::new();
        let wire = Wire::new();
        let mut w = wire.throttled_writer(&log, clock.clone(), 1_000);
        assert_eq!(log.window(), (None, None));
        w.write_all(&[0u8; 10]).unwrap();
        w.write_all(&[0u8; 5]).unwrap();
        assert_eq!(clock.now_ns(), 15_000);
        let (first, last) = log.window();
        assert!(first.unwrap() <= last.unwrap());
        assert_eq!(wire.last_write(), last);
        log.reset();
        assert_eq!(log.window(), (None, None));
    }
}
