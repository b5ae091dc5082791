//! The per-stream resync cache: the current GOF, replayable on join.
//!
//! A subscriber that joins mid-stream would otherwise show nothing
//! until the next I-frame (up to a full GOF of latency). The broadcast
//! keeps the last intact I-frame payload plus the P-frame payloads
//! encoded after it; a late joiner's stream opens with
//! `[header, cached I, cached P...]` and is bit-exact with the live
//! fan-out from its join point onward. Memory is bounded by one GOF:
//! each new I-frame replaces the whole cache. The cache holds references
//! to the source's shared frame records (cloning a [`FramePayload`]
//! clones a reference), so it costs no payload bytes of its own: the
//! subscribers' ARQ rings and the brick repair ring point at the same
//! records.

use pcc_stream::FramePayload;
use pcc_types::FrameKind;

/// Rolling cache of the current group of frames, newest GOF only.
#[derive(Debug, Default)]
pub struct ResyncCache {
    /// The GOF's I-frame payload, then its P-frames in display order.
    frames: Vec<FramePayload>,
}

impl ResyncCache {
    /// An empty cache (joins before the first I-frame get no replay).
    pub fn new() -> Self {
        ResyncCache::default()
    }

    /// Folds one encoded frame into the cache: an I-frame starts a new
    /// GOF (dropping the previous one), a P-frame extends the current
    /// GOF. Out-of-order P-frames (impossible from a healthy source,
    /// cheap to guard) clear the cache rather than caching a stream a
    /// joiner could not decode.
    pub fn observe(&mut self, frame: &FramePayload) {
        match frame.kind {
            FrameKind::Intra => {
                self.frames.clear();
                self.frames.push(frame.clone());
            }
            FrameKind::Predicted => {
                let contiguous = self
                    .frames
                    .last()
                    .is_some_and(|last| last.frame_index + 1 == frame.frame_index);
                if contiguous {
                    self.frames.push(frame.clone());
                } else {
                    self.frames.clear();
                }
            }
        }
    }

    /// Display index of the cached I-frame — the join point a replayed
    /// subscriber starts at.
    pub fn join_index(&self) -> Option<u32> {
        self.frames.first().map(|f| f.frame_index)
    }

    /// The replay sequence: cached I-frame, then its P-frames in order.
    /// Empty before the first I-frame lands.
    pub fn frames(&self) -> &[FramePayload] {
        &self.frames
    }

    /// Number of cached frame payloads.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(index: u32, kind: FrameKind) -> FramePayload {
        FramePayload::from_bytes(index, kind, vec![index as u8; 4])
    }

    #[test]
    fn cache_holds_exactly_the_current_gof() {
        let mut cache = ResyncCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.join_index(), None);

        let anchor = payload(0, FrameKind::Intra);
        cache.observe(&anchor);
        cache.observe(&payload(1, FrameKind::Predicted));
        cache.observe(&payload(2, FrameKind::Predicted));
        assert_eq!(cache.join_index(), Some(0));
        assert_eq!(cache.len(), 3);
        assert!(
            std::sync::Arc::ptr_eq(&cache.frames()[0].payload, &anchor.payload),
            "the cache must hold the record by reference, not a copy"
        );

        // The next GOF evicts the previous one wholesale.
        cache.observe(&payload(4, FrameKind::Intra));
        assert_eq!(cache.join_index(), Some(4));
        assert_eq!(cache.len(), 1);
        let indices: Vec<u32> = cache.frames().iter().map(|f| f.frame_index).collect();
        assert_eq!(indices, vec![4]);
    }

    #[test]
    fn non_contiguous_p_frames_clear_instead_of_caching_garbage() {
        let mut cache = ResyncCache::new();
        cache.observe(&payload(0, FrameKind::Intra));
        cache.observe(&payload(3, FrameKind::Predicted));
        assert!(cache.is_empty());
        // A P-frame with no I-frame at all is equally unusable.
        cache.observe(&payload(5, FrameKind::Predicted));
        assert!(cache.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The cache invariant the recovery plane leans on: whatever
            // sequence of frames is observed — healthy cadence, gaps,
            // repeats, out-of-order garbage — the cache is always
            // *exactly* one decodable GOF prefix: an I-frame plus the
            // contiguous P-run observed right after it, and nothing
            // else. Resubscribe replays this verbatim, so any violation
            // here is a corrupted reconnect.
            fn cache_is_always_one_decodable_gof_suffix(
                ops in prop::collection::vec((0u32..24, 0usize..2), 0..64),
            ) {
                let mut cache = ResyncCache::new();
                let mut observed = Vec::new();
                for &(index, kind_sel) in &ops {
                    let kind = if kind_sel == 0 {
                        FrameKind::Intra
                    } else {
                        FrameKind::Predicted
                    };
                    let frame = payload(index, kind);
                    cache.observe(&frame);
                    observed.push(frame);

                    let cached = cache.frames();
                    if let Some(first) = cached.first() {
                        prop_assert_eq!(
                            first.kind,
                            FrameKind::Intra,
                            "cache must open with an anchor"
                        );
                        prop_assert_eq!(cache.join_index(), Some(first.frame_index));
                        for (a, b) in cached.iter().zip(cached.iter().skip(1)) {
                            prop_assert_eq!(b.kind, FrameKind::Predicted);
                            prop_assert_eq!(
                                b.frame_index,
                                a.frame_index + 1,
                                "P-run must be gapless"
                            );
                        }
                        // The cache is the *trailing* slice of what was
                        // observed — it never resurrects older frames.
                        let tail = observed.len() - cached.len();
                        let suffix = &observed[tail..];
                        prop_assert_eq!(cached.len(), suffix.len());
                        for (c, o) in cached.iter().zip(suffix) {
                            prop_assert_eq!(c.frame_index, o.frame_index);
                            prop_assert_eq!(c.kind, o.kind);
                            prop_assert_eq!(&c.payload, &o.payload);
                        }
                    } else {
                        prop_assert_eq!(cache.join_index(), None);
                    }
                    // An I-frame always resets to exactly itself.
                    if kind == FrameKind::Intra {
                        prop_assert_eq!(cache.len(), 1);
                    }
                }
            }
        }
    }
}
