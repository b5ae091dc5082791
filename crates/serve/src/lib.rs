//! Multi-tenant broadcast serving for live point-cloud video.
//!
//! The 1:1 [`pcc_stream`] sender couples one encoder to one transport.
//! An edge broadcaster (paper Sec. VI: one capture rig, many viewers)
//! cannot afford that coupling — encoding dominates the frame budget,
//! so N viewers must not cost N encodes. This crate serves each session
//! from **one** shared [`FrameSource`](pcc_stream::FrameSource), fanning
//! the coded payload out to any number of
//! [`Subscription`](pcc_stream::Subscription)s:
//!
//! * [`Broadcast`] — one session: encode once per frame, stamp each
//!   subscriber's own chunk framing (sequence space, ARQ ring, stats)
//!   around the shared payload bytes.
//! * [`ResyncCache`] — the current GOF's payloads; late joiners replay
//!   `[header, cached I, cached P...]` and are bit-exact immediately
//!   instead of waiting for the next I-frame. Like every ARQ ring and
//!   the brick repair ring, the cache holds references to the source's
//!   refcounted frame records, never copies, so retained bytes stay
//!   flat in subscriber count.
//! * [`shed_refinement`] — transmit-side degradation: strip the coded
//!   refinement attribute layer from an I-frame record for subscribers
//!   that can't keep up, without touching the shared encoder. Driven
//!   per subscriber by a `pcc-adapt` controller, alongside P-frame
//!   striding.
//! * [`Registry`] — many concurrent sessions keyed by stream id.
//! * [`ServeStats`] — session counters; `frames_encoded` stays flat
//!   while the aggregated per-subscriber counters scale with the
//!   audience.
//! * Recovery plane — a dead slot keeps its identity ([`SlotHealth`]),
//!   ARQ ring, and counters so [`Broadcast::resubscribe`] can resume it
//!   on a fresh transport (header + cached-GOF replay + carried-over
//!   byte accounting); a [`LivenessPolicy`] evicts stalled consumers by
//!   missed send deadlines instead of serving a wedged wire forever;
//!   and receiver intra-refresh asks drained from the feedback channel
//!   re-anchor the shared encode for everyone.
//!
//! ```
//! use pcc_core::{Design, PccCodec};
//! use pcc_edge::{Device, PowerMode};
//! use pcc_serve::Broadcast;
//! use pcc_stream::StreamConfig;
//! use pcc_types::{Point3, PointCloud, Rgb};
//!
//! let device = Device::jetson_agx_xavier(PowerMode::W15);
//! let codec = PccCodec::new(Design::IntraInterV1);
//! let mut session = Broadcast::new(&codec, 4, &device, &StreamConfig::default());
//! let a = session.subscribe(Vec::new(), Default::default()).unwrap();
//! let b = session.subscribe(Vec::new(), Default::default()).unwrap();
//!
//! let mut cloud = PointCloud::new();
//! cloud.push(Point3::new(1.0, 2.0, 3.0), Rgb::gray(200));
//! session.push_frame(&cloud);
//! assert_eq!(session.subscriber_stats(a), session.subscriber_stats(b));
//!
//! let stats = session.finish();
//! assert_eq!(stats.frames_encoded, 1);
//! assert!((stats.fanout_ratio() - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::indexing_slicing)]
#![cfg_attr(test, allow(clippy::indexing_slicing))]

mod broadcast;
mod cache;
mod registry;
mod shed;
mod stats;

pub use broadcast::{Broadcast, LivenessPolicy, SlotHealth, SubscriberConfig, SubscriberId};
pub use cache::ResyncCache;
pub use registry::Registry;
pub use shed::shed_refinement;
pub use stats::ServeStats;
