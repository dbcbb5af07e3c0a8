//! # serenade-core — VMIS-kNN session-based recommendation
//!
//! This crate implements **Vector-Multiplication-Indexed-Session-kNN
//! (VMIS-kNN)**, the core contribution of *"Serenade — Low-Latency
//! Session-Based Recommendation in e-Commerce at Scale"* (SIGMOD 2022).
//!
//! Given an evolving user session (a sequence of item interactions) the goal
//! is to predict the next item(s) the user will interact with. VMIS-kNN is an
//! index-based adaptation of the state-of-the-art nearest-neighbour method
//! VS-kNN: a prebuilt index `(M, t)` maps every item to the `m` most recent
//! historical sessions containing it (stored in descending session-timestamp
//! order) and records one integer timestamp per historical session. The
//! online computation is a join between the evolving session and the
//! historical sessions on matching items, plus two aggregations (the `m`
//! most recent matching sessions, and their similarity scores). Here the
//! join is one sort of the window's posting entries by session id — the
//! recency key — cut at `m` distinct sessions; the paper's recency heap and
//! early stopping compute the same result and are kept only as a reference
//! in `serenade-baselines`.
//!
//! ## Quick start
//!
//! ```
//! use serenade_core::{Click, SessionIndex, VmisConfig, VmisKnn};
//!
//! // Historical click log: (session, item, timestamp).
//! let clicks = vec![
//!     Click::new(1, 10, 100), Click::new(1, 11, 101),
//!     Click::new(2, 10, 200), Click::new(2, 12, 201),
//!     Click::new(3, 11, 300), Click::new(3, 12, 301),
//! ];
//! let index = SessionIndex::build(&clicks, 500).unwrap();
//! let vmis = VmisKnn::new(index, VmisConfig::default()).unwrap();
//!
//! // Evolving session: the user has looked at items 10 and 11.
//! let recs = vmis.recommend(&[10, 11]);
//! assert!(!recs.is_empty());
//! assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
//! ```
//!
//! ## Module map
//!
//! * [`types`] — item/session/timestamp identifiers and the [`Click`] record.
//! * [`hash`] — an FxHash-style fast hasher used for all hot-path hash maps.
//! * [`weights`] — the decay function π, the match weight λ and idf weighting.
//! * [`sessions`] — grouping a click log into ranked, time-ordered sessions
//!   by counting: the first step of the index build and of every other
//!   consumer of a raw log.
//! * [`index`] — the `(M, t)` session-similarity index and its build.
//! * [`vmis`] — the VMIS-kNN online computation (Algorithm 2 of the paper).
//! * [`error`] — crate error types.

#![warn(missing_docs)]

pub mod error;
pub mod hash;
pub mod index;
pub mod recommender;
pub mod sessions;
pub mod types;
pub mod vmis;
pub mod weights;

pub use error::CoreError;
pub use recommender::Recommender;
pub use sessions::{GroupPhases, SessionRuns};
pub use hash::{FxHashMap, FxHashSet};
pub use index::{BuildPhases, IndexBytes, IndexStats, Posting, SessionIndex, SessionItems};
pub use types::{Click, ItemId, ItemScore, SessionId, Timestamp};
pub use vmis::{KernelWork, Scratch, VmisConfig, VmisKnn};
pub use weights::{DecayFunction, IdfWeighting, MatchWeight};
