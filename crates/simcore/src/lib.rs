//! Deterministic discrete-event simulation core.
//!
//! This crate provides the building blocks every other crate in the Presto
//! reproduction rests on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a deterministic priority queue of timestamped events,
//! * [`FxHashMap`] — a fast deterministic-by-construction hasher for
//!   never-iterated hot-path lookup tables,
//! * [`Ewma`] — the exponentially-weighted moving average used by Presto's
//!   adaptive GRO flush timeout (§3.2 of the paper),
//! * [`rng`] — seeded, stream-split random number helpers so that every
//!   experiment is exactly reproducible from a single `u64` seed.
//!
//! Determinism is a design requirement (see DESIGN.md §5): two events
//! scheduled for the same instant are popped in the order they were pushed,
//! which the event queue enforces with a monotone sequence number.

pub mod events;
pub mod ewma;
pub mod fxhash;
pub mod rng;
pub mod time;

pub use events::{EventQueue, HeapEventQueue, QueueProfile};
pub use ewma::Ewma;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use time::{SimDuration, SimTime};
