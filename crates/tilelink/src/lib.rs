//! TileLink-style coherence message model with the Skip It extensions.
//!
//! This crate models the subset of TileLink-C (TL-C) that the paper *Skip It:
//! Take Control of Your Cache!* (ASPLOS 2024) relies on, plus the messages the
//! paper introduces:
//!
//! * [`ChannelC::RootRelease`] — the paper's `RootReleaseFlush` /
//!   `RootReleaseClean` requests (§5.1), encoded on silicon as a `ProbeAck`
//!   with the `FLUSH` / `CLEAN` parameter. Here they are a first-class message
//!   carrying a [`WritebackKind`].
//! * [`ChannelD::ReleaseAck`] with `root = true` — the paper's
//!   `RootReleaseAck`, encoded as `ReleaseAck` with parameter `ROOT`.
//! * [`ChannelD::Grant`] with a [`GrantFlavor`] — `GrantData` vs the paper's
//!   new `GrantDataDirty` (§6), which tells the L1 whether the granted line is
//!   persisted (clean in the L2) so the L1 can maintain its *skip bit*.
//!
//! A link between two agents consists of up to five unidirectional channels
//! `{A, B, C, D, E}` (§2.2). Each direction is modeled by a [`Link`], a
//! latency- and bandwidth-stamped FIFO: a 64 B cache line crosses a 16 B bus
//! in four beats, exactly as in the paper's Fig. 3 / §5.2 timing discussion.
//!
//! # Example
//!
//! ```
//! use skipit_tilelink::{Link, ChannelA, Grow, LineAddr};
//!
//! let mut a: Link<ChannelA> = Link::new(2, 1);
//! a.push(0, ChannelA::AcquireBlock {
//!     source: 0,
//!     addr: LineAddr::containing(0x80),
//!     grow: Grow::NtoB,
//! });
//! assert!(a.pop(1).is_none()); // still in flight
//! assert!(a.pop(2).is_some());
//! ```

pub mod line;
pub mod link;
pub mod msg;
pub mod perm;
pub mod perturb;
pub mod slots;
pub mod snap;
pub mod staged;

pub use line::{LineAddr, LineData, LINE_BYTES, WORDS_PER_LINE};
pub use link::Link;
pub use msg::{
    AgentId, ChannelA, ChannelB, ChannelC, ChannelD, ChannelE, GrantFlavor, WritebackKind,
};
pub use perm::{Cap, ClientState, Grow, Shrink};
pub use perturb::PerturbConfig;
pub use slots::SlotMask;

/// Number of 16 B beats needed to move one full cache line over a TileLink
/// data bus (Fig. 3: the SonicBOOM system bus is 16 B wide, so a 64 B line
/// takes four cycles — §5.2, state `root_release_data`).
pub const LINE_BEATS: u64 = (LINE_BYTES / 16) as u64;
