//! `paxml-wire` — the real network transport for PaX: sites as processes
//! behind TCP sockets, with the in-process simulator as conformance oracle.
//!
//! The crate has four layers, each usable on its own:
//!
//! * [`codec`] — [`encode`]/[`decode`] for every protocol message, in
//!   exactly the compact binary layout `paxml_distsim::encoded_size`
//!   charges (LEB128 varints, zig-zag signing, one-byte tags), so the byte
//!   meters of the simulator and of the socket transport agree bit for bit;
//! * [`frame`] — length-prefixed framing over any `Read`/`Write` pair,
//!   one write per frame;
//! * [`SiteServer`] — one site's fragments behind a `TcpListener`, running
//!   the same [`paxml_core::dispatch`] as the simulator,
//!   thread-per-connection, with a clean shutdown message;
//! * [`TcpCluster`] — the coordinator side, implementing
//!   [`paxml_core::Transport`] so every driver (naive/PaX2/PaX3/batch) and
//!   `PaxServer` run unchanged over sockets; [`ProcessCluster`] spawns the
//!   sites as local child processes for `paxml cluster` and the tests.
//!
//! Because both transports execute the identical site-side `dispatch` and
//! charge the identical encoded sizes, a workload produces the same
//! answers, visit counts and byte counts over TCP as over the simulator —
//! the property the cross-transport conformance tests pin.
//!
//! Both ends of every connection set `TCP_NODELAY` and every message is
//! one frame written in one call, so a message is one segment and no round
//! waits on a Nagle/delayed-ACK timer.

#![deny(missing_docs)]

pub mod codec;
pub mod frame;
pub mod msg;
pub mod process;
pub mod site_server;
pub mod tcp;

pub use codec::{decode, encode, CodecError};
pub use process::{ProcessCluster, SiteProcess};
pub use site_server::SiteServer;
pub use tcp::TcpCluster;
