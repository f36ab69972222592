//! The Slice network block storage service.
//!
//! A shared array of network storage nodes provides all disk storage in a
//! Slice ensemble (paper §2.2): the µproxy routes bulk I/O directly to
//! these nodes, and the file managers (directory servers, small-file
//! servers) back their own structures with storage objects here.
//!
//! * [`object`] — the flat object space with sparse extents;
//! * [`node`] — the storage node server: NFS read/write/commit over a
//!   buffer cache, disk array timing, sequential prefetch, write
//!   clustering;
//! * [`wal`] — write-ahead logging with group commit, shared by every
//!   dataless file manager;
//! * [`coord`] — the block-service coordinator: per-file block maps and
//!   the intention-logging protocol for multisite atomicity.

pub mod coord;
pub mod node;
pub mod object;
pub mod wal;

pub use coord::{
    CoordAction, CoordMsg, CoordReply, Coordinator, CopyCause, IntentKind, IntentOutcome,
    IntentRecord, Placement,
};
pub use node::{
    StorageCtl, StorageCtlReply, StorageNode, StorageNodeConfig, CLUSTER_BYTES, PREFETCH_BYTES,
    STORAGE_BLOCK,
};
pub use object::{ObjectStore, StorageObject};
pub use wal::{Wal, WalParams};
