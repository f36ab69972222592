//! Shared, cheaply-clonable payload buffers for the packet fast path.
//!
//! The µproxy's whole premise is that interposed routing is cheap enough
//! to sit on every packet's path. Duplicating a mirrored write to its
//! replica pair, stashing the original packet for RPC retransmission, or
//! re-sending after loss must therefore *share* the payload bytes, not
//! deep-copy 8 KB per duplicate. [`ByteBuf`] is a shared allocation plus
//! an `(offset, len)` window: clones bump a refcount, and the rare in-place
//! mutation (the µproxy's incremental attribute patch) goes through a
//! copy-on-write escape hatch that only copies when the buffer is
//! actually shared.
//!
//! Copy traffic is counted twice over: in process-wide relaxed atomics
//! (exact totals under any threading; see [`clone_stats`]) and in
//! thread-local counters (see [`local_clone_stats`]) that attribute
//! copies to an individual simulation run. Under `slice-par` each
//! scenario builds, runs, and is harvested on a single worker thread, so
//! a before/after delta of the thread-local counters is that scenario's
//! own copy traffic; the global atomics remain the cross-check that no
//! traffic escaped attribution.

use std::cell::Cell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static SHALLOW_CLONES: AtomicU64 = AtomicU64::new(0);
static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);
static DEEP_COPY_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_SHALLOW_CLONES: Cell<u64> = const { Cell::new(0) };
    static TL_DEEP_COPIES: Cell<u64> = const { Cell::new(0) };
    static TL_DEEP_COPY_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count_shallow() {
    SHALLOW_CLONES.fetch_add(1, Ordering::Relaxed);
    TL_SHALLOW_CLONES.with(|c| c.set(c.get() + 1));
}

#[inline]
fn count_deep(bytes: u64) {
    DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
    DEEP_COPY_BYTES.fetch_add(bytes, Ordering::Relaxed);
    TL_DEEP_COPIES.with(|c| c.set(c.get() + 1));
    TL_DEEP_COPY_BYTES.with(|c| c.set(c.get() + bytes));
}

/// Snapshot of process-wide payload copy counters: `(shallow clones,
/// deep copies, deep-copied bytes)`. Shallow clones are refcount bumps
/// (mirrored-write duplication, retransmission stash); deep copies are
/// copy-on-write faults taken when a shared buffer was mutated.
pub fn clone_stats() -> (u64, u64, u64) {
    (
        SHALLOW_CLONES.load(Ordering::Relaxed),
        DEEP_COPIES.load(Ordering::Relaxed),
        DEEP_COPY_BYTES.load(Ordering::Relaxed),
    )
}

/// Snapshot of this thread's payload copy counters, same shape as
/// [`clone_stats`]. Monotonic for the thread's lifetime; callers take
/// before/after deltas to attribute copy traffic to one simulation run
/// (valid because a run executes entirely on one thread).
pub fn local_clone_stats() -> (u64, u64, u64) {
    (
        TL_SHALLOW_CLONES.with(Cell::get),
        TL_DEEP_COPIES.with(Cell::get),
        TL_DEEP_COPY_BYTES.with(Cell::get),
    )
}

/// Resets the process-wide copy counters (benchmark phase boundaries).
/// The thread-local counters are deliberately left alone: they are
/// delta-sampled, never reset, so concurrent runs cannot clobber each
/// other's baselines.
pub fn reset_clone_stats() {
    SHALLOW_CLONES.store(0, Ordering::Relaxed);
    DEEP_COPIES.store(0, Ordering::Relaxed);
    DEEP_COPY_BYTES.store(0, Ordering::Relaxed);
}

/// An immutable shared byte buffer with an `(offset, len)` window.
///
/// Dereferences to `&[u8]`, so read paths (XDR decode, checksum, length
/// checks) are untouched. Equality and hashing are over the visible
/// window, not the backing allocation.
pub struct ByteBuf {
    // `Arc<Vec<u8>>` rather than `Arc<[u8]>`: wrapping the encoder's Vec
    // moves it (one pointer-sized allocation for the arc header) instead
    // of copying every payload byte into a fresh `ArcInner`, which at
    // millions of packets per run is the difference between sharing and
    // re-copying the whole wire volume.
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Clone for ByteBuf {
    fn clone(&self) -> Self {
        count_shallow();
        ByteBuf {
            data: Arc::clone(&self.data),
            off: self.off,
            len: self.len,
        }
    }
}

impl ByteBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        ByteBuf {
            data: Arc::new(Vec::new()),
            off: 0,
            len: 0,
        }
    }

    /// Wraps owned bytes without copying them: the encoder's Vec is moved
    /// into the shared allocation.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        ByteBuf {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }

    /// A sub-window sharing the same backing allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds this buffer's window.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "slice out of bounds");
        count_shallow();
        ByteBuf {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len,
        }
    }

    /// Mutable access to the window, copying first only when the backing
    /// allocation is shared. The hot cases — a packet fresh off the wire
    /// with a single owner, windowed or not — mutate in place; only a
    /// buffer another holder can still observe pays the copy.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Arc::get_mut(&mut self.data).is_none() {
            count_deep(self.len as u64);
            self.data = Arc::new(self.data[self.off..self.off + self.len].to_vec());
            self.off = 0;
        }
        // The arc is unique; mutate the window in place.
        let (off, len) = (self.off, self.len);
        &mut Arc::get_mut(&mut self.data)
            .expect("unique after COW")
            .as_mut_slice()[off..off + len]
    }

    /// Copies the window out into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self[..].to_vec()
    }
}

impl Default for ByteBuf {
    fn default() -> Self {
        ByteBuf::new()
    }
}

impl Deref for ByteBuf {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for ByteBuf {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for ByteBuf {
    fn from(v: Vec<u8>) -> Self {
        ByteBuf::from_vec(v)
    }
}

impl From<&[u8]> for ByteBuf {
    fn from(s: &[u8]) -> Self {
        ByteBuf::from_vec(s.to_vec())
    }
}

impl PartialEq for ByteBuf {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for ByteBuf {}

impl std::hash::Hash for ByteBuf {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl std::fmt::Debug for ByteBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ByteBuf({} bytes, rc={})",
            self.len,
            Arc::strong_count(&self.data)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_allocation() {
        let a = ByteBuf::from_vec(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(&a[..], &b[..]);
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn unique_mutation_is_in_place() {
        let mut a = ByteBuf::from_vec(vec![0u8; 64]);
        let ptr = a.data.as_ptr();
        a.make_mut()[5] = 9;
        assert_eq!(a.data.as_ptr(), ptr, "unique buffer must not reallocate");
        assert_eq!(a[5], 9);
    }

    #[test]
    fn shared_mutation_copies_on_write() {
        let mut a = ByteBuf::from_vec(vec![7u8; 16]);
        let b = a.clone();
        a.make_mut()[0] = 1;
        assert_eq!(a[0], 1);
        assert_eq!(b[0], 7, "clone unaffected by COW mutation");
    }

    #[test]
    fn unique_window_mutates_in_place() {
        let a = ByteBuf::from_vec((0..32u8).collect());
        let mut w = a.slice(8, 8);
        drop(a);
        // Sole owner of a windowed buffer: no copy, no reallocation.
        // Thread-local counters make this assertion immune to other
        // tests running concurrently in this process.
        let (_, deep_before, bytes_before) = local_clone_stats();
        let ptr = Arc::as_ptr(&w.data);
        w.make_mut()[0] = 99;
        let (_, deep_after, bytes_after) = local_clone_stats();
        assert_eq!(deep_after, deep_before, "unique window must not copy");
        assert_eq!(bytes_after, bytes_before);
        assert_eq!(Arc::as_ptr(&w.data), ptr, "must not reallocate");
        assert_eq!(w[0], 99);
        assert_eq!(w[1], 9, "rest of window intact");
    }

    #[test]
    fn shared_window_copy_is_counted_locally() {
        let a = ByteBuf::from_vec(vec![3u8; 24]);
        let mut w = a.slice(4, 16);
        let (_, deep_before, bytes_before) = local_clone_stats();
        w.make_mut()[0] = 1;
        let (_, deep_after, bytes_after) = local_clone_stats();
        assert_eq!(deep_after, deep_before + 1);
        assert_eq!(bytes_after, bytes_before + 16);
        assert_eq!(a[4], 3, "parent untouched by COW");
    }

    #[test]
    fn slice_windows_share_and_compare() {
        let a = ByteBuf::from_vec((0..32u8).collect());
        let w = a.slice(8, 8);
        assert_eq!(&w[..], &(8..16u8).collect::<Vec<_>>()[..]);
        assert!(Arc::ptr_eq(&a.data, &w.data));
        let mut m = w.clone();
        m.make_mut()[0] = 99;
        assert_eq!(a[8], 8, "window COW leaves parent intact");
        assert_eq!(m[0], 99);
    }
}
