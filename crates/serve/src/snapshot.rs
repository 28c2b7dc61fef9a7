//! The lock-free snapshot slot: an epoch-stamped double buffer that
//! decouples healing (one writer per shard) from topology queries (any
//! number of readers).
//!
//! # Protocol
//!
//! A [`SnapSlot`] owns two buffers, a per-buffer reader pin count, and
//! one state word packing `(epoch << 1) | active_index`:
//!
//! - **Readers** ([`SnapshotReader::read`]): load the state word, pin
//!   the active buffer (`fetch_add` its count), then *re-validate* the
//!   state word. Unchanged ⇒ the pinned buffer is still the published
//!   one, read it and unpin. Changed ⇒ unpin **without touching the
//!   buffer** and retry. No locks, no blocking: a reader retries only
//!   if a publish landed between load and pin, and the epoch in the
//!   state word makes the check ABA-proof (the same buffer index never
//!   reappears with the same word).
//! - **The writer** ([`SnapshotWriter::publish`], unique by
//!   construction — the handle is not `Clone` and `publish` takes
//!   `&mut self`): wait until the *inactive* buffer's pin count drains
//!   to zero, refill it in place (allocations are reused — the fill
//!   closure gets `&mut T`), then swap by storing
//!   `((epoch + 1) << 1) | inactive`.
//!
//! A straggling reader may transiently pin the buffer the writer wants
//! (pinned under a stale state word), but its validation is then
//! guaranteed to fail and it unpins without dereferencing — so the
//! writer's wait is bounded by reader critical sections, and readers
//! never observe a torn buffer. While a reader holds a buffer, the
//! *next* publish targets that buffer and blocks, so data handed out is
//! never more than one epoch behind the published state.
//!
//! # Memory ordering
//!
//! The publish/pin handshake is a Dekker-style store→load pattern on
//! two different atomics: the writer *stores* the state word and, on
//! its next publish, *loads* the other buffer's pin count; a reader
//! *stores* (increments) a pin count and then *loads* the state word
//! back. Acquire/release alone does not forbid the outcome where both
//! loads miss the other side's store — store→load reordering across
//! distinct locations is allowed even on x86-TSO — which would let the
//! writer see a pin count of zero while the reader's re-validation
//! still sees the stale state word: the writer refills the buffer the
//! reader is dereferencing. The four accesses on that path (the
//! publish store, the writer's pin-count wait load, the reader's pin
//! `fetch_add`, and the reader's re-validation load) are therefore
//! `SeqCst`: the single total order over them forces either the
//! reader's pin before the writer's wait load (the writer blocks) or
//! the publish store before the re-validation (the reader unpins and
//! retries). Everything else needs only acquire/release.
//!
//! `crates/serve/tests/loom.rs` model-checks this file's protocol
//! (torn reads, staleness bound, writer starvation) across every
//! *sequentially consistent* interleaving via the `--cfg loom` type
//! swap below. The vendored model does not simulate weak-memory
//! reordering, so it cannot vouch for the ordering choice above — the
//! SeqCst handshake is load-bearing precisely because the model only
//! covers the SC subset.

use std::cell::UnsafeCell;
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Block until `a` reads zero. Under the model this is one schedule
/// point with a readiness predicate (no spin-loop state-space blowup);
/// outside it, a yielding spin — publishes are long compared to reads,
/// so the wait is almost always already satisfied. The load is SeqCst:
/// it is the writer-side load of the Dekker handshake (see the module
/// docs) and must be totally ordered against the readers' pins.
fn wait_zero(a: &AtomicUsize) {
    #[cfg(loom)]
    a.wait_until(|v| v == 0);
    #[cfg(not(loom))]
    while a.load(Ordering::SeqCst) != 0 {
        std::thread::yield_now();
    }
}

/// The shared double buffer. Use [`slot_pair`] to create one and split
/// it into its writer and reader handles.
pub struct SnapSlot<T> {
    bufs: [UnsafeCell<T>; 2],
    readers: [AtomicUsize; 2],
    /// `(epoch << 1) | active_index`.
    state: AtomicUsize,
}

// SAFETY: the epoch/pin protocol documented on the module makes every
// `&mut` access to a buffer exclusive (writer fills only the inactive
// buffer after its pin count drains, readers only dereference a buffer
// they pinned *and* re-validated as active). The SC interleavings of
// the protocol are model-checked by crates/serve/tests/loom.rs;
// weak-memory store→load reorderings are excluded by the SeqCst
// publish/pin handshake (module docs, "Memory ordering").
unsafe impl<T: Send + Sync> Sync for SnapSlot<T> {}
// SAFETY: the slot owns its buffers; moving it moves plain owned data.
unsafe impl<T: Send> Send for SnapSlot<T> {}

impl<T> SnapSlot<T> {
    /// The epoch of the currently published buffer (starts at 0,
    /// increments once per publish).
    pub fn epoch(&self) -> usize {
        self.state.load(Ordering::Acquire) >> 1
    }
}

/// Create a slot from two initial buffer values (buffer 0 is published
/// first) and split it into the unique writer and a cloneable reader.
pub fn slot_pair<T>(active: T, spare: T) -> (SnapshotWriter<T>, SnapshotReader<T>) {
    let slot = Arc::new(SnapSlot {
        bufs: [UnsafeCell::new(active), UnsafeCell::new(spare)],
        readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
        state: AtomicUsize::new(0),
    });
    (
        SnapshotWriter { slot: slot.clone() },
        SnapshotReader { slot },
    )
}

/// The unique publishing handle for one [`SnapSlot`]. Deliberately not
/// `Clone`, and [`publish`](SnapshotWriter::publish) takes `&mut self`:
/// the single-writer requirement of the protocol is enforced by the
/// type system, not by convention.
pub struct SnapshotWriter<T> {
    slot: Arc<SnapSlot<T>>,
}

impl<T> SnapshotWriter<T> {
    /// Refill the spare buffer via `fill` (which receives the previous
    /// contents — reuse its allocations) and atomically publish it,
    /// advancing the epoch by one. Blocks only while a reader still
    /// pins the spare buffer, which the protocol bounds to one read
    /// critical section.
    pub fn publish(&mut self, fill: impl FnOnce(&mut T)) {
        let slot = &*self.slot;
        let state = slot.state.load(Ordering::Acquire);
        let inactive = (state & 1) ^ 1;
        wait_zero(&slot.readers[inactive]);
        // SAFETY: we are the unique writer (`&mut self` on a non-Clone
        // handle) and no reader can dereference `bufs[inactive]` from
        // here to the store below: dereferencing requires pin +
        // re-validation against the *current* state word, whose active
        // index is `inactive ^ 1` and which only we can change. Pins
        // taken under an older state word fail validation and release
        // without touching the buffer — and the SeqCst handshake
        // (module docs) guarantees any pin our wait_zero missed has its
        // re-validation ordered after our previous publish store, so it
        // does fail.
        fill(unsafe { &mut *slot.bufs[inactive].get() });
        let next = ((state & !1usize).wrapping_add(2)) | inactive;
        // SeqCst, not Release: this store is the writer's side of the
        // Dekker handshake with the readers' pin/re-validate sequence.
        slot.state.store(next, Ordering::SeqCst);
    }

    /// The published epoch (see [`SnapSlot::epoch`]).
    pub fn epoch(&self) -> usize {
        self.slot.epoch()
    }
}

/// A cloneable, lock-free reading handle for one [`SnapSlot`].
pub struct SnapshotReader<T> {
    slot: Arc<SnapSlot<T>>,
}

impl<T> Clone for SnapshotReader<T> {
    fn clone(&self) -> Self {
        SnapshotReader {
            slot: self.slot.clone(),
        }
    }
}

impl<T> SnapshotReader<T> {
    /// Run `f` against the currently published snapshot, returning its
    /// result tagged with the snapshot's epoch. Takes no lock and never
    /// observes a torn buffer; retries (only when a publish raced the
    /// pin) are bounded by publish frequency. While `f` runs, the
    /// writer's next publish waits for it (module docs).
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> (usize, R) {
        let slot = &*self.slot;
        loop {
            let state = slot.state.load(Ordering::Acquire);
            let idx = state & 1;
            // dispatch-ok: reader pin count, not an index dispenser; the
            // increment publishes nothing by itself — it only holds the
            // writer out of this buffer until the matching fetch_sub.
            // SeqCst: the pin and the re-validation below are the reader
            // side of the Dekker handshake (module docs) and must be
            // totally ordered against the writer's store/wait pair.
            // SC interleavings model-checked by crates/serve/tests/loom.rs.
            slot.readers[idx].fetch_add(1, Ordering::SeqCst);
            if slot.state.load(Ordering::SeqCst) == state {
                // SAFETY: the pin was taken *and* the state word
                // re-validated (both SeqCst — see the module's memory-
                // ordering section), so `bufs[idx]` is the published
                // buffer and the writer will not touch it until the pin
                // below is released (its publish waits for this count).
                let out = f(unsafe { &*slot.bufs[idx].get() });
                slot.readers[idx].fetch_sub(1, Ordering::Release);
                return (state >> 1, out);
            }
            // A publish landed between load and pin: release without
            // dereferencing and retry against the new state word.
            slot.readers[idx].fetch_sub(1, Ordering::Release);
        }
    }

    /// Clone out the published snapshot (convenience over
    /// [`read`](SnapshotReader::read)).
    pub fn get(&self) -> (usize, T)
    where
        T: Clone,
    {
        self.read(T::clone)
    }

    /// The published epoch (see [`SnapSlot::epoch`]).
    pub fn epoch(&self) -> usize {
        self.slot.epoch()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn publish_advances_the_epoch_and_readers_see_the_latest_value() {
        let (mut w, r) = slot_pair(0u64, 0u64);
        assert_eq!(r.get(), (0, 0));
        for i in 1..=5u64 {
            w.publish(|buf| *buf = i);
            assert_eq!(r.epoch(), i as usize);
            assert_eq!(r.get(), (i as usize, i));
        }
    }

    #[test]
    fn fill_receives_the_stale_buffer_for_allocation_reuse() {
        let (mut w, r) = slot_pair(vec![0u32; 4], vec![0u32; 4]);
        let spare_cap = 4;
        w.publish(|buf| {
            assert_eq!(buf.capacity(), spare_cap, "spare buffer handed back");
            buf.clear();
            buf.extend([1, 2]);
        });
        assert_eq!(r.get().1, vec![1, 2]);
        // The next publish gets the *other* buffer (the original
        // active one), also with its allocation intact.
        w.publish(|buf| {
            assert_eq!(buf.capacity(), spare_cap);
            buf.clear();
            buf.push(9);
        });
        assert_eq!(r.get(), (2, vec![9]));
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_pair() {
        // Publish (i, i) pairs under churn; any mixed pair is a torn
        // read. A stress test, not a proof — the proof is the loom
        // model in tests/loom.rs.
        let (mut w, r) = slot_pair((0u64, 0u64), (0u64, 0u64));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = r.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut last_epoch = 0;
                    while !stop.load(std::sync::atomic::Ordering::Acquire) {
                        let (epoch, (a, b)) = r.get();
                        assert_eq!(a, b, "torn read at epoch {epoch}");
                        assert!(epoch >= last_epoch, "epoch went backwards");
                        last_epoch = epoch;
                    }
                });
            }
            for i in 1..=20_000u64 {
                w.publish(|buf| *buf = (i, i));
            }
            stop.store(true, std::sync::atomic::Ordering::Release);
        });
        assert_eq!(w.epoch(), 20_000);
    }
}
