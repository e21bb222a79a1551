//! Reusable state-buffer pools, generic over the execution backend.
//!
//! Tree execution materialises one `2^n`-amplitude buffer per node; doing a
//! heap allocation per node would dominate runtime for shallow circuits and
//! fragment the allocator at scale. A [`StatePool`] keeps released states
//! on a free list, keyed by register width, so steady-state execution
//! performs **zero state allocations**: a node acquires a buffer,
//! overwrites it via the no-realloc [`PooledState::copy_from`] /
//! [`PooledState::reset_zero`] APIs, and drops it back to the pool.
//!
//! The pool is generic over a [`PooledBackend`]: the default
//! [`SingleNode`] backend pools plain [`crate::StateVector`]s, while
//! `tqsim-cluster`'s backend pools distributed state vectors whose slices
//! span a simulated node group — the same pool (and the same `tqsim-engine`
//! executor above it) runs trees whose states exceed one node's memory.
//!
//! Pools are cheap cloneable handles (`Arc` inside), so one pool can be
//! shared across helpers, and a buffer returned from any thread finds its
//! way back to the pool it came from. Several pools (e.g. one per engine
//! worker) can additionally share one [`PoolCounters`] block, giving an
//! exact *global* high-water mark of concurrently live buffers — the
//! measured equivalent of the `(k + 1) · 16 · 2^n` analytical peak-memory
//! model.
//!
//! ```
//! use tqsim_statevec::{StatePool, StateVector};
//!
//! let pool = StatePool::new();
//! {
//!     let mut a = pool.acquire(4); // allocates: pool was empty
//!     a.reset_zero();
//!     assert_eq!(a.probability(0), 1.0);
//! } // drop returns the buffer
//! let _b = pool.acquire(4); // reused, no allocation
//! let stats = pool.stats();
//! assert_eq!((stats.allocations, stats.reuses), (1, 1));
//! assert_eq!(stats.high_water, 1);
//! ```

use crate::traits::{PooledBackend, QuantumState, SingleNode};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shared instrumentation for one or more [`StatePool`]s.
///
/// All counters are monotone except `outstanding`/`outstanding_bytes`
/// (currently live buffers); the high-water marks are the peaks since the
/// counters were made.
#[derive(Debug, Default)]
pub struct PoolCounters {
    allocations: AtomicU64,
    reuses: AtomicU64,
    outstanding: AtomicUsize,
    high_water: AtomicUsize,
    outstanding_bytes: AtomicUsize,
    high_water_bytes: AtomicUsize,
}

/// A point-in-time snapshot of [`PoolCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers ever allocated from the heap (the warm-up cost).
    pub allocations: u64,
    /// Acquisitions served from the free list (the reuse win).
    pub reuses: u64,
    /// Buffers currently checked out.
    pub outstanding: usize,
    /// Maximum simultaneously checked-out buffers since the counters were
    /// made.
    pub high_water: usize,
    /// Amplitude bytes currently checked out.
    pub outstanding_bytes: usize,
    /// Maximum simultaneously checked-out amplitude bytes since the
    /// counters were made.
    pub high_water_bytes: usize,
}

impl PoolCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Arc<PoolCounters> {
        Arc::new(PoolCounters::default())
    }

    fn on_checkout(&self, bytes: usize, reused: bool) {
        if reused {
            self.reuses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.allocations.fetch_add(1, Ordering::Relaxed);
        }
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        let now_bytes = self.outstanding_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.high_water_bytes
            .fetch_max(now_bytes, Ordering::Relaxed);
    }

    fn on_checkin(&self, bytes: usize) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.outstanding_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocations: self.allocations.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed),
            outstanding_bytes: self.outstanding_bytes.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
        }
    }
}

struct PoolShared<B: PooledBackend> {
    backend: B,
    /// Free buffers keyed by register width.
    free: Mutex<HashMap<u16, Vec<B::State>>>,
    counters: Arc<PoolCounters>,
}

/// A width-keyed free list of state buffers for one [`PooledBackend`]
/// (plain [`crate::StateVector`]s on the default [`SingleNode`] backend).
///
/// Cloning a `StatePool` clones the *handle*: both handles drain and refill
/// the same free list. See the [module docs](self) for the usage pattern.
pub struct StatePool<B: PooledBackend = SingleNode> {
    shared: Arc<PoolShared<B>>,
}

impl<B: PooledBackend> Clone for StatePool<B> {
    fn clone(&self) -> Self {
        StatePool {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Default for StatePool {
    fn default() -> Self {
        StatePool::new()
    }
}

impl<B: PooledBackend> std::fmt::Debug for StatePool<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        write!(
            f,
            "StatePool[alloc={} reuse={} live={}]",
            stats.allocations, stats.reuses, stats.outstanding
        )
    }
}

impl StatePool {
    /// An empty single-node pool with its own counters.
    pub fn new() -> Self {
        StatePool::with_counters(PoolCounters::new())
    }

    /// An empty single-node pool reporting into an externally shared
    /// counter block (lets several pools expose one aggregate high-water
    /// mark).
    pub fn with_counters(counters: Arc<PoolCounters>) -> Self {
        StatePool::with_backend(SingleNode, counters)
    }
}

impl<B: PooledBackend> StatePool<B> {
    /// An empty pool allocating through `backend`, reporting into an
    /// externally shared counter block.
    pub fn with_backend(backend: B, counters: Arc<PoolCounters>) -> Self {
        StatePool {
            shared: Arc::new(PoolShared {
                backend,
                free: Mutex::new(HashMap::new()),
                counters,
            }),
        }
    }

    /// The backend this pool allocates through.
    pub fn backend(&self) -> &B {
        &self.shared.backend
    }

    /// Check a buffer out of the pool.
    ///
    /// The returned buffer's **amplitudes are unspecified** (it is whatever
    /// some previous user left behind); callers must overwrite it via
    /// [`PooledState::copy_from`] or [`PooledState::reset_zero`] before
    /// use. Allocates only when no `n_qubits`-wide buffer is free.
    pub fn acquire(&self, n_qubits: u16) -> PooledState<B> {
        // Failpoint ahead of the free-list lookup — allocation is where a
        // real out-of-memory would surface. There is no error channel out
        // of `acquire`, so an injected error panics; inside the engine
        // that is contained by the worker's per-task `catch_unwind`.
        if let Err(fault) = tqsim_faults::trigger("pool.acquire") {
            panic!("{fault}");
        }
        let recycled = self
            .shared
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_mut(&n_qubits)
            .and_then(Vec::pop);
        let reused = recycled.is_some();
        let state = recycled.unwrap_or_else(|| self.shared.backend.allocate(n_qubits));
        self.shared
            .counters
            .on_checkout(self.shared.backend.state_bytes(&state), reused);
        PooledState {
            state: Some(state),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Pre-fill the free list with `count` zeroed buffers of width
    /// `n_qubits` (warm-up), counting them as allocations.
    pub fn prewarm(&self, n_qubits: u16, count: usize) {
        let mut free = self.shared.free.lock().expect("pool lock");
        let slot = free.entry(n_qubits).or_default();
        for _ in 0..count {
            self.shared
                .counters
                .allocations
                .fetch_add(1, Ordering::Relaxed);
            slot.push(self.shared.backend.allocate(n_qubits));
        }
    }

    /// Number of buffers currently on the free list (any width).
    pub fn free_buffers(&self) -> usize {
        self.shared
            .free
            .lock()
            .expect("pool lock")
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Counter snapshot (shared across pools created via
    /// [`StatePool::with_counters`] / [`StatePool::with_backend`]).
    pub fn stats(&self) -> PoolStats {
        self.shared.counters.stats()
    }

    /// The counter block this pool reports into.
    pub fn counters(&self) -> &Arc<PoolCounters> {
        &self.shared.counters
    }
}

/// An RAII checkout from a [`StatePool`]; dereferences to the backend's
/// state type and returns the buffer to its pool on drop (from any
/// thread).
pub struct PooledState<B: PooledBackend = SingleNode> {
    state: Option<B::State>,
    shared: Arc<PoolShared<B>>,
}

impl<B: PooledBackend> PooledState<B> {
    /// Reset the buffer to `|0…0⟩` in place (backend-routed; no
    /// reallocation).
    pub fn reset_zero(&mut self) {
        let state = self.state.as_mut().expect("buffer present until drop");
        self.shared.backend.reset_zero(state);
    }

    /// Overwrite the buffer with `src`'s contents (backend-routed; the
    /// tree's parent→child intermediate-state copy, no reallocation).
    ///
    /// # Panics
    ///
    /// Backends panic on layout mismatches (width or node count).
    pub fn copy_from(&mut self, src: &B::State) {
        let state = self.state.as_mut().expect("buffer present until drop");
        self.shared.backend.copy_into(state, src);
    }
}

impl<B: PooledBackend> Deref for PooledState<B> {
    type Target = B::State;

    fn deref(&self) -> &B::State {
        self.state.as_ref().expect("buffer present until drop")
    }
}

impl<B: PooledBackend> DerefMut for PooledState<B> {
    fn deref_mut(&mut self) -> &mut B::State {
        self.state.as_mut().expect("buffer present until drop")
    }
}

impl<B: PooledBackend> std::fmt::Debug for PooledState<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledState[{} qubits]", QuantumState::n_qubits(&**self))
    }
}

impl<B: PooledBackend> Drop for PooledState<B> {
    fn drop(&mut self) {
        let state = self.state.take().expect("double drop is impossible");
        self.shared
            .counters
            .on_checkin(self.shared.backend.state_bytes(&state));
        // Check-in runs while unwinding from task panics; recover from
        // poison rather than double-panic (which would abort) and keep
        // the buffer reusable — the free list is never left in a partial
        // state by a panicking holder.
        self.shared
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(QuantumState::n_qubits(&state))
            .or_default()
            .push(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_reuses_buffers() {
        let pool = StatePool::new();
        {
            let _a = pool.acquire(3);
            let _b = pool.acquire(3);
            assert_eq!(pool.stats().outstanding, 2);
            assert_eq!(pool.stats().high_water, 2);
        }
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.free_buffers(), 2);
        let _c = pool.acquire(3);
        let s = pool.stats();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.reuses, 1);
    }

    #[test]
    fn widths_are_kept_separate() {
        let pool = StatePool::new();
        drop(pool.acquire(3));
        let wide = pool.acquire(5);
        assert_eq!(wide.n_qubits(), 5);
        let s = pool.stats();
        assert_eq!(
            s.allocations, 2,
            "a 3-qubit buffer cannot serve a 5-qubit request"
        );
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn prewarm_then_steady_state_allocates_nothing() {
        let pool = StatePool::new();
        pool.prewarm(4, 3);
        let base = pool.stats().allocations;
        for _ in 0..100 {
            let _a = pool.acquire(4);
            let _b = pool.acquire(4);
            let _c = pool.acquire(4);
        }
        assert_eq!(
            pool.stats().allocations,
            base,
            "no allocation after warm-up"
        );
        assert_eq!(pool.stats().reuses, 300);
    }

    #[test]
    fn shared_counters_aggregate_across_pools() {
        let counters = PoolCounters::new();
        let a = StatePool::with_counters(Arc::clone(&counters));
        let b = StatePool::with_counters(Arc::clone(&counters));
        let ba = a.acquire(3);
        let bb = b.acquire(3);
        assert_eq!(counters.stats().high_water, 2);
        drop(ba);
        drop(bb);
        assert_eq!(counters.stats().outstanding, 0);
    }

    #[test]
    fn bytes_high_water_tracks_width() {
        let pool = StatePool::new();
        let a = pool.acquire(4); // 16 amps * 16 B = 256 B
        assert_eq!(pool.stats().high_water_bytes, 256);
        drop(a);
        let _b = pool.acquire(6); // 1 KiB
        assert_eq!(pool.stats().high_water_bytes, 1024);
    }

    #[test]
    fn cross_thread_checkin() {
        let pool = StatePool::new();
        let buf = pool.acquire(3);
        std::thread::spawn(move || drop(buf)).join().unwrap();
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.free_buffers(), 1);
    }

    #[test]
    fn backend_routed_reset_and_copy_match_inherent() {
        // PooledState::reset_zero / copy_from route through the backend
        // trait; on SingleNode they must behave exactly like the inherent
        // StateVector methods the executors used before the refactor.
        let pool = StatePool::new();
        let mut a = pool.acquire(3);
        a.reset_zero();
        assert_eq!(a.probability(0), 1.0);
        a.apply_gate(&tqsim_circuit::Gate::new(tqsim_circuit::GateKind::H, &[0]));
        let mut b = pool.acquire(3);
        b.copy_from(&a);
        assert_eq!(a.amplitudes(), b.amplitudes());
    }
}
