//! The **plan cache**: the paper's computational reuse, pushed one level
//! up the stack.
//!
//! TQSim reuses intermediate *states* across the shots of one run; this
//! cache reuses *plans* across every job an [`Engine`] is given — the jobs
//! of one batch, the batches after it, and (through the `tqsim-service`
//! front-end, which plans through its engine's cache) every client request
//! the service ever sees. DCP planning, subcircuit materialisation and
//! `CompiledCircuit` fusion all happen on the first request for a key and
//! are replayed everywhere else.
//!
//! Keying: `(circuit fingerprint, noise model, strategy, shots)`.
//! The fingerprint ([`Circuit::fingerprint`]) is a stable content hash, so
//! structurally equal circuits hit regardless of how or where they were
//! built; the remaining components are compared by value (two noise models
//! or DCP configs differing in any parameter are distinct plans). `shots`
//! is part of the key because the planned tree shape depends on the shot
//! budget. Nothing else a job carries reaches [`JobPlan::plan`], so
//! nothing else is keyed. Fingerprint collisions cannot alias plans:
//! entries store the full circuit and compare it by content on lookup.
//!
//! Each key has one entry: planning while one thread plans it (a same-key
//! lookup waits on it), then ready. Eviction is LRU over the ready entries
//! with a fixed capacity ([`PLAN_CACHE_CAPACITY`] for an engine's cache). Hits, misses, evictions and compiles are counted into
//! `tqsim_plan_cache_*_total` counters of the registry the cache is built
//! with; [`PlanCache::stats`] reads them back as [`CacheStats`].
//!
//! [`Engine`]: crate::Engine
//! [`PLAN_CACHE_CAPACITY`]: crate::PLAN_CACHE_CAPACITY

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use tqsim::{PlanError, Strategy};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;
use tqsim_obs::{Counter, Registry};

use crate::JobPlan;

/// The full cache key (the fingerprint is compared first; the rest
/// disambiguates fingerprint collisions and distinct planning inputs).
#[derive(Clone, Debug)]
pub struct PlanKey {
    /// Stable content hash of the circuit.
    pub fingerprint: u64,
    /// The circuit itself (content-compared on lookup so a fingerprint
    /// collision can never alias two different circuits to one plan).
    pub circuit: Arc<Circuit>,
    /// Noise model the plan is compiled against.
    pub noise: NoiseModel,
    /// Partition strategy (DCP config compared by value).
    pub strategy: Strategy,
    /// Shot budget (the planned tree shape depends on it).
    pub shots: u64,
}

impl PlanKey {
    /// The key for planning `circuit` under `noise` with `strategy` for
    /// `shots` (fingerprints the circuit).
    pub fn new(circuit: Arc<Circuit>, noise: NoiseModel, strategy: Strategy, shots: u64) -> Self {
        PlanKey {
            fingerprint: circuit.fingerprint(),
            circuit,
            noise,
            strategy,
            shots,
        }
    }

    fn matches(&self, other: &PlanKey) -> bool {
        self.fingerprint == other.fingerprint
            && self.shots == other.shots
            && self.noise == other.noise
            && self.strategy == other.strategy
            && (Arc::ptr_eq(&self.circuit, &other.circuit) || self.circuit == other.circuit)
    }
}

/// Counter snapshot of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (no planning, no compilation).
    pub hits: u64,
    /// Lookups that had to plan + compile.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Plans compiled over the cache's lifetime (equals `misses` unless a
    /// planning error prevented insertion).
    pub compiled: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// What a key's entry holds.
enum Slot {
    /// Being planned; a same-key lookup waits on it (single flight).
    Planning,
    /// The resident plan.
    Ready(Arc<JobPlan>),
}

struct Entry {
    key: PlanKey,
    slot: Slot,
    /// Logical timestamp of the last hit (monotone counter, not wall time).
    last_used: u64,
}

struct Inner {
    /// One entry per key, resident or in flight.
    entries: Vec<Entry>,
    clock: u64,
}

impl Inner {
    /// The entry whose key has `fingerprint` and satisfies `same` (checked
    /// only on a fingerprint match) — the one lookup every caller shares.
    fn find(&self, fingerprint: u64, same: impl Fn(&PlanKey) -> bool) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.key.fingerprint == fingerprint && same(&e.key))
    }

    /// The entry for `key`, counting a use of it.
    fn touch(&mut self, key: &PlanKey) -> Option<usize> {
        self.clock += 1;
        let pos = self.find(key.fingerprint, |k| k.matches(key))?;
        self.entries[pos].last_used = self.clock;
        Some(pos)
    }

    /// Resident plans, in entry order (entries still planning are skipped).
    fn resident(&self) -> impl Iterator<Item = (usize, &Entry)> {
        let ready = |(_, e): &(usize, &Entry)| matches!(e.slot, Slot::Ready(_));
        self.entries.iter().enumerate().filter(ready)
    }
}

/// A bounded, thread-safe, LRU plan cache. See the [module docs](self).
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    /// Wakes waiters when an in-flight planning attempt lands or fails.
    landed: Condvar,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    compiled: Arc<Counter>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans, counting into
    /// `registry`'s `tqsim_plan_cache_{hits,misses,evictions,compiled}_total`.
    pub fn new(capacity: usize, registry: &Registry) -> Self {
        let c = |what: &str| registry.counter(&format!("tqsim_plan_cache_{what}_total"), &[]);
        PlanCache {
            capacity,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                clock: 0,
            }),
            landed: Condvar::new(),
            hits: c("hits"),
            misses: c("misses"),
            evictions: c("evictions"),
            compiled: c("compiled"),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("plan cache lock")
    }

    /// Look up the plan for `key`, planning and compiling on a miss.
    ///
    /// Lookups are **single-flight**: concurrent misses on the *same* key
    /// wait for the first planner and then hit (one compile, N−1 hits —
    /// deterministic accounting regardless of dispatch concurrency), while
    /// misses on *different* keys plan fully in parallel (planning happens
    /// outside the cache lock).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the inputs are unplannable (the error is
    /// not cached; a later identical request retries).
    pub fn get_or_plan(&self, key: &PlanKey) -> Result<Arc<JobPlan>, PlanError> {
        let mut inner = self.lock();
        loop {
            match inner.touch(key).map(|pos| &inner.entries[pos].slot) {
                Some(Slot::Ready(plan)) => {
                    self.hits.inc();
                    return Ok(Arc::clone(plan));
                }
                // Someone is already planning this key: wait for it to
                // land (→ hit on re-check) or fail (→ we take over).
                Some(Slot::Planning) => inner = self.landed.wait(inner).expect("plan cache cv"),
                None => break,
            }
        }
        // Ours to plan: hold the key's entry and count the miss.
        inner.entries.push(Entry {
            key: key.clone(),
            slot: Slot::Planning,
            last_used: 0, // stamped when it lands
        });
        self.misses.inc();
        drop(inner);
        // Always settle the entry — also on an error return or a panic
        // inside planning — or same-key waiters would hang forever.
        let mut planning = Planning {
            cache: self,
            key,
            plan: None,
        };
        // Failpoint covering plan compilation (named for the service, whose
        // chaos tests arm it): this one *has* an error channel, so an
        // injected fault surfaces as a structured `PlanError` and fails
        // only the requesting job(s), never the service (and errors are
        // not cached — a retry replans).
        tqsim_faults::trigger("service.plan")
            .map_err(|fault| PlanError::BadConfig(fault.to_string()))?;
        // Plan outside the lock: planning is O(gates) and compilation is
        // O(gates · matrices); concurrent misses on *different* keys must
        // not serialize on the cache.
        let plan = Arc::new(JobPlan::plan(
            &key.circuit,
            &key.noise,
            key.shots,
            &key.strategy,
        )?);
        self.compiled.inc();
        planning.plan = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// Non-blocking lookup: a resident entry counts a hit and returns its
    /// plan; an absent **or currently in-flight** key returns `None`
    /// without counting anything (follow up with [`PlanCache::get_or_plan`]
    /// — off the fast path — which does the miss accounting and the
    /// single-flight wait). Lets a scheduler serve cache hits inline
    /// without ever risking a planning stall.
    pub fn try_get(&self, key: &PlanKey) -> Option<Arc<JobPlan>> {
        let mut inner = self.lock();
        let pos = inner.touch(key)?;
        match &inner.entries[pos].slot {
            Slot::Ready(plan) => {
                self.hits.inc();
                Some(Arc::clone(plan))
            }
            Slot::Planning => None,
        }
    }

    /// A shared copy of `circuit` to key a lookup with: the copy an entry
    /// already holds when its circuit is equal, else a fresh one. A caller
    /// that only borrows its circuits (a batch) so copies each one once
    /// per cache lifetime, not once per lookup.
    pub fn intern(&self, circuit: &Circuit) -> Arc<Circuit> {
        let fingerprint = circuit.fingerprint();
        let inner = self.lock();
        match inner.find(fingerprint, |k| *k.circuit == *circuit) {
            Some(pos) => Arc::clone(&inner.entries[pos].key.circuit),
            None => Arc::new(circuit.clone()),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let resident = self.lock().resident().count();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            compiled: self.compiled.get(),
            entries: resident,
        }
    }
}

/// Settles a key's `Planning` entry exactly once, when the planner
/// returns or unwinds: a landed plan becomes the entry's `Ready` slot
/// (evicting the least recently used resident plan past capacity), and a
/// failed attempt removes the entry. Either way same-key waiters wake.
struct Planning<'a> {
    cache: &'a PlanCache,
    key: &'a PlanKey,
    plan: Option<Arc<JobPlan>>,
}

impl Drop for Planning<'_> {
    fn drop(&mut self) {
        let cache = self.cache;
        let mut inner = cache.lock();
        let pos = inner
            .touch(self.key)
            .expect("a planning entry stays until it settles");
        match self.plan.take() {
            Some(plan) => {
                inner.entries[pos].slot = Slot::Ready(plan);
                if inner.resident().count() > cache.capacity {
                    let coldest = inner.resident().min_by_key(|(_, e)| e.last_used);
                    let pos = coldest.map(|(pos, _)| pos).expect("a resident plan");
                    inner.entries.swap_remove(pos);
                    cache.evictions.inc();
                }
            }
            None => drop(inner.entries.swap_remove(pos)),
        }
        cache.landed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqsim_circuit::generators;

    fn key(circuit: Arc<Circuit>, shots: u64) -> PlanKey {
        let strategy = Strategy::Custom {
            arities: vec![4, 3],
        };
        PlanKey::new(circuit, NoiseModel::sycamore(), strategy, shots)
    }

    #[test]
    fn second_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new(8, &Registry::new());
        let qft = Arc::new(generators::qft(6));
        let a = cache.get_or_plan(&key(Arc::clone(&qft), 12)).unwrap();
        // A separately built but structurally equal circuit also hits.
        let rebuilt = Arc::new(generators::qft(6));
        let b = cache.get_or_plan(&key(rebuilt, 12)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "one compilation, shared everywhere");
        // A borrowed equal circuit interns to the resident copy.
        assert!(Arc::ptr_eq(&cache.intern(&generators::qft(6)), &qft));
        assert!(!Arc::ptr_eq(&cache.intern(&generators::bv(6)), &qft));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiled), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn distinct_inputs_are_distinct_plans() {
        let cache = PlanCache::new(8, &Registry::new());
        let qft = Arc::new(generators::qft(6));
        let bv = Arc::new(generators::bv(6));
        cache.get_or_plan(&key(Arc::clone(&qft), 12)).unwrap();
        cache.get_or_plan(&key(Arc::clone(&bv), 12)).unwrap();
        cache.get_or_plan(&key(qft, 24)).unwrap(); // shots differ
        let stats = cache.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = PlanCache::new(2, &Registry::new());
        let a = Arc::new(generators::qft(5));
        let b = Arc::new(generators::bv(5));
        let c = Arc::new(generators::qft(6));
        cache.get_or_plan(&key(Arc::clone(&a), 12)).unwrap();
        cache.get_or_plan(&key(Arc::clone(&b), 12)).unwrap();
        cache.get_or_plan(&key(Arc::clone(&a), 12)).unwrap(); // touch a
        cache.get_or_plan(&key(c, 12)).unwrap(); // evicts b (coldest)
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        cache.get_or_plan(&key(a, 12)).unwrap(); // still resident
        assert_eq!(cache.stats().hits, 2);
        cache.get_or_plan(&key(b, 12)).unwrap(); // was evicted ⇒ miss
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn concurrent_same_key_lookups_compile_once() {
        // Single-flight: N racing threads on one key must yield exactly
        // one compile, one miss and N−1 hits — the deterministic
        // accounting the engine and service tests assert on.
        let cache = Arc::new(PlanCache::new(8, &Registry::new()));
        let circuit = Arc::new(generators::qft(7));
        let threads = 8;
        let plans: Vec<Arc<JobPlan>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let circuit = Arc::clone(&circuit);
                    scope.spawn(move || cache.get_or_plan(&key(circuit, 12)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for plan in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], plan), "everyone shares one plan");
        }
        let stats = cache.stats();
        assert_eq!(stats.compiled, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, threads - 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn planning_errors_are_not_cached() {
        let cache = PlanCache::new(4, &Registry::new());
        let empty = Arc::new(Circuit::new(3));
        let k = key(empty, 12);
        assert!(cache.get_or_plan(&k).is_err());
        assert!(cache.get_or_plan(&k).is_err());
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "errors retry planning");
        assert_eq!(stats.compiled, 0);
        assert_eq!(stats.entries, 0);
    }
}
