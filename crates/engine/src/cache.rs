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
//! Eviction is LRU with a fixed capacity ([`PLAN_CACHE_CAPACITY`] for an
//! engine's cache). Hits, misses, evictions and compiles are counted into
//! `tqsim_plan_cache_*_total` counters of the registry the cache is built
//! with; [`PlanCache::stats`] reads them back as [`CacheStats`].
//!
//! [`Engine`]: crate::Engine
//! [`PLAN_CACHE_CAPACITY`]: crate::PLAN_CACHE_CAPACITY

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard};
use tqsim::{PlanError, Strategy};
use tqsim_circuit::Circuit;
use tqsim_noise::NoiseModel;
use tqsim_obs::{Counter, Registry};

use crate::JobPlan;

/// The full cache key (the fingerprint is the index; the rest disambiguates
/// fingerprint collisions and distinct planning inputs).
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

struct Entry {
    key: PlanKey,
    plan: Arc<JobPlan>,
    /// Logical timestamp of the last hit (monotone counter, not wall time).
    last_used: u64,
}

struct Inner {
    /// Fingerprint-indexed buckets; collisions and same-circuit variant
    /// keys share a bucket and are separated by full-key comparison.
    buckets: HashMap<u64, Vec<Entry>>,
    /// Keys currently being planned by some thread (single-flight markers:
    /// a racing lookup of the same key waits instead of compiling twice).
    in_flight: Vec<PlanKey>,
    clock: u64,
    len: usize,
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
                buckets: HashMap::new(),
                in_flight: Vec::new(),
                clock: 0,
                len: 0,
            }),
            landed: Condvar::new(),
            hits: c("hits"),
            misses: c("misses"),
            evictions: c("evictions"),
            compiled: c("compiled"),
        }
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
        {
            let mut inner = self.inner.lock().expect("plan cache lock");
            loop {
                inner.clock += 1;
                let clock = inner.clock;
                if let Some(bucket) = inner.buckets.get_mut(&key.fingerprint) {
                    if let Some(entry) = bucket.iter_mut().find(|e| e.key.matches(key)) {
                        entry.last_used = clock;
                        let plan = Arc::clone(&entry.plan);
                        self.hits.inc();
                        return Ok(plan);
                    }
                }
                if !inner.in_flight.iter().any(|k| k.matches(key)) {
                    // Ours to plan: mark in-flight and count the miss.
                    inner.in_flight.push(key.clone());
                    self.misses.inc();
                    break;
                }
                // Someone is already planning this key: wait for it to
                // land (→ hit on re-check) or fail (→ we take over).
                inner = self.landed.wait(inner).expect("plan cache cv");
            }
        }
        // Always clear the in-flight marker — also on an error return or a
        // panic inside planning — or same-key waiters would hang forever.
        let unmark = InFlightGuard { cache: self, key };
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
        let mut inner = unmark.clear();
        self.compiled.inc();
        let clock = inner.clock;
        let bucket = inner.buckets.entry(key.fingerprint).or_default();
        bucket.push(Entry {
            key: key.clone(),
            plan: Arc::clone(&plan),
            last_used: clock,
        });
        inner.len += 1;
        if inner.len > self.capacity && evict_lru(&mut inner) {
            self.evictions.inc();
        }
        Ok(plan)
    }

    /// Non-blocking lookup: a resident entry counts a hit and returns its
    /// plan; an absent **or currently in-flight** key returns `None`
    /// without counting anything (follow up with [`PlanCache::get_or_plan`]
    /// — off the fast path — which does the miss accounting and the
    /// single-flight wait). Lets a scheduler serve cache hits inline
    /// without ever risking a planning stall.
    pub fn try_get(&self, key: &PlanKey) -> Option<Arc<JobPlan>> {
        let mut inner = self.inner.lock().expect("plan cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        let entry = inner
            .buckets
            .get_mut(&key.fingerprint)?
            .iter_mut()
            .find(|e| e.key.matches(key))?;
        entry.last_used = clock;
        let plan = Arc::clone(&entry.plan);
        self.hits.inc();
        Some(plan)
    }

    /// A shared copy of `circuit` to key a lookup with: the resident copy
    /// when an entry already holds an equal circuit, else a fresh one. A
    /// caller that only borrows its circuits (a batch) so copies each one
    /// once per cache lifetime, not once per lookup.
    pub fn intern(&self, circuit: &Circuit) -> Arc<Circuit> {
        let inner = self.inner.lock().expect("plan cache lock");
        inner
            .buckets
            .get(&circuit.fingerprint())
            .and_then(|bucket| bucket.iter().find(|e| *e.key.circuit == *circuit))
            .map(|e| Arc::clone(&e.key.circuit))
            .unwrap_or_else(|| Arc::new(circuit.clone()))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            compiled: self.compiled.get(),
            entries: self.inner.lock().expect("plan cache lock").len,
        }
    }
}

/// Clears a single-flight marker exactly once: explicitly via
/// [`InFlightGuard::clear`] on success, or on drop for the error/unwind
/// paths — either way same-key waiters are woken.
struct InFlightGuard<'a> {
    cache: &'a PlanCache,
    key: &'a PlanKey,
}

impl<'a> InFlightGuard<'a> {
    /// Remove the marker and hand the (re-acquired) cache lock to the
    /// caller for the insert, consuming the drop obligation.
    fn clear(self) -> MutexGuard<'a, Inner> {
        let mut inner = self.cache.inner.lock().expect("plan cache lock");
        remove_marker(&mut inner, self.key);
        self.cache.landed.notify_all();
        std::mem::forget(self);
        inner
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.cache.inner.lock().expect("plan cache lock");
        remove_marker(&mut inner, self.key);
        self.cache.landed.notify_all();
    }
}

fn remove_marker(inner: &mut Inner, key: &PlanKey) {
    if let Some(pos) = inner.in_flight.iter().position(|k| k.matches(key)) {
        inner.in_flight.swap_remove(pos);
    }
}

/// Drop the least recently used entry; whether one was dropped.
fn evict_lru(inner: &mut Inner) -> bool {
    let victim = inner
        .buckets
        .iter()
        .flat_map(|(fp, bucket)| bucket.iter().map(move |e| (*fp, e.last_used)))
        .min_by_key(|&(_, used)| used);
    if let Some((fp, used)) = victim {
        let bucket = inner.buckets.get_mut(&fp).expect("victim bucket");
        if let Some(pos) = bucket.iter().position(|e| e.last_used == used) {
            bucket.remove(pos);
            if bucket.is_empty() {
                inner.buckets.remove(&fp);
            }
            inner.len -= 1;
            return true;
        }
    }
    false
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
