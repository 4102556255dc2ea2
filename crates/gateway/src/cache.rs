//! Content-addressed artifact cache with single-flight computation.
//!
//! The gateway's expensive artifacts — phase-1 collected traffic and
//! phase-2 window analyses — are pure functions of a content address
//! (application digest + parameter-key fingerprints). This cache
//! memoises them process-wide with two guarantees:
//!
//! * **Single-flight**: when several requests need the same missing key
//!   concurrently, exactly one computes it; the others block on the
//!   in-flight computation and share its result. A thundering herd of
//!   identical requests costs one reference simulation, not N.
//! * **Exactly-one classification**: every [`SingleFlightCache::get_or_compute`]
//!   call is counted as exactly one of *hit* (value was resident),
//!   *miss* (this call computed it) or *inflight wait* (this call
//!   blocked on another's computation), so
//!   `hits + misses + inflight_waits == calls` — the invariant the
//!   integration tests assert through `/stats` to prove deduplication
//!   actually happened.
//!
//! Eviction is least-recently-used over **ready** entries once the
//! capacity is exceeded; in-flight slots are never evicted (a waiter is
//! parked on them). If a computation panics, its slot is removed and
//! all waiters wake; the first to re-try recomputes (still counted
//! under its original classification — the invariant holds per call).

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// A point-in-time counter snapshot, surfaced at `/stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls answered from a resident value.
    pub hits: u64,
    /// Calls that computed the value themselves.
    pub misses: u64,
    /// Calls that blocked on another call's in-flight computation.
    pub inflight_waits: u64,
    /// Ready entries currently resident.
    pub entries: usize,
    /// Configured capacity (ready entries).
    pub capacity: usize,
}

enum Slot<V> {
    /// Some call is computing this value right now.
    InFlight,
    /// The value is resident; `last_used` orders LRU eviction.
    Ready { value: Arc<V>, last_used: u64 },
}

struct Inner<K, V> {
    map: HashMap<K, Slot<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    inflight_waits: u64,
}

/// See the module docs.
pub struct SingleFlightCache<K, V> {
    inner: Mutex<Inner<K, V>>,
    ready: Condvar,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> SingleFlightCache<K, V> {
    /// Creates a cache holding at most `capacity` ready entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                inflight_waits: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Returns the value for `key`, computing it at most once across all
    /// concurrent callers (see the module docs for the hit/miss/wait
    /// accounting contract).
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
        match self.get_or_try_compute(key, || Ok::<V, Infallible>(compute())) {
            Ok(value) => value,
            Err(never) => match never {},
        }
    }

    /// [`SingleFlightCache::get_or_compute`] for a computation that may
    /// refuse. An `Err` is returned to the computing call and leaves no
    /// entry: parked waiters wake and compute for themselves, as after a
    /// panic. Every call is still classified exactly once.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returned, when this call ran it.
    pub fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        let mut compute = Some(compute);
        // A call is classified exactly once; a waiter that later finds
        // the slot gone (computation panicked) recomputes without being
        // re-counted, preserving hits + misses + waits == calls.
        let mut classified_wait = false;
        let mut guard = self.inner.lock().expect("cache lock");
        loop {
            let inner = &mut *guard;
            match inner.map.get_mut(&key) {
                Some(Slot::Ready { value, last_used }) => {
                    inner.tick += 1;
                    *last_used = inner.tick;
                    if !classified_wait {
                        inner.hits += 1;
                    }
                    return Ok(Arc::clone(value));
                }
                Some(Slot::InFlight) => {
                    if !classified_wait {
                        inner.inflight_waits += 1;
                        classified_wait = true;
                    }
                    guard = self.ready.wait(guard).expect("cache lock");
                }
                None => {
                    if !classified_wait {
                        inner.misses += 1;
                    }
                    inner.map.insert(key.clone(), Slot::InFlight);
                    drop(guard);

                    // Compute outside the lock; the drop guard clears the
                    // slot and wakes waiters if `compute` unwinds or
                    // refuses, so a waiter can take over instead of
                    // parking forever.
                    let mut cleanup = InFlightGuard {
                        cache: self,
                        key: &key,
                        armed: true,
                    };
                    let value = Arc::new((compute.take().expect("compute runs once"))()?);
                    cleanup.armed = false;
                    drop(cleanup);

                    let mut guard = self.inner.lock().expect("cache lock");
                    let inner = &mut *guard;
                    inner.tick += 1;
                    let tick = inner.tick;
                    inner.map.insert(
                        key,
                        Slot::Ready {
                            value: Arc::clone(&value),
                            last_used: tick,
                        },
                    );
                    Self::evict_over_capacity(inner, self.capacity);
                    drop(guard);
                    self.ready.notify_all();
                    return Ok(value);
                }
            }
        }
    }

    /// Looks `key` up without computing on a miss — the read side of
    /// stores whose values are deposited with [`SingleFlightCache::insert`]
    /// rather than computed in-line (the gateway's re-synthesis artifact
    /// store: a missing artifact is the *client's* problem, answered
    /// `404`, never recomputed server-side). Counts one hit or miss and
    /// refreshes the entry's LRU position on a hit. An in-flight slot
    /// counts as a miss (nothing resident to return).
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let mut inner = self.inner.lock().expect("cache lock");
        let inner = &mut *inner;
        match inner.map.get_mut(key) {
            Some(Slot::Ready { value, last_used }) => {
                inner.tick += 1;
                *last_used = inner.tick;
                inner.hits += 1;
                Some(Arc::clone(value))
            }
            Some(Slot::InFlight) | None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Deposits a ready value for `key`, replacing any resident entry
    /// and evicting LRU entries over capacity. Counts neither hit nor
    /// miss — classification belongs to lookups. A waiter parked on an
    /// in-flight slot for this key is *not* satisfied by the deposit
    /// (the slot is replaced; the computing call still overwrites it on
    /// completion) — deposit-only keys and single-flight keys should not
    /// be mixed.
    pub fn insert(&self, key: K, value: Arc<V>) {
        let mut guard = self.inner.lock().expect("cache lock");
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Slot::Ready {
                value,
                last_used: tick,
            },
        );
        Self::evict_over_capacity(inner, self.capacity);
    }

    /// Evicts least-recently-used ready entries until at most `capacity`
    /// remain (in-flight slots are untouched and uncounted).
    fn evict_over_capacity(inner: &mut Inner<K, V>, capacity: usize) {
        // The map holds the ready entries plus any in-flight slots, so a
        // map within capacity needs no count: an unbounded store (a
        // replay engine's) never scans on insert.
        if inner.map.len() <= capacity {
            return;
        }
        loop {
            let ready = inner
                .map
                .iter()
                .filter(|(_, slot)| matches!(slot, Slot::Ready { .. }))
                .count();
            if ready <= capacity {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((*last_used, k)),
                    Slot::InFlight => None,
                })
                .min_by_key(|&(last_used, _)| last_used)
                .map(|(_, k)| k.clone())
                .expect("ready count > capacity >= 1");
            inner.map.remove(&victim);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            inflight_waits: inner.inflight_waits,
            entries: inner
                .map
                .values()
                .filter(|slot| matches!(slot, Slot::Ready { .. }))
                .count(),
            capacity: self.capacity,
        }
    }
}

/// Removes the in-flight slot and wakes waiters if the computation
/// unwinds or refuses (disarmed on success).
struct InFlightGuard<'a, K: Eq + Hash + Clone, V> {
    cache: &'a SingleFlightCache<K, V>,
    key: &'a K,
    armed: bool,
}

impl<K: Eq + Hash + Clone, V> Drop for InFlightGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            let mut inner = self.cache.inner.lock().expect("cache lock");
            inner.map.remove(self.key);
            drop(inner);
            self.cache.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn concurrent_identical_keys_compute_once() {
        let cache = Arc::new(SingleFlightCache::<u64, u64>::new(8));
        let computed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                thread::spawn(move || {
                    *cache.get_or_compute(7, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Hold the in-flight window open long enough for
                        // the other threads to arrive and park.
                        thread::sleep(std::time::Duration::from_millis(30));
                        49
                    })
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().expect("thread"), 49);
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single flight");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.misses + stats.inflight_waits, 8);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn refused_computation_leaves_no_entry() {
        let cache = SingleFlightCache::<u64, u64>::new(4);
        assert_eq!(
            cache.get_or_try_compute(3, || Err("too large")),
            Err("too large")
        );
        assert_eq!(cache.stats().entries, 0);
        // The next call computes afresh; both calls count as misses.
        let value = cache
            .get_or_try_compute(3, || Ok::<_, &str>(9))
            .expect("computes");
        assert_eq!(*value, 9);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (2, 0, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = SingleFlightCache::<u32, u32>::new(2);
        cache.get_or_compute(1, || 10);
        cache.get_or_compute(2, || 20);
        cache.get_or_compute(1, || unreachable!("hit")); // warms key 1
        cache.get_or_compute(3, || 30); // evicts key 2 (coldest)
        assert_eq!(cache.stats().entries, 2);
        let recomputed = AtomicUsize::new(0);
        cache.get_or_compute(1, || {
            recomputed.fetch_add(1, Ordering::SeqCst);
            0
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 0, "key 1 survived");
        cache.get_or_compute(2, || {
            recomputed.fetch_add(1, Ordering::SeqCst);
            20
        });
        assert_eq!(recomputed.load(Ordering::SeqCst), 1, "key 2 was evicted");
    }

    #[test]
    fn eviction_under_capacity_pressure_follows_recency_order() {
        // Fill to capacity, then push three more keys: evictions must
        // strike in exact least-recently-*used* order, where touches
        // (hits) count as uses, not just insertions. Misses (`get` on an
        // absent key) never perturb recency, so each round's probe is
        // side-effect-free.
        let cache = SingleFlightCache::<u32, u32>::new(3);
        for k in [1u32, 2, 3] {
            cache.insert(k, Arc::new(k));
        }
        // Touch 1 then 2: coldest→hottest is now 3, 1, 2 — key 3 is the
        // newest *insert* but the coldest *use*.
        assert!(cache.get(&1).is_some());
        assert!(cache.get(&2).is_some());
        cache.insert(4, Arc::new(4)); // evicts 3
        assert!(cache.get(&3).is_none(), "first victim is 3 (never used)");
        cache.insert(5, Arc::new(5)); // evicts 1
        assert!(cache.get(&1).is_none(), "second victim is 1");
        cache.insert(6, Arc::new(6)); // evicts 2
        assert!(cache.get(&2).is_none(), "third victim is 2");
        for k in [4u32, 5, 6] {
            assert_eq!(cache.get(&k).as_deref(), Some(&k), "key {k} resident");
        }
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn deposited_entries_participate_in_lru_eviction() {
        let cache = SingleFlightCache::<u32, u32>::new(2);
        cache.insert(1, Arc::new(10));
        cache.insert(2, Arc::new(20));
        assert_eq!(cache.get(&1).as_deref(), Some(&10)); // warms key 1
        cache.insert(3, Arc::new(30)); // evicts key 2 (coldest)
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.get(&1).as_deref(), Some(&10));
        assert_eq!(cache.get(&3).as_deref(), Some(&30));
        assert!(cache.get(&2).is_none(), "key 2 was the LRU victim");
        // get/insert accounting: 4 classified lookups (3 hits + 1 miss),
        // inserts uncounted.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inflight_waits), (3, 1, 0));
    }

    #[test]
    fn waiters_rejoin_cleanly_when_an_evicted_key_is_re_requested() {
        // An entry evicted under pressure, then re-requested by a herd:
        // exactly one of the herd recomputes, the rest park on the new
        // in-flight slot and share its value — eviction must not leave
        // stale state that short-circuits or wedges the second flight.
        let cache = Arc::new(SingleFlightCache::<u32, u32>::new(1));
        cache.get_or_compute(1, || 11);
        cache.get_or_compute(2, || 22); // capacity 1: evicts key 1
        let computed = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                thread::spawn(move || {
                    *cache.get_or_compute(1, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        thread::sleep(std::time::Duration::from_millis(20));
                        33 // the *new* value: eviction forgot 11
                    })
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().expect("thread"), 33);
        }
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "the re-request herd is single-flight"
        );
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses + stats.inflight_waits, 8);
        assert_eq!(stats.entries, 1, "capacity pressure still holds");
    }

    #[test]
    fn panicking_computation_unparks_waiters() {
        let cache = Arc::new(SingleFlightCache::<u8, u8>::new(4));
        let panicker = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_compute(1, || panic!("boom"));
                }));
                assert!(result.is_err());
            })
        };
        // Second caller arrives while (or after) the first is in flight;
        // either way it must eventually compute the value itself.
        thread::sleep(std::time::Duration::from_millis(10));
        let value = cache.get_or_compute(1, || 5);
        assert_eq!(*value, 5);
        panicker.join().expect("panicker thread");
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses + stats.inflight_waits, 2);
    }
}
