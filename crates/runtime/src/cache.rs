//! Bounded, deduplicating landscape cache.
//!
//! A batch of reconstruction jobs frequently revisits the same
//! `(problem, grid, seed)` triple — parameter sweeps vary the sampling
//! seed or solver config while the ground-truth landscape (a full grid
//! of circuit evaluations, by far the most expensive pipeline stage)
//! stays fixed. [`LandscapeCache`] produces each key once and serves
//! every repeat from memory, or from its optional disk tier.

use crate::source::LandscapeSource;
use oscar_core::grid::Shape;
use oscar_core::landscape::ShapedLandscape;
use oscar_problems::ising::IsingKind;
use oscar_problems::workload::ProblemInstance;
use oscar_qsim::fingerprint::{tag, Fingerprint};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Counters describing cache effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub len: usize,
    /// Maximum resident entries.
    pub capacity: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

/// Cache key for a ground-truth landscape: a fingerprint of the problem
/// instance (couplings and depth for QAOA, the molecule for VQE), the
/// exact landscape shape, the landscape source, the generation seed,
/// and the mitigation applied on top.
///
/// Every fingerprint field is a process-stable 128-bit digest
/// (FNV-1a-128 over the canonical encoding, [`oscar_qsim::fingerprint`])
/// — the same key identifies an entry in the in-memory LRU and in the
/// persistent on-disk store ([`crate::store::LandscapeStore`]), across
/// restarts and toolchain upgrades.
///
/// The source fingerprint ([`LandscapeSource::fingerprint`]) keeps exact
/// and noisy entries — and noisy entries from different devices — from
/// ever colliding. For the [`LandscapeSource::Exact`] source the seed is
/// **normalized to 0**: exact evaluation ignores `landscape_seed`, so
/// two exact jobs differing only there would otherwise fill the cache
/// with duplicate identical landscapes (each a full grid of circuit
/// evaluations) and recompute what is already resident.
///
/// The mitigation fingerprint
/// ([`crate::mitigation::Mitigation::fingerprint`]) separates the
/// *mitigated* landscape a job's stage 2 consumes from the raw landscape
/// of the same `(device, seed)` — they are different fields and must
/// share nothing — while ZNE's per-factor sub-landscapes get raw keys of
/// *scaled* sources ([`Self::zne_factor`]) so they are shared by every
/// job that measures the same factor.
#[derive(Clone, Copy, Debug)]
pub struct LandscapeKey {
    problem: u128,
    shape: u128,
    source: u128,
    seed: u64,
    mitigation: u128,
    /// Telemetry label only — see [`KeyClass`]. Deliberately excluded
    /// from equality and hashing: a ZNE factor-1.0 key must keep
    /// sharing the raw noisy entry even though the two requests carry
    /// different class labels.
    class: KeyClass,
}

impl PartialEq for LandscapeKey {
    fn eq(&self, other: &Self) -> bool {
        self.problem == other.problem
            && self.shape == other.shape
            && self.source == other.source
            && self.seed == other.seed
            && self.mitigation == other.mitigation
    }
}

impl Eq for LandscapeKey {}

impl Hash for LandscapeKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.problem.hash(state);
        self.shape.hash(state);
        self.source.hash(state);
        self.seed.hash(state);
        self.mitigation.hash(state);
    }
}

/// The source class of a [`LandscapeKey`], used to label cache
/// telemetry (`cache.hits.<class>` etc. in the obs registry). Purely
/// an attribution tag for the *requesting* lookup: it never enters key
/// identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyClass {
    /// Raw exact (noiseless) landscape.
    Exact,
    /// Raw noisy-device landscape.
    Noisy,
    /// One ZNE scale factor's sub-landscape.
    ZneFactor,
    /// A fully mitigated landscape (nonzero mitigation fingerprint).
    Mitigated,
}

impl KeyClass {
    /// Every class, registry order.
    pub const ALL: [KeyClass; 4] = [
        KeyClass::Exact,
        KeyClass::Noisy,
        KeyClass::ZneFactor,
        KeyClass::Mitigated,
    ];

    /// The class's metric-name suffix.
    pub fn as_str(self) -> &'static str {
        match self {
            KeyClass::Exact => "exact",
            KeyClass::Noisy => "noisy",
            KeyClass::ZneFactor => "zne_factor",
            KeyClass::Mitigated => "mitigated",
        }
    }

    fn index(self) -> usize {
        match self {
            KeyClass::Exact => 0,
            KeyClass::Noisy => 1,
            KeyClass::ZneFactor => 2,
            KeyClass::Mitigated => 3,
        }
    }
}

/// Per-class landscape-cache counters (`cache.*` in the obs registry),
/// resolved once; every update is one relaxed atomic add.
struct CacheMetrics {
    hits: [oscar_obs::Counter; 4],
    misses: [oscar_obs::Counter; 4],
    evictions: [oscar_obs::Counter; 4],
    dedup_waits: [oscar_obs::Counter; 4],
}

fn cache_metrics() -> &'static CacheMetrics {
    static METRICS: OnceLock<CacheMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = oscar_obs::Registry::global();
        let family = |kind: &str| {
            KeyClass::ALL.map(|class| registry.counter(&format!("cache.{kind}.{}", class.as_str())))
        };
        CacheMetrics {
            hits: family("hits"),
            misses: family("misses"),
            evictions: family("evictions"),
            dedup_waits: family("dedup_waits"),
        }
    })
}

impl LandscapeKey {
    /// Builds the key for a raw (unmitigated) landscape of
    /// `(problem, shape, source, landscape_seed)`.
    pub fn new(
        problem: &ProblemInstance,
        shape: &Shape,
        source: &LandscapeSource,
        landscape_seed: u64,
    ) -> Self {
        LandscapeKey {
            problem: problem_fingerprint(problem),
            shape: shape_fingerprint(shape),
            source: source.fingerprint(),
            // Exact evaluation is seed-independent; see the type docs.
            seed: if source.is_exact() { 0 } else { landscape_seed },
            mitigation: 0,
            class: if source.is_exact() {
                KeyClass::Exact
            } else {
                KeyClass::Noisy
            },
        }
    }

    /// The key of the *mitigated* landscape: [`Self::new`] with the
    /// mitigation fingerprint folded in (`0` restates the raw key, so a
    /// normalized-to-`None` mitigation shares the raw entry).
    pub fn mitigated(
        problem: &ProblemInstance,
        shape: &Shape,
        source: &LandscapeSource,
        landscape_seed: u64,
        mitigation: u128,
    ) -> Self {
        let base = LandscapeKey::new(problem, shape, source, landscape_seed);
        LandscapeKey {
            mitigation,
            // Fingerprint 0 restates the raw key, so it keeps the raw
            // class label too.
            class: if mitigation == 0 {
                base.class
            } else {
                KeyClass::Mitigated
            },
            ..base
        }
    }

    /// The key of one ZNE scale factor's sub-landscape: a *raw* key
    /// whose source fingerprint is the scaled source
    /// ([`LandscapeSource::scaled_fingerprint`]). Scale `1.0` restates
    /// the plain raw key, so the factor-1 entry is shared with
    /// unmitigated jobs over the same device and seed.
    pub fn zne_factor(
        problem: &ProblemInstance,
        shape: &Shape,
        source: &LandscapeSource,
        landscape_seed: u64,
        scale: f64,
    ) -> Self {
        LandscapeKey {
            source: source.scaled_fingerprint(scale),
            class: KeyClass::ZneFactor,
            ..LandscapeKey::new(problem, shape, source, landscape_seed)
        }
    }

    /// The key for an exact noiseless landscape of `(problem, shape)`.
    pub fn exact(problem: &ProblemInstance, shape: &Shape) -> Self {
        LandscapeKey::new(problem, shape, &LandscapeSource::Exact, 0)
    }

    /// The telemetry class this key was requested under.
    pub fn class(&self) -> KeyClass {
        self.class
    }

    /// Canonical byte encoding of the key identity (the `class` label
    /// is excluded, exactly like equality): problem, shape, source,
    /// mitigation as `u128` little-endian, then the seed as `u64`
    /// little-endian — 72 bytes. This is both the on-disk key block a
    /// store entry carries and the input of [`Self::store_hash`].
    pub(crate) fn encode(&self) -> [u8; 72] {
        let mut out = [0u8; 72];
        out[0..16].copy_from_slice(&self.problem.to_le_bytes());
        out[16..32].copy_from_slice(&self.shape.to_le_bytes());
        out[32..48].copy_from_slice(&self.source.to_le_bytes());
        out[48..64].copy_from_slice(&self.mitigation.to_le_bytes());
        out[64..72].copy_from_slice(&self.seed.to_le_bytes());
        out
    }

    /// The store filename hash: FNV-1a-128 of `tag::STORE_KEY` + the
    /// canonical key bytes. Collisions are astronomically unlikely, and
    /// harmless anyway: the store verifies the full key block on open
    /// and treats a mismatch as a miss.
    pub(crate) fn store_hash(&self) -> u128 {
        let mut h = Fingerprint::new();
        h.write_u8(tag::STORE_KEY);
        h.write_bytes(&self.encode());
        h.finish()
    }
}

/// Stable 128-bit fingerprint of a problem instance
/// ([`oscar_qsim::fingerprint`], process-stable). For QAOA: a kind tag
/// byte (`tag::MAXCUT`/`tag::SK_MODEL` — no per-lookup `format!`
/// allocation), depth, vertex count, then the edge count and the exact
/// edge list including weight bit patterns. For molecules:
/// `tag::MOLECULE` plus the molecule name (the Hamiltonian and ansatz
/// are fixed by it).
pub fn problem_fingerprint(problem: &ProblemInstance) -> u128 {
    let mut h = Fingerprint::new();
    match problem {
        ProblemInstance::Ising { problem, depth } => {
            h.write_u8(match problem.kind() {
                IsingKind::MaxCut => tag::MAXCUT,
                IsingKind::SherringtonKirkpatrick => tag::SK_MODEL,
            });
            h.write_usize(*depth);
            h.write_usize(problem.num_qubits());
            let edges = problem.graph().edges();
            h.write_usize(edges.len());
            for &(a, b, w) in edges {
                h.write_usize(a);
                h.write_usize(b);
                h.write_f64(w);
            }
        }
        ProblemInstance::Molecule(m) => {
            h.write_u8(tag::MOLECULE);
            h.write_str(m.name());
        }
    }
    h.finish()
}

/// Stable 128-bit fingerprint of a landscape shape: a variant tag plus
/// the axis count and every axis's exact bounds (bit patterns) and
/// point count, so a 2-D grid and a rank-2 tensor over the same ranges
/// never collide.
fn shape_fingerprint(shape: &Shape) -> u128 {
    let mut h = Fingerprint::new();
    fn write_axes(h: &mut Fingerprint, axes: &[oscar_core::grid::Axis]) {
        h.write_usize(axes.len());
        for axis in axes {
            h.write_f64(axis.lo);
            h.write_f64(axis.hi);
            h.write_usize(axis.n);
        }
    }
    match shape {
        Shape::Grid2d(grid) => {
            h.write_u8(tag::GRID2D);
            write_axes(&mut h, &[grid.beta, grid.gamma]);
        }
        Shape::Tensor(tensor) => {
            h.write_u8(tag::TENSOR);
            write_axes(&mut h, tensor.axes());
        }
    }
    h.finish()
}

/// A thread-safe bounded LRU of ground-truth landscapes, shared by
/// every executor of a [`crate::scheduler::BatchRuntime`].
///
/// Values are `Arc<ShapedLandscape>`, so a hit costs one reference bump
/// and concurrent jobs read the same buffer. One mutex guards the
/// resident entries with their recency ticks, the keys in flight and the
/// counters. Under it a lookup does one of three things: it *hits* a
/// resident entry (refreshing its recency), it *waits* on the condvar
/// while another caller holds the key's claim, or it *claims* the key.
/// The claim holder produces outside the lock, then inserts its value
/// (evicting the least recently used entry, an O(len) scan over tens of
/// entries), releases the claim and wakes the waiters. So a batch
/// sweeping sampling seeds over one instance evaluates its grid once.
///
/// Panic-hardened: the mutex guards plain map/set state that every
/// lock/unlock leaves valid, so a worker that panicked while holding it
/// (its own job is already lost) poisons nothing for the rest of the
/// batch — poisoned guards are recovered (`PoisonError::into_inner`)
/// instead of cascading the panic into every later lookup, and a
/// producer that unwinds still releases its claim.
pub struct LandscapeCache {
    state: Mutex<CacheState>,
    /// Signaled whenever a claim is released, with or without a value.
    released: Condvar,
    /// Optional disk tier probed by the claim holder before it produces;
    /// fresh landscapes are written behind ([`crate::store::LandscapeStore`]).
    store: Option<Arc<crate::store::LandscapeStore>>,
}

/// Everything [`LandscapeCache`]'s one mutex guards.
struct CacheState {
    entries: HashMap<LandscapeKey, Entry>,
    /// Keys claimed by a caller that is producing them.
    pending: HashSet<LandscapeKey>,
    /// Recency clock: bumped by every hit and insert.
    tick: u64,
    capacity: usize,
    /// One hit or miss per [`LandscapeCache::get_or_compute`] call, however
    /// many times a waiter looks: a call is a miss iff it took the claim.
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct Entry {
    value: Arc<ShapedLandscape>,
    last_used: u64,
}

impl std::fmt::Debug for LandscapeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LandscapeCache").finish_non_exhaustive()
    }
}

/// Locks `m`, recovering from poison — shared by this crate's caches
/// and the scheduler queue (see [`LandscapeCache`]'s panic-hardening
/// note: every guarded structure is valid after any unwind).
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A claim on a key being produced. Dropping it inserts `value`, if the
/// holder set one, and releases the claim — on unwind too, so a
/// panicking producer does not strand its waiters.
struct Claim<'a> {
    cache: &'a LandscapeCache,
    key: LandscapeKey,
    value: Option<Arc<ShapedLandscape>>,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.cache.state);
        if let Some(value) = self.value.take() {
            // Only a claim holder inserts, and only after a miss under
            // this lock, so `key` is never resident here.
            if state.entries.len() >= state.capacity {
                if let Some(oldest) = state
                    .entries
                    // lint:allow(map-iteration): `last_used` ticks are
                    // unique and strictly increasing, so the minimum is a
                    // single well-defined entry whatever the hash order.
                    .iter()
                    .min_by_key(|(_, entry)| entry.last_used)
                    .map(|(k, _)| *k)
                {
                    state.entries.remove(&oldest);
                    state.evictions += 1;
                    // Attribute the eviction to the class of the entry
                    // that was displaced, not the one being inserted.
                    cache_metrics().evictions[oldest.class.index()].inc();
                }
            }
            state.tick += 1;
            let last_used = state.tick;
            state.entries.insert(self.key, Entry { value, last_used });
        }
        state.pending.remove(&self.key);
        drop(state);
        self.cache.released.notify_all();
    }
}

impl LandscapeCache {
    /// Creates a cache bounded to `capacity` landscapes, with no disk
    /// tier.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        LandscapeCache::with_store(capacity, None)
    }

    /// Creates a cache bounded to `capacity` landscapes, backed by an
    /// optional persistent [`crate::store::LandscapeStore`] tier: an
    /// in-memory miss first probes the store, and freshly computed
    /// landscapes are written behind without blocking the caller.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_store(capacity: usize, store: Option<Arc<crate::store::LandscapeStore>>) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LandscapeCache {
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                pending: HashSet::new(),
                tick: 0,
                capacity,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            released: Condvar::new(),
            store,
        }
    }

    /// Returns the cached landscape for `key`, or computes it with
    /// `produce` and caches the result. The second return value is
    /// `true` whenever the producer did *not* run: an in-memory hit,
    /// waiting out another thread's in-flight computation of the same
    /// key, or a disk-tier hit when a store is attached. [`Self::stats`]
    /// counts the in-memory tier only (a disk hit still counts an
    /// in-memory miss there); the disk tier reports through the
    /// `store.*` metrics ([`crate::store::store_stats`]).
    pub fn get_or_compute(
        &self,
        key: LandscapeKey,
        produce: impl FnOnce() -> ShapedLandscape,
    ) -> (Arc<ShapedLandscape>, bool) {
        let metrics = cache_metrics();
        let class = key.class.index();
        let mut state = lock(&self.state);
        let mut waited = false;
        loop {
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.entries.get_mut(&key) {
                entry.last_used = tick;
                let hit = Arc::clone(&entry.value);
                state.hits += 1;
                metrics.hits[class].inc();
                return (hit, true);
            }
            if !state.pending.contains(&key) {
                break;
            }
            // Another caller holds the claim: wait for its release and
            // look again (on the rare eviction before we look, the key
            // is neither resident nor pending and we take the claim).
            if !waited {
                // One logical dedup event per call, however many
                // wakeups the wait takes.
                metrics.dedup_waits[class].inc();
                waited = true;
            }
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.pending.insert(key);
        state.misses += 1;
        drop(state);
        metrics.misses[class].inc();
        let mut claim = Claim {
            cache: self,
            key,
            value: None,
        };
        // Disk tier: only the claim holder probes, so a batch of waiters
        // costs one read. A disk hit is promoted into memory and reported
        // as a hit — the producer never ran.
        let (value, hit) = match self.store.as_ref().and_then(|s| s.load(&key)) {
            Some(from_disk) => (Arc::new(from_disk), true),
            None => {
                // Produce outside the lock: landscape generation is the
                // heavy stage and runs data-parallel on the worker pool;
                // holding the cache lock would serialize unrelated jobs.
                let fresh = Arc::new(produce());
                if let Some(store) = &self.store {
                    // Write-behind: enqueue and move on, the store's
                    // writer thread does the disk work.
                    store.save(&key, &fresh);
                }
                (fresh, false)
            }
        };
        claim.value = Some(Arc::clone(&value));
        drop(claim);
        (value, hit)
    }

    /// Counter snapshot: hits/misses are per [`Self::get_or_compute`]
    /// call (a call is a miss iff it ran the producer or read the disk
    /// tier).
    pub fn stats(&self) -> CacheStats {
        let state = lock(&self.state);
        CacheStats {
            len: state.entries.len(),
            capacity: state.capacity,
            hits: state.hits,
            misses: state.misses,
            evictions: state.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oscar_problems::ising::IsingProblem;

    fn ising(problem: IsingProblem) -> ProblemInstance {
        ProblemInstance::ising(problem, 1)
    }

    fn grid_shape(nb: usize, ng: usize) -> Shape {
        Shape::Grid2d(oscar_core::grid::Grid2d::small_p1(nb, ng))
    }

    /// Distinct keys of one noisy source, told apart by their seed.
    fn seeded_key(seed: u64) -> LandscapeKey {
        use oscar_executor::device::DeviceSpec;
        let source = LandscapeSource::noisy(DeviceSpec::by_name("noisy sim").unwrap());
        LandscapeKey::new(
            &ising(IsingProblem::mesh(2, 2)),
            &grid_shape(2, 2),
            &source,
            seed,
        )
    }

    /// Looks `key` up, producing a tiny landscape on a miss; `true` on a
    /// hit.
    fn look(cache: &LandscapeCache, key: LandscapeKey) -> bool {
        cache
            .get_or_compute(key, || {
                ShapedLandscape::from_values(&grid_shape(2, 2), vec![0.0; 4])
            })
            .1
    }

    #[test]
    fn hit_refreshes_recency_so_the_least_recently_looked_up_key_is_evicted() {
        let cache = LandscapeCache::new(3);
        for seed in 1..=3 {
            assert!(!look(&cache, seeded_key(seed)));
        }
        // Look 1 and 3 up so 2 is the least recently used entry.
        assert!(look(&cache, seeded_key(1)));
        assert!(look(&cache, seeded_key(3)));
        assert!(!look(&cache, seeded_key(4)));
        for seed in [1, 3, 4] {
            assert!(look(&cache, seeded_key(seed)), "seed {seed} must stay");
        }
        let s = cache.stats();
        assert_eq!(
            (s.len, s.capacity, s.hits, s.misses, s.evictions),
            (3, 3, 5, 4, 1)
        );
        assert!(!look(&cache, seeded_key(2)), "seed 2 must be evicted");
    }

    #[test]
    fn capacity_one_always_holds_newest() {
        let cache = LandscapeCache::new(1);
        for seed in 0..10 {
            assert!(!look(&cache, seeded_key(seed)));
            assert!(look(&cache, seeded_key(seed)));
        }
        let s = cache.stats();
        assert_eq!((s.len, s.hits, s.misses, s.evictions), (1, 10, 10, 9));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = LandscapeCache::new(0);
    }

    #[test]
    fn evictions_are_charged_to_the_displaced_entrys_class() {
        use oscar_executor::device::DeviceSpec;
        let evictions = |class: KeyClass| cache_metrics().evictions[class.index()].get();
        let before = KeyClass::ALL.map(evictions);
        let problem = ising(IsingProblem::mesh(2, 2));
        let shape = grid_shape(2, 2);
        let source = LandscapeSource::noisy(DeviceSpec::by_name("noisy sim").unwrap());
        let cache = LandscapeCache::new(1);
        assert!(!look(
            &cache,
            LandscapeKey::zne_factor(&problem, &shape, &source, 0, 3.0)
        ));
        assert!(!look(
            &cache,
            LandscapeKey::mitigated(&problem, &shape, &source, 0, 1)
        ));
        assert_eq!(cache.stats().evictions, 1);
        // The displaced ZNE-factor entry pays, not the mitigated request.
        // No other test in this crate evicts these two classes.
        let after = KeyClass::ALL.map(evictions);
        let zne = KeyClass::ZneFactor.index();
        let mitigated = KeyClass::Mitigated.index();
        assert_eq!(after[zne] - before[zne], 1);
        assert_eq!(after[mitigated], before[mitigated]);
    }

    #[test]
    fn landscape_keys_separate_problems_shapes_depths_and_seeds() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let raw1 = IsingProblem::random_3_regular(8, &mut rng);
        let p1 = ising(raw1.clone());
        let p2 = ising(IsingProblem::random_3_regular(8, &mut rng));
        let g1 = grid_shape(10, 12);
        let g2 = grid_shape(10, 14);
        let base = LandscapeKey::exact(&p1, &g1);
        assert_eq!(base, LandscapeKey::exact(&p1, &g1));
        assert_ne!(base, LandscapeKey::exact(&p2, &g1));
        assert_ne!(base, LandscapeKey::exact(&p1, &g2));
        // Depth is part of the problem identity.
        let deep = ProblemInstance::ising(raw1, 2);
        assert_ne!(base, LandscapeKey::exact(&deep, &g1));
        // Molecules never collide with Ising instances, and tensor
        // shapes never collide with 2-D grids.
        use oscar_problems::workload::Molecule;
        let h2 = ProblemInstance::molecule(Molecule::H2);
        let scan = Shape::vqe_scan(&[5, 5, 5]);
        let vqe = LandscapeKey::exact(&h2, &scan);
        assert_ne!(vqe, base);
        assert_ne!(
            vqe,
            LandscapeKey::exact(&ProblemInstance::molecule(Molecule::LiH), &scan)
        );
        assert_ne!(vqe, LandscapeKey::exact(&h2, &Shape::vqe_scan(&[5, 5, 6])));
    }

    #[test]
    fn exact_keys_normalize_landscape_seed_noisy_keys_keep_it() {
        use oscar_executor::device::DeviceSpec;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let p = ising(IsingProblem::random_3_regular(8, &mut rng));
        let g = grid_shape(10, 12);
        let exact = LandscapeSource::Exact;
        // Exact evaluation ignores the seed, so the key must too.
        assert_eq!(
            LandscapeKey::new(&p, &g, &exact, 0),
            LandscapeKey::new(&p, &g, &exact, 99)
        );
        // Noisy sources keep the seed (distinct noise realizations) and
        // never collide with exact keys or with other devices.
        let perth = LandscapeSource::noisy(DeviceSpec::by_name("ibm perth").unwrap());
        let lagos = LandscapeSource::noisy(DeviceSpec::by_name("ibm lagos").unwrap());
        let n0 = LandscapeKey::new(&p, &g, &perth, 0);
        assert_ne!(n0, LandscapeKey::new(&p, &g, &perth, 1));
        assert_ne!(n0, LandscapeKey::new(&p, &g, &exact, 0));
        assert_ne!(n0, LandscapeKey::new(&p, &g, &lagos, 0));
    }

    #[test]
    fn landscape_cache_dedupes_computation() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let problem = IsingProblem::random_3_regular(6, &mut rng);
        let instance = ising(problem.clone());
        let grid = oscar_core::grid::Grid2d::small_p1(6, 8);
        let cache = LandscapeCache::new(4);
        let key = LandscapeKey::exact(&instance, &Shape::Grid2d(grid));
        let mut computes = 0;
        let (a, hit_a) = cache.get_or_compute(key, || {
            computes += 1;
            oscar_core::landscape::Landscape::from_qaoa(grid, &problem.qaoa_evaluator()).into()
        });
        let (b, hit_b) = cache.get_or_compute(key, || {
            computes += 1;
            oscar_core::landscape::Landscape::from_qaoa(grid, &problem.qaoa_evaluator()).into()
        });
        assert!(!hit_a && hit_b);
        assert_eq!(computes, 1, "second lookup must be served from cache");
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn concurrent_misses_compute_once() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut rng = StdRng::seed_from_u64(6);
        let problem = IsingProblem::random_3_regular(6, &mut rng);
        let grid = oscar_core::grid::Grid2d::small_p1(8, 10);
        let cache = Arc::new(LandscapeCache::new(4));
        let computes = Arc::new(AtomicUsize::new(0));
        let key = LandscapeKey::exact(&ising(problem.clone()), &Shape::Grid2d(grid));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                let problem = problem.clone();
                std::thread::spawn(move || {
                    cache.get_or_compute(key, || {
                        computes.fetch_add(1, Ordering::Relaxed);
                        oscar_core::landscape::Landscape::from_qaoa(grid, &problem.qaoa_evaluator())
                            .into()
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(
            computes.load(Ordering::Relaxed),
            1,
            "in-flight dedup must collapse concurrent misses into one compute"
        );
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
        for (l, _) in &results {
            assert!(Arc::ptr_eq(l, &results[0].0));
        }
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::panic::AssertUnwindSafe;
        let mut rng = StdRng::seed_from_u64(12);
        let problem = IsingProblem::random_3_regular(4, &mut rng);
        let grid = oscar_core::grid::Grid2d::small_p1(5, 5);
        let cache = LandscapeCache::new(2);
        // Poison the mutex the way a dying worker would: panic while
        // holding the guard.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _g = lock(&cache.state);
            panic!("worker died holding the cache lock");
        }));
        assert!(cache.state.is_poisoned());
        // Every entry point must still work: compute, hit, stats.
        let key = LandscapeKey::exact(&ising(problem.clone()), &Shape::Grid2d(grid));
        let (l, hit) = cache.get_or_compute(key, || {
            oscar_core::landscape::Landscape::from_qaoa(grid, &problem.qaoa_evaluator()).into()
        });
        assert!(!hit);
        assert_eq!(l.values().len(), 25);
        let (_, hit2) = cache.get_or_compute(key, || unreachable!("must be cached"));
        assert!(hit2, "cache must still serve hits after poisoning");
        assert_eq!(cache.stats().len, 1);
    }

    #[test]
    fn panicking_producer_does_not_strand_waiters() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(8);
        let problem = IsingProblem::random_3_regular(4, &mut rng);
        let grid = oscar_core::grid::Grid2d::small_p1(6, 6);
        let cache = LandscapeCache::new(2);
        let key = LandscapeKey::exact(&ising(problem.clone()), &Shape::Grid2d(grid));
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(key, || panic!("producer died"));
        }));
        assert!(boom.is_err());
        // The pending claim must have been released: a retry computes.
        let (l, hit) = cache.get_or_compute(key, || {
            oscar_core::landscape::Landscape::from_qaoa(grid, &problem.qaoa_evaluator()).into()
        });
        assert!(!hit);
        assert_eq!(l.values().len(), 36);
    }

    /// Pins the 128-bit fingerprints of fixed inputs to their current
    /// values. These digests name entries in persistent stores
    /// ([`crate::store::LandscapeStore`]); any change here is a silent
    /// full-store invalidation for every user, so it must be a
    /// deliberate format bump, not an accidental refactor. (The old
    /// `DefaultHasher` scheme had no such guarantee: its output is
    /// explicitly unstable across releases and processes.)
    #[test]
    fn fingerprints_are_pinned_process_stable_constants() {
        use oscar_executor::device::DeviceSpec;
        use oscar_runtime_test_pins::*;

        // Problems: a deterministic mesh instance at two depths.
        let mesh = IsingProblem::mesh(2, 3);
        assert_eq!(
            problem_fingerprint(&ising(mesh.clone())),
            PROBLEM_MESH_2X3_D1
        );
        assert_eq!(
            problem_fingerprint(&ProblemInstance::ising(mesh, 2)),
            PROBLEM_MESH_2X3_D2
        );
        use oscar_problems::workload::Molecule;
        assert_eq!(
            problem_fingerprint(&ProblemInstance::molecule(Molecule::H2)),
            PROBLEM_H2
        );

        // Shapes: the reduced p=1 grid and a p=2 tensor.
        assert_eq!(shape_fingerprint(&grid_shape(6, 8)), SHAPE_GRID_6X8);
        assert_eq!(shape_fingerprint(&Shape::qaoa(2, 3, 4)), SHAPE_QAOA_P2_3X4);

        // Sources: exact is 0 by contract; a named device is pinned,
        // as is its unit-scale normalization and a scaled variant.
        let perth = LandscapeSource::noisy(DeviceSpec::by_name("ibm perth").unwrap());
        assert_eq!(LandscapeSource::Exact.fingerprint(), 0);
        assert_eq!(perth.fingerprint(), SOURCE_PERTH);
        assert_eq!(perth.scaled_fingerprint(1.0), SOURCE_PERTH);
        assert_eq!(perth.scaled_fingerprint(2.0), SOURCE_PERTH_SCALE2);

        // Mitigations: None normalizes to 0; ZNE over a noisy source is
        // pinned (and odd, by the `| 1` nonzero guarantee).
        assert_eq!(crate::mitigation::Mitigation::None.fingerprint(&perth), 0);
        let zne = crate::mitigation::Mitigation::zne_richardson().fingerprint(&perth);
        assert_eq!(zne, MITIGATION_ZNE_RICHARDSON_PERTH);
        assert_eq!(zne & 1, 1);
    }

    /// The pinned digests, kept out of the assertion bodies so a
    /// legitimate format bump updates one block.
    mod oscar_runtime_test_pins {
        pub const PROBLEM_MESH_2X3_D1: u128 = 0x8ecdad3752f8770c41e44cedd848a1c9;
        pub const PROBLEM_MESH_2X3_D2: u128 = 0x8f7646a2623ecd07bfd86ad1adb73566;
        pub const PROBLEM_H2: u128 = 0x8798fddec70c83fd4651279b2464835f;
        pub const SHAPE_GRID_6X8: u128 = 0xb2069332e33dd6d8c6d668626d47fa60;
        pub const SHAPE_QAOA_P2_3X4: u128 = 0x66123da1039ced146bd8c180ccfe9021;
        pub const SOURCE_PERTH: u128 = 0x1df1c674daa2fd148846f9a61b7ca9ff;
        pub const SOURCE_PERTH_SCALE2: u128 = 0xb5f20b591935991d28ba5d1777e3581a;
        pub const MITIGATION_ZNE_RICHARDSON_PERTH: u128 = 0x3a7a29364e7956333d7da314a001ded7;
    }
}
