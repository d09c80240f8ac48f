//! Process-wide cache of FFT-backed DCT plans and DCT synthesis
//! matrices, keyed by transform length.
//!
//! Planning a [`DctPlan`] is much more expensive than applying it: the
//! radix-2 path precomputes a bit-reversal table and twiddle factors,
//! the mixed-radix path builds a per-stage twiddle table from the
//! size's factorization, and the Bluestein path additionally runs a
//! full-size FFT over the chirp filter. A stream of reconstruction
//! jobs at the same grid side (the common case for `oscar-runtime`
//! batches — the paper's grids are 50×100 and 144×225) would otherwise
//! replan identical tables per job. Each cached plan uses the cheapest
//! decomposition for its size (`DctPlan::new` picks it), so every
//! consumer of the cache gets e.g. the dedicated 2·3·5 butterflies at
//! the paper's sides for free.
//!
//! [`plan`] returns an `Arc<DctPlan>` shared by every transform of the
//! same length in the process. Plans are immutable after construction
//! and applies keep all mutable state in caller-owned scratch, so
//! sharing one plan across concurrently running jobs is safe and
//! lock-free at apply time (the cache lock is only taken at
//! construction).
//!
//! `synthesis_matrix` returns the `n x n` DCT synthesis table the
//! same way: the 2-D measurement operator evaluates sample points with
//! the one of its row count, whichever kernel its transform runs, so a
//! job builds no table the previous job at the same side built.
//! [`stats`] counts plan lookups only, so its hits show plan reuse.
//!
//! The cache is unbounded by design: entries are keyed by grid side, of
//! which a deployment sees a handful. A plan is O(n) floats and a
//! matrix O(n²) (166 KB at the paper's 144-point side). [`clear`]
//! exists for tests and long-lived processes that churn through many
//! distinct sizes.

use crate::fft::DctPlan;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Counters describing plan-cache effectiveness (synthesis matrices
/// are not counted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans currently cached.
    pub entries: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to plan.
    pub misses: u64,
}

struct State {
    plans: HashMap<usize, Arc<DctPlan>>,
    matrices: HashMap<usize, Arc<[f64]>>,
    hits: u64,
    misses: u64,
}

/// Locks the cache state, recovering from poison: the map and counters
/// are valid after any unwind, so a worker that panicked while holding
/// the lock must not cascade into every later transform.
fn lock_state() -> std::sync::MutexGuard<'static, State> {
    state().lock().unwrap_or_else(PoisonError::into_inner)
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            plans: HashMap::new(),
            matrices: HashMap::new(),
            hits: 0,
            misses: 0,
        })
    })
}

/// Returns the shared plan for length `n`, planning it on first use.
///
/// Robust to a panicking worker: the cache holds only plain maps and
/// counters that every lock/unlock leaves valid, so a poisoned mutex is
/// recovered (`PoisonError::into_inner`) instead of cascading the
/// original panic into every later transform in the process.
///
/// # Panics
///
/// Panics if `n == 0` (propagated from [`DctPlan::new`]).
pub fn plan(n: usize) -> Arc<DctPlan> {
    cached(n, |s| &mut s.plans, true, || Arc::new(DctPlan::new(n)))
}

/// Returns the shared row-major `n x n` synthesis matrix of the
/// orthonormal DCT for length `n` (`m[i*n + k]` is the weight of
/// coefficient `k` in sample `i`), building it on first use.
///
/// # Panics
///
/// Panics if `n == 0`.
pub(crate) fn synthesis_matrix(n: usize) -> Arc<[f64]> {
    cached(
        n,
        |s| &mut s.matrices,
        false,
        || crate::dct::synthesis_matrix(n).into(),
    )
}

/// Looks `n` up in the map `map` selects, building the entry with
/// `build` on a miss. A `counted` lookup feeds the hit/miss counters.
fn cached<T: ?Sized>(
    n: usize,
    map: fn(&mut State) -> &mut HashMap<usize, Arc<T>>,
    counted: bool,
    build: impl FnOnce() -> Arc<T>,
) -> Arc<T> {
    {
        let mut s = lock_state();
        let hit = map(&mut s).get(&n).map(Arc::clone);
        if counted {
            if hit.is_some() {
                s.hits += 1;
            } else {
                s.misses += 1;
            }
        }
        if let Some(p) = hit {
            return p;
        }
    }
    // Build outside the lock: Bluestein planning at large n is slow,
    // and concurrent first requests for *different* sizes should not
    // serialize. Concurrent first requests for the same size may both
    // build; the first insert wins and the duplicate is dropped.
    let fresh = build();
    let mut s = lock_state();
    Arc::clone(map(&mut s).entry(n).or_insert(fresh))
}

/// Snapshot of the plan counters.
pub fn stats() -> PlanCacheStats {
    let s = lock_state();
    PlanCacheStats {
        entries: s.plans.len(),
        hits: s.hits,
        misses: s.misses,
    }
}

/// Drops every cached plan and matrix and resets the counters.
/// Outstanding handles stay valid; subsequent lookups rebuild.
pub fn clear() {
    let mut s = lock_state();
    s.plans.clear();
    s.matrices.clear();
    s.hits = 0;
    s.misses = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_length_shares_one_plan() {
        let a = plan(4096);
        let b = plan(4096);
        assert!(Arc::ptr_eq(&a, &b), "same-size plans must be shared");
        assert_eq!(a.len(), 4096);
    }

    #[test]
    fn distinct_lengths_get_distinct_plans() {
        let a = plan(2048);
        let b = plan(1024);
        assert_eq!(a.len(), 2048);
        assert_eq!(b.len(), 1024);
    }

    #[test]
    fn same_length_shares_one_matrix() {
        let a = synthesis_matrix(37);
        let b = synthesis_matrix(37);
        assert!(Arc::ptr_eq(&a, &b), "same-size matrices must be shared");
        assert_eq!(a.len(), 37 * 37);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        // Use lengths no other test touches so counts are attributable
        // even with tests running concurrently in one process.
        let before = stats();
        let _ = plan(777);
        let _ = plan(777);
        let _ = plan(777);
        let after = stats();
        assert!(after.misses > before.misses);
        assert!(after.hits >= before.hits + 2);
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        // A thread panicking while holding the cache lock poisons it;
        // every entry point must keep working afterwards instead of
        // bricking all future transforms in the process.
        let poison = std::panic::catch_unwind(|| {
            let _guard = lock_state();
            panic!("worker died while planning");
        });
        assert!(poison.is_err());
        let p = plan(444);
        assert_eq!(p.len(), 444);
        let q = plan(444);
        assert!(Arc::ptr_eq(&p, &q), "cache must still dedupe after poison");
        let _ = stats();
    }

    #[test]
    fn concurrent_lookups_converge_to_one_plan() {
        let handles: Vec<_> = (0..8).map(|_| std::thread::spawn(|| plan(555))).collect();
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // All handles must agree with the cached winner.
        let cached = plan(555);
        for p in &plans {
            // Losers of the insert race may hold a private duplicate;
            // correctness only needs equal length and the cache settling
            // on a single entry.
            assert_eq!(p.len(), cached.len());
        }
        let s = stats();
        assert!(s.entries >= 1);
    }
}
