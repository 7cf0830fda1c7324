//! Claim-scheduled parallel work and the process-wide helper budget.
//!
//! [`Claims`] holds `n` independent work items, each filled exactly
//! once. Workers take the next unclaimed index from one counter until
//! none is left, so a slow item never idles the rest, and every result
//! lands in its own slot, so the order of results, and anything reduced
//! from them in index order, is the same whatever the interleaving. The
//! calling thread works beside its scoped helper threads
//! ([`Claims::with_helpers`]): [`claim_each`] has it fill items too and
//! collects the results in index order, and a caller that consumes
//! items in order while they are being produced (the tuner's Table-I
//! walk) asks for them with [`Claims::get`], which fills unclaimed items
//! on the calling thread instead of waiting.
//!
//! Helper threads for the tuner come from one process-wide budget of
//! `available_parallelism() − 1` ([`HelperLease`]): nested users (a plan
//! inside a chunk worker or a daemon worker) share it, so together they
//! never hold more helpers than there are other cores. A caller that
//! finds none free runs every item on its own thread through the same
//! code.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work items `0..n`, claimed in index order and each filled once.
#[derive(Debug)]
pub struct Claims<R> {
    /// The next unclaimed index. `Relaxed` throughout: it only hands
    /// out indices, and results travel through the slots' `OnceLock`s.
    next: AtomicUsize,
    slots: Vec<OnceLock<R>>,
}

impl<R> Claims<R> {
    /// `n` unclaimed items.
    pub fn new(n: usize) -> Self {
        Claims {
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Take the next unclaimed index, if one is left.
    fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.slots.len()).then_some(i)
    }

    /// A worker's loop: claim items and fill them with `run` until none
    /// is left unclaimed.
    fn work(&self, mut run: impl FnMut(usize) -> R) {
        while let Some(i) = self.claim() {
            self.slots[i].get_or_init(|| run(i));
        }
    }

    /// Item `i`. While it is not ready, the calling thread claims and
    /// fills the next unclaimed item with `run`; once none is left it
    /// waits for the worker filling `i`, or fills it itself if that
    /// worker has claimed it but not started. Either way `run(i)` runs
    /// once, so a pure `run` gives the same result wherever it ran.
    pub fn get(&self, i: usize, mut run: impl FnMut(usize) -> R) -> &R {
        loop {
            if let Some(r) = self.slots[i].get() {
                return r;
            }
            match self.claim() {
                Some(j) => {
                    self.slots[j].get_or_init(|| run(j));
                }
                None => return self.slots[i].get_or_init(|| run(i)),
            }
        }
    }

    /// The results in index order.
    ///
    /// # Panics
    /// Panics if an item was never filled: every worker must have run
    /// its loop to the end, or every item been asked for.
    pub fn into_vec(self) -> Vec<R> {
        self.slots
            .into_iter()
            .map(|s| s.into_inner().expect("every claimed item is filled"))
            .collect()
    }
}

impl<R: Send + Sync> Claims<R> {
    /// Run `caller` on the calling thread while up to `helpers` scoped
    /// helper threads (never more than `n − 1`) each make one state with
    /// `state` and fill items with `work` until none is left unclaimed.
    /// Returns `caller`'s result once every helper has exited.
    ///
    /// The helpers are joined, not only waited for: a join also waits
    /// for the C library to hand each thread's malloc arena back for
    /// reuse. Without it, a helper spawned right after another may find
    /// no free arena and start a new one, and each arena keeps the
    /// memory freed into it; back-to-back helpers grew a measured
    /// process by a few hundred KB per new arena.
    pub fn with_helpers<S, O>(
        &self,
        helpers: usize,
        state: impl Fn() -> S + Sync,
        work: impl Fn(usize, &mut S) -> R + Sync,
        caller: impl FnOnce() -> O,
    ) -> O {
        std::thread::scope(|scope| {
            let spawned: Vec<_> = (0..helpers.min(self.slots.len().saturating_sub(1)))
                .map(|_| {
                    scope.spawn(|| {
                        let mut s = state();
                        self.work(|i| work(i, &mut s));
                    })
                })
                .collect();
            let out = caller();
            for h in spawned {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            out
        })
    }
}

/// Run `work` on every index in `0..n` with the calling thread and up to
/// `helpers` scoped helper threads (never more than `n − 1`), and return
/// the results in index order. Each worker makes one state with `state`
/// and passes it to every index it claims.
pub fn claim_each<S, R>(
    n: usize,
    helpers: usize,
    state: impl Fn() -> S + Sync,
    work: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R>
where
    R: Send + Sync,
{
    let claims = Claims::new(n);
    claims.with_helpers(helpers, &state, &work, || {
        let mut s = state();
        claims.work(|i| work(i, &mut s));
    });
    claims.into_vec()
}

/// Helper threads free for claim-scheduled work, process-wide. `Relaxed`:
/// the count publishes no other data.
fn free_helpers() -> &'static AtomicUsize {
    static FREE: OnceLock<AtomicUsize> = OnceLock::new();
    FREE.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        AtomicUsize::new(cores - 1)
    })
}

/// Helper threads taken from the process-wide budget of
/// `available_parallelism() − 1`, given back when the lease drops.
#[derive(Debug)]
#[must_use = "the helpers return to the budget when the lease drops"]
pub struct HelperLease {
    count: usize,
}

impl HelperLease {
    /// Take up to `want` helpers, as many as are free (possibly none).
    pub fn take(want: usize) -> Self {
        let free = free_helpers();
        let mut count = 0;
        // `count` keeps the last call's share: what the update took, or 0
        // when it gave up.
        let _ = free.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
            count = now.min(want);
            (count > 0).then(|| now - count)
        });
        HelperLease { count }
    }

    /// Helpers held.
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for HelperLease {
    fn drop(&mut self) {
        if self.count > 0 {
            free_helpers().fetch_add(self.count, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn claim_each_returns_results_in_index_order() {
        for n in [0, 1, 2, 7] {
            for helpers in 0..4 {
                let got = claim_each(n, helpers, Vec::new, |i, seen: &mut Vec<usize>| {
                    // Per-worker state sees its own claims in rising order.
                    assert!(seen.iter().all(|&p| p < i));
                    seen.push(i);
                    i * i
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(got, want, "{n} items, {helpers} helpers");
            }
        }
    }

    #[test]
    fn get_fills_unclaimed_items_on_the_calling_thread() {
        // No helper: asking for item 2 fills 0, 1 and 2 in order.
        let claims = Claims::new(4);
        let mut ran = Vec::new();
        assert_eq!(
            *claims.get(2, |j| {
                ran.push(j);
                j + 10
            }),
            12
        );
        assert_eq!(ran, [0, 1, 2]);
        assert_eq!(*claims.get(0, |_| unreachable!()), 10);
        assert_eq!(*claims.get(3, |j| j + 10), 13);
        assert_eq!(claims.into_vec(), [10, 11, 12, 13]);
    }

    #[test]
    fn get_waits_for_an_item_a_helper_is_filling() {
        // The helper claims item 0 and holds it until the caller has
        // claimed the only other item, so the caller's `get(0)` finds
        // nothing left to claim and must take the helper's result.
        let claims = Claims::new(2);
        let both_claimed = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let i = claims.claim().expect("item 0 is free");
                claims.slots[i].get_or_init(|| {
                    both_claimed.wait();
                    "helper"
                });
            });
            while claims.next.load(Ordering::Relaxed) == 0 {
                std::hint::spin_loop();
            }
            let j = claims.claim().expect("item 1 is free");
            both_claimed.wait();
            claims.slots[j].get_or_init(|| "caller");
            assert_eq!(*claims.get(0, |_| "caller"), "helper");
        });
        assert_eq!(claims.into_vec(), ["helper", "caller"]);
    }

    #[test]
    fn a_lease_takes_what_is_free_and_gives_it_back() {
        // The only test in this crate that takes helpers.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let all = HelperLease::take(usize::MAX);
        assert_eq!(all.count(), cores - 1);
        assert_eq!(HelperLease::take(1).count(), 0);
        drop(all);
        let one = HelperLease::take(1);
        assert_eq!(one.count(), 1.min(cores - 1));
        assert_eq!(
            HelperLease::take(usize::MAX).count(),
            cores - 1 - one.count()
        );
        assert_eq!(HelperLease::take(0).count(), 0);
    }
}
