//! Ordered experiment runner.
//!
//! Every `ds-bench` experiment is a pile of *independent* timing
//! simulations (workload × configuration), each deterministic and
//! single-threaded (DESIGN.md §6). [`map`] runs them in input order,
//! or with `--parallel` fans them across `std::thread::scope` workers,
//! one per available core; results come back **in input order** either
//! way, so a table printed from them is byte-identical.
//!
//! There is no crash containment. A panicking job is a bug in the
//! simulator or the experiment, and no table with a hole in it is worth
//! printing, so the panic fails the run at once: sequentially it
//! unwinds straight out, in parallel the other workers take no new job
//! and the panic propagates to the caller. Nor can a job hang: the
//! engine's forward-progress watchdog ends every wedged simulation, and
//! [`crate::expect_no_deadlock`] turns its report into that panic.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "host parallelism lives here, at sweep level: each job is one whole, \
              single-threaded simulation, and results come back in input order"
)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// True when `--parallel` was passed on the command line.
fn parallel_requested() -> bool {
    std::env::args().any(|a| a == "--parallel")
}

/// Applies `f` to every input, across threads when `--parallel` was
/// given, and returns the results in input order either way.
pub fn map<I, T, F>(inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    if parallel_requested() {
        pmap(inputs, f)
    } else {
        inputs.iter().map(f).collect()
    }
}

/// Ends the job queue if the worker holding it unwinds, so a panic is
/// not followed by the rest of the jobs.
struct StopOnPanic<'a> {
    next: &'a AtomicUsize,
    n: usize,
}

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.next.store(self.n, Ordering::Relaxed);
        }
    }
}

/// Applies `f` to every input across scoped worker threads, returning
/// results in input order. Workers pull the next job index from a
/// shared counter, so scheduling is dynamic but the output order is
/// not: result `i` always corresponds to input `i`. A job's panic is
/// resumed in the caller with its original payload.
pub fn pmap<I, T, F>(inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = inputs.len();
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get()).min(n);
    if threads <= 1 {
        return inputs.iter().map(f).collect();
    }
    let (f, next) = (&f, &AtomicUsize::new(0));
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let _stop = StopOnPanic { next, n };
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(&inputs[i])));
                    }
                })
            })
            .collect();
        for w in workers {
            let done = w.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (i, r) in done {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every job ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmap_preserves_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let got = pmap(&inputs, |&x| x * x);
        let want: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pmap_handles_empty_and_single() {
        assert_eq!(pmap::<u32, u32, _>(&[], |&x| x), Vec::<u32>::new());
        assert_eq!(pmap(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "workload seven exploded (payload 7)")]
    fn a_panicking_job_panics_the_caller_with_its_payload() {
        let inputs: Vec<u64> = (0..16).collect();
        pmap(&inputs, |&x| {
            assert!(x != 7, "workload seven exploded (payload {x})");
            x * 2
        });
    }

    #[test]
    fn pmap_with_heavier_jobs_matches_sequential() {
        let inputs: Vec<u64> = (0..32).collect();
        let work = |&seed: &u64| {
            // splitmix-ish scramble: enough work to force interleaving.
            let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15);
            for _ in 0..10_000 {
                x ^= x >> 30;
                x = x.wrapping_mul(0xbf58476d1ce4e5b9);
            }
            x
        };
        assert_eq!(pmap(&inputs, work), inputs.iter().map(work).collect::<Vec<_>>());
    }
}
