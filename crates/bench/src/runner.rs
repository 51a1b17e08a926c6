//! Ordered experiment runner.
//!
//! Every `ds-bench` experiment is a pile of *independent* timing
//! simulations (workload × configuration), each deterministic and
//! single-threaded (DESIGN.md §6). [`map`] fans them across
//! `std::thread::scope` workers, one per available core, and hands the
//! results back **in input order**, so a table printed from them is
//! byte-identical to one computed a job at a time.
//!
//! There is no crash containment. A panicking job is a bug in the
//! simulator or the experiment, and no table with a hole in it is worth
//! printing, so the panic fails the run at once: the other workers take
//! no new job and the panic propagates to the caller. Nor can a job
//! hang: the engine's forward-progress watchdog ends every wedged
//! simulation, and [`crate::expect_no_deadlock`] turns its report into
//! that panic.
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "host parallelism lives here, at sweep level: each job is one whole, \
              single-threaded simulation, and results come back in input order"
)]

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Applies `f` to every input across scoped worker threads, one per
/// available core, returning results in input order. Workers pull the
/// next job index from a shared counter, so scheduling is dynamic but
/// the output order is not: result `i` always corresponds to input `i`.
/// A job's panic is resumed in the caller with its original payload.
pub fn map<I, T, F>(inputs: &[I], f: F) -> Vec<T>
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
    use std::time::{Duration, Instant};

    /// Long enough for a loaded host to schedule a second worker; a
    /// pool of one reaches it instead of hanging.
    const DEADLINE: Duration = Duration::from_secs(30);

    fn workers() -> usize {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    }

    /// Spins until `ready` holds; false if [`DEADLINE`] passes first.
    fn wait_for(ready: impl Fn() -> bool) -> bool {
        let start = Instant::now();
        while !ready() {
            if start.elapsed() > DEADLINE {
                return false;
            }
            std::hint::spin_loop();
        }
        true
    }

    #[test]
    fn results_come_back_in_input_order_when_later_jobs_finish_first() {
        // Job 0 is the dearest: with two or more workers it finishes
        // only after every later job has, so results arrive out of
        // order and must be put back.
        let inputs: Vec<u64> = (0..16).collect();
        let finished = AtomicUsize::new(0);
        let pooled = workers() >= 2;
        let got = map(&inputs, |&x| {
            if x == 0 && pooled {
                let later = inputs.len() - 1;
                let overtaken = wait_for(|| finished.load(Ordering::SeqCst) == later);
                assert!(overtaken, "later jobs never finished while job 0 ran: one worker?");
            }
            finished.fetch_add(1, Ordering::SeqCst);
            x * x
        });
        let want: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn two_jobs_run_at_once_when_the_host_has_two_cores() {
        if workers() < 2 {
            eprintln!("skipped: available_parallelism() is 1");
            return;
        }
        let arrived = AtomicUsize::new(0);
        let met = map(&[0, 1], |_: &i32| {
            arrived.fetch_add(1, Ordering::SeqCst);
            wait_for(|| arrived.load(Ordering::SeqCst) == 2)
        });
        assert_eq!(met, [true, true], "the two jobs never overlapped: the pool ran one worker");
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert_eq!(map::<u32, u32, _>(&[], |&x| x), Vec::<u32>::new());
        assert_eq!(map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "workload seven exploded (payload 7)")]
    fn a_panicking_job_panics_the_caller_with_its_payload() {
        let inputs: Vec<u64> = (0..16).collect();
        map(&inputs, |&x| {
            assert!(x != 7, "workload seven exploded (payload {x})");
            x * 2
        });
    }
}
