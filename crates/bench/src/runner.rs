//! Parallel experiment runner.
//!
//! Every `ds-bench` experiment is a pile of *independent* timing
//! simulations (workload × configuration), each deterministic and
//! single-threaded (DESIGN.md §6). That makes them embarrassingly
//! parallel: this module fans a job list across `std::thread::scope`
//! threads and returns results **in input order**, so a table printed
//! from the results is byte-identical whether the jobs ran
//! sequentially or on sixteen cores.
//!
//! A run opts in with `--parallel` (kept off by default so default
//! runs stay easy to profile and to diff against old behaviour);
//! `DS_BENCH_THREADS` caps the worker count.
//!
//! # Crash containment (ds-chaos satellite)
//!
//! Each job runs under `catch_unwind`: a panicking workload never
//! aborts its siblings — every other job still completes — and the
//! failures are reported as a summary before the process exits
//! non-zero. `DS_BENCH_TIMEOUT=<seconds>` additionally arms a
//! wall-clock guard per workload: any single job exceeding the limit
//! aborts the whole run with exit code 124 and names the stuck job.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// True when `--parallel` was passed on the command line.
pub fn parallel_requested() -> bool {
    std::env::args().any(|a| a == "--parallel")
}

/// Worker-thread count: `DS_BENCH_THREADS` if set and positive,
/// otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var("DS_BENCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Per-job wall-clock limit: `DS_BENCH_TIMEOUT` seconds when set and
/// positive, otherwise no guard.
pub fn job_timeout() -> Option<Duration> {
    let v = std::env::var("DS_BENCH_TIMEOUT").ok()?;
    match v.trim().parse::<u64>() {
        Ok(n) if n > 0 => Some(Duration::from_secs(n)),
        _ => {
            eprintln!("ignoring DS_BENCH_TIMEOUT={v:?}: expected a positive integer (seconds)");
            None
        }
    }
}

/// One contained job that panicked: which input, and what the panic
/// said.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Input index of the failed job.
    pub index: usize,
    /// The job's input, `Debug`-formatted (the workload descriptor).
    pub input: String,
    /// The panic payload, downcast to text when possible.
    pub payload: String,
}

/// Renders a panic payload as text (`&str` and `String` payloads pass
/// through; anything else is labelled opaque).
pub fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<opaque panic payload>".to_string()
    }
}

/// Applies `f` to every input with per-job panic containment: a
/// panicking job becomes a [`JobFailure`] (with its siblings
/// unaffected) instead of unwinding through the runner. Results stay
/// in input order; failed slots are `None`.
pub fn run_contained<I, T, F>(inputs: &[I], f: F) -> (Vec<Option<T>>, Vec<JobFailure>)
where
    I: Send + Sync + std::fmt::Debug,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let contained = |i: &I| catch_unwind(AssertUnwindSafe(|| f(i)));
    let raw: Vec<_> = if parallel_requested() && inputs.len() > 1 {
        pmap(inputs, contained)
    } else {
        inputs.iter().map(contained).collect()
    };
    let mut results = Vec::with_capacity(raw.len());
    let mut failures = Vec::new();
    for (index, r) in raw.into_iter().enumerate() {
        match r {
            Ok(v) => results.push(Some(v)),
            Err(e) => {
                failures.push(JobFailure {
                    index,
                    input: format!("{:?}", inputs[index]),
                    payload: panic_message(e),
                });
                results.push(None);
            }
        }
    }
    (results, failures)
}

/// Watches job wall-clock times on a detached thread and aborts the
/// process (exit 124) when any single job exceeds the limit — the
/// guard of last resort for a simulation that hangs instead of
/// panicking. Jobs check in/out; dropping the guard stops the monitor.
struct TimeoutGuard {
    active: Arc<Mutex<HashMap<usize, (Instant, String)>>>,
    stop: Arc<AtomicBool>,
}

impl TimeoutGuard {
    fn arm(limit: Duration) -> Self {
        let active: Arc<Mutex<HashMap<usize, (Instant, String)>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (a, s) = (Arc::clone(&active), Arc::clone(&stop));
        std::thread::spawn(move || loop {
            if s.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100).min(limit / 4));
            let now = Instant::now();
            let map = a.lock().unwrap_or_else(|p| p.into_inner());
            for (i, (start, input)) in map.iter() {
                if now.duration_since(*start) > limit {
                    eprintln!(
                        "bench job #{i} ({input}) exceeded DS_BENCH_TIMEOUT ({}s); aborting",
                        limit.as_secs()
                    );
                    std::process::exit(124);
                }
            }
        });
        TimeoutGuard { active, stop }
    }

    fn enter(&self, index: usize, input: String) {
        let mut map = self.active.lock().unwrap_or_else(|p| p.into_inner());
        map.insert(index, (Instant::now(), input));
    }

    fn exit(&self, index: usize) {
        let mut map = self.active.lock().unwrap_or_else(|p| p.into_inner());
        map.remove(&index);
    }
}

impl Drop for TimeoutGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Applies `f` to every input, in parallel when `--parallel` was
/// given, and returns the results in input order either way.
///
/// Jobs are containment-wrapped: if any panic, every sibling still
/// runs, the failures are summarised on stderr (workload + payload),
/// and the process exits non-zero. With `DS_BENCH_TIMEOUT=<seconds>`
/// set, a single job overrunning the limit aborts the run (exit 124).
pub fn map<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send + Sync + std::fmt::Debug,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let guard = job_timeout().map(TimeoutGuard::arm);
    let (results, failures) = {
        let guard = &guard;
        run_contained(&inputs, |i| {
            // Index the check-in by the job's position (pointer
            // identity): inputs are distinct slots even when payloads
            // repeat. Job lists are small; the linear scan is noise.
            let idx = inputs.iter().position(|x| std::ptr::eq(x, i)).unwrap_or(0);
            if let Some(g) = guard {
                g.enter(idx, format!("{i:?}"));
            }
            let r = f(i);
            if let Some(g) = guard {
                g.exit(idx);
            }
            r
        })
    };
    if !failures.is_empty() {
        eprintln!("-- bench job failures ({} of {}) --", failures.len(), inputs.len());
        for jf in &failures {
            eprintln!("  job #{} {}: {}", jf.index, jf.input, jf.payload);
        }
        eprintln!("aborting with non-zero status; sibling jobs completed normally");
        std::process::exit(1);
    }
    results.into_iter().map(|r| r.expect("non-failed jobs all produced results")).collect()
}

/// Applies `f` to every input across scoped worker threads, returning
/// results in input order. Workers pull the next job index from a
/// shared counter, so scheduling is dynamic but the output order is
/// not: result `i` always corresponds to input `i`.
pub fn pmap<I, T, F>(inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let n = inputs.len();
    let threads = thread_count().min(n);
    if threads <= 1 {
        return inputs.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let next = &next;
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
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
        for h in handles {
            for (i, r) in h.join().expect("worker panicked") {
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
    fn contained_jobs_survive_a_panicking_sibling() {
        let inputs: Vec<u64> = (0..16).collect();
        let (results, failures) = run_contained(&inputs, |&x| {
            assert!(x != 7, "workload seven exploded (payload {x})");
            x * 2
        });
        assert_eq!(results.len(), 16);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 7);
        assert_eq!(failures[0].input, "7");
        assert!(
            failures[0].payload.contains("workload seven exploded (payload 7)"),
            "panic payload must survive: {:?}",
            failures[0].payload
        );
        // Every sibling completed.
        for (i, r) in results.iter().enumerate() {
            if i == 7 {
                assert!(r.is_none());
            } else {
                assert_eq!(*r, Some(i as u64 * 2));
            }
        }
    }

    #[test]
    fn panic_message_downcasts_common_payloads() {
        assert_eq!(panic_message(Box::new("static str")), "static str");
        assert_eq!(panic_message(Box::new(String::from("owned"))), "owned");
        assert_eq!(panic_message(Box::new(42u32)), "<opaque panic payload>");
    }

    #[test]
    fn job_timeout_parses_only_positive_seconds() {
        // Uses the parser indirectly: no env var set in the test
        // harness means no guard.
        if std::env::var("DS_BENCH_TIMEOUT").is_err() {
            assert_eq!(job_timeout(), None);
        }
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
