//! A std-only work-stealing-free thread pool: a shared job index over a
//! slot vector, scoped worker threads, and per-job panic isolation.
//!
//! The pool makes one guarantee the engine's determinism rests on:
//! results come back **in submission order**, no matter which worker ran
//! which job or how long each took. Each job writes into its own
//! pre-allocated slot; workers never contend on a shared output stream.
//!
//! [`run_jobs`] is also the one place that decides whether to fan out.
//! A drain that would use one worker (one task, or a budget of one)
//! runs its tasks in order on the calling thread: spawning and joining
//! a scoped thread costs tens of microseconds, a large share of a
//! daemon request answered from the cache, and a freshly spawned thread
//! ran a lone anneal chain at a third of the caller's move rate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// What the pool observed while draining a batch.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Workers used: the requested count, capped at one per job (and
    /// at least 1). With one, the jobs ran on the calling thread.
    pub workers: usize,
    /// Wall time of the whole drain.
    pub wall: Duration,
    /// Per-worker busy time (sum of job durations each worker ran).
    pub busy: Vec<Duration>,
}

/// Renders a caught panic payload as text (the common `&str` / `String`
/// payloads verbatim, anything else a placeholder).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `tasks` on `workers` threads, returning each task's result (or
/// its panic message) **in submission order**. When `min(workers,
/// tasks.len())` is at most 1, no thread is spawned: the tasks run in
/// submission order on the calling thread.
///
/// A panicking task poisons nothing and stops nobody: the panic is
/// caught at the job boundary, reported as `Err(message)`, and the
/// worker moves on to the next job.
///
/// # Panics
///
/// Panics if `workers` is zero.
pub fn run_jobs<T, F>(workers: usize, tasks: Vec<F>) -> (Vec<Result<T, String>>, PoolStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    assert!(workers >= 1, "pool needs at least one worker");
    let n = tasks.len();
    let workers = workers.min(n.max(1));
    let start = Instant::now();
    if workers == 1 {
        let mut busy = Duration::ZERO;
        let results = tasks
            .into_iter()
            .map(|task| {
                let (outcome, took) = run_caught(task);
                busy += took;
                outcome
            })
            .collect();
        let stats = PoolStats {
            workers,
            wall: start.elapsed(),
            busy: vec![busy],
        };
        return (results, stats);
    }
    let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<T, String>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let busy: Vec<Mutex<Duration>> = (0..workers).map(|_| Mutex::new(Duration::ZERO)).collect();
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let slots = &slots;
        let results = &results;
        let next = &next;
        for busy_slot in &busy {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = slots[i]
                    .lock()
                    .expect("slot lock")
                    .take()
                    .expect("each job claimed exactly once");
                let (outcome, took) = run_caught(task);
                *busy_slot.lock().expect("busy lock") += took;
                *results[i].lock().expect("result lock") = Some(outcome);
            });
        }
    });
    let wall = start.elapsed();
    let results = results
        .into_iter()
        .map(|m| m.into_inner().expect("result lock").expect("every slot filled"))
        .collect();
    let busy = busy
        .into_iter()
        .map(|m| m.into_inner().expect("busy lock"))
        .collect();
    (results, PoolStats { workers, wall, busy })
}

/// Runs one task at the job boundary: its result or panic message, and
/// how long it ran.
fn run_caught<T>(task: impl FnOnce() -> T) -> (Result<T, String>, Duration) {
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(panic_message);
    (outcome, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        // Jobs deliberately finish out of order (later jobs are quicker).
        let tasks: Vec<_> = (0..32usize)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_micros((32 - i as u64) * 50));
                    i * i
                }
            })
            .collect();
        let (results, stats) = run_jobs(4, tasks);
        let values: Vec<usize> = results.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(values, (0..32).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(stats.workers, 4);
        assert!(stats.busy.iter().sum::<Duration>() > Duration::ZERO);
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job 1 exploded")),
            Box::new(|| 3),
            Box::new(|| panic!("job 3 exploded: {}", 42)),
            Box::new(|| 5),
        ];
        let (results, _) = run_jobs(2, tasks);
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Err("job 1 exploded".to_owned()));
        assert_eq!(results[2], Ok(3));
        assert_eq!(results[3], Err("job 3 exploded: 42".to_owned()));
        assert_eq!(results[4], Ok(5));
    }

    #[test]
    fn worker_count_is_clamped_to_job_count() {
        let tasks: Vec<_> = (0..3).map(|i| move || i).collect();
        let (results, stats) = run_jobs(64, tasks);
        assert_eq!(results.len(), 3);
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.busy.len(), 3);
    }

    #[test]
    fn empty_batch_is_fine() {
        let (results, stats) = run_jobs::<u32, fn() -> u32>(8, Vec::new());
        assert!(results.is_empty());
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.busy.len(), 1);
    }

    #[test]
    fn a_one_worker_drain_runs_in_order_on_the_calling_thread() {
        let caller = thread::current().id();
        let ran = Mutex::new(Vec::new());
        let ran = &ran;
        let tasks: Vec<_> = (0..5usize)
            .map(|i| {
                move || {
                    ran.lock().expect("order lock").push(i);
                    assert_ne!(i, 2, "task 2 exploded");
                    (i, thread::current().id())
                }
            })
            .collect();
        let (results, stats) = run_jobs(1, tasks);
        assert_eq!(*ran.lock().expect("order lock"), [0, 1, 2, 3, 4]);
        for (i, result) in results.into_iter().enumerate() {
            match i {
                2 => assert!(result.expect_err("task 2 panics").contains("task 2 exploded")),
                _ => assert_eq!(result, Ok((i, caller)), "task {i}"),
            }
        }
        assert_eq!((stats.workers, stats.busy.len()), (1, 1));

        // A budget larger than the batch is clamped to one worker too:
        // the daemon's one-job `synth` batches take this path.
        let (results, stats) = run_jobs(8, vec![|| thread::current().id()]);
        assert_eq!(results, [Ok(caller)]);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        let _ = run_jobs(0, vec![|| 1]);
    }
}
