//! How an idle pool's workers wait: a worker that runs out of nodes polls
//! for [`IDLE_POLL`] and then parks. These tests hold the two ends of
//! that: an idle pool stops spending CPU once the window has passed, and
//! a pool being dropped or fed back to back is not held up by the poll.
//!
//! This file is a test binary of its own, so the process CPU clock the
//! first test reads is advanced by nothing but its pool; the tests take
//! one lock so that they do not advance it for each other either.

use hero_task_graph::executor::IDLE_POLL;
use hero_task_graph::{Executor, TaskGraph};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs a graph of `width` independent nodes, a chain of `chain` nodes
/// and one node after both, and returns how often each node ran.
fn run_graph(pool: &Executor, width: usize, chain: usize) -> Vec<usize> {
    let runs: Vec<AtomicUsize> = (0..width + chain + 1)
        .map(|_| AtomicUsize::new(0))
        .collect();
    let mut g = TaskGraph::new();
    let ids: Vec<_> = runs
        .iter()
        .map(|r| {
            g.task(move || {
                r.fetch_add(1, Ordering::Relaxed);
            })
        })
        .collect();
    for link in ids[width..width + chain].windows(2) {
        g.depends_on(link[1], link[0]);
    }
    let last = ids[width + chain];
    for &id in &ids[..width + chain] {
        g.depends_on(last, id);
    }
    pool.run(g).unwrap();
    runs.into_iter().map(AtomicUsize::into_inner).collect()
}

/// User plus system CPU time of this process so far: fields 14 and 15 of
/// `/proc/self/stat`, in clock ticks of 10 ms.
#[cfg(target_os = "linux")]
fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields 3 onwards follow its closing parenthesis.
    let after_name = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    let ticks = |field: usize| -> u64 { fields[field - 3].parse().expect("tick count") };
    Duration::from_millis((ticks(14) + ticks(15)) * 10)
}

/// Workers that never parked would burn up to 400 ms of CPU in the
/// 200 ms stretch (two workers, each polling on a CPU of its own); parked
/// ones burn none. The bound leaves two 10 ms ticks of slack for the
/// kernel's sampled accounting.
#[cfg(target_os = "linux")]
#[test]
fn idle_workers_park_once_the_window_has_passed() {
    let _serial = serial();
    let pool = Executor::new(2).unwrap();
    assert!(run_graph(&pool, 32, 4).iter().all(|&n| n == 1));
    std::thread::sleep(IDLE_POLL * 20);
    let before = process_cpu();
    std::thread::sleep(Duration::from_millis(200));
    let used = process_cpu() - before;
    assert!(
        used <= Duration::from_millis(20),
        "an idle 2-worker pool used {used:?} of CPU in 200 ms"
    );
}

#[test]
fn dropping_a_pool_right_after_a_submission_is_prompt() {
    let _serial = serial();
    for round in 0..10 {
        let pool = Executor::new(2).unwrap();
        assert!(run_graph(&pool, 8, 2).iter().all(|&n| n == 1));
        let start = Instant::now();
        drop(pool);
        let took = start.elapsed();
        assert!(
            took <= Duration::from_millis(20),
            "round {round}: dropping the pool took {took:?}"
        );
    }
}

/// Submissions that follow each other with no gap find the workers still
/// polling: each must still run every node exactly once.
#[test]
fn back_to_back_submissions_run_every_node_once() {
    let _serial = serial();
    let pool = Executor::new(2).unwrap();
    for round in 0..1000 {
        let runs = run_graph(&pool, 1 + round % 16, round % 5);
        assert!(runs.iter().all(|&n| n == 1), "round {round}: {runs:?}");
    }
    assert_eq!(pool.submissions(), 1000);
}
