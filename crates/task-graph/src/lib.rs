//! # hero-task-graph
//!
//! The CPU execution substrate of the HERO-Sign reproduction: a
//! CUDA-Graph-style task DAG ([`TaskGraph`], §III-F of the paper) whose
//! nodes carry real closures, run on the persistent [`Executor`] worker
//! pool with ready-queue scheduling. A node becomes runnable the instant
//! its last dependency finishes, so independent work from *different*
//! parts of the graph (in HERO-Sign: different messages of one signing
//! batch) co-schedules and keeps every worker busy. The executor is
//! submission-aware — several graphs run concurrently and their nodes
//! interleave on the same workers, like kernels from different CUDA
//! streams sharing SMs (see [`executor`]).
//!
//! The crate prices nothing: the analytic twin of this DAG,
//! replayed onto a simulated device timeline, is `hero_gpu_sim::graph`,
//! and this crate does not depend on the simulator.
//!
//! ```
//! use hero_task_graph::{Executor, TaskGraph};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! // One pool, two submissions: their nodes share the workers.
//! let pool = Executor::new(2).unwrap();
//! let done = AtomicUsize::new(0);
//! for _ in 0..2 {
//!     let mut g = TaskGraph::new();
//!     let a = g.task(|| { done.fetch_add(1, Ordering::Relaxed); });
//!     let b = g.task(|| { done.fetch_add(1, Ordering::Relaxed); });
//!     g.depends_on(b, a);
//!     pool.run(g).unwrap();
//! }
//! assert_eq!(done.load(Ordering::Relaxed), 4);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod executor;

pub use executor::Executor;

/// Handle to a node inside a [`TaskGraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Errors from graph execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The dependency relation contains a cycle.
    CycleDetected,
    /// An [`Executor`] was requested with zero worker threads.
    ZeroWorkers,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::CycleDetected => f.write_str("task graph contains a cycle"),
            GraphError::ZeroWorkers => f.write_str("executor needs at least one worker thread"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A boxed node work closure.
type NodeFn<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A task DAG whose nodes carry real work: each node is a closure, each
/// edge a happens-before constraint. [`Executor::run`] submits the DAG to
/// a persistent worker pool with ready-queue scheduling.
///
/// Nodes typically communicate through interior-mutable slots owned by
/// the caller (each node writes its output under a lock; dependents read
/// it once scheduled). The executor guarantees a node runs only after all
/// of its dependencies completed, on exactly one worker, exactly once.
///
/// ```
/// use hero_task_graph::{Executor, TaskGraph};
/// use std::sync::Mutex;
///
/// let log = Mutex::new(Vec::new());
/// let mut g = TaskGraph::new();
/// let a = g.task(|| log.lock().unwrap().push("fors"));
/// let b = g.task(|| log.lock().unwrap().push("tree"));
/// let w = g.task(|| log.lock().unwrap().push("wots"));
/// g.depends_on(w, a);
/// g.depends_on(w, b);
/// Executor::new(4).unwrap().run(g).unwrap();
/// assert_eq!(log.into_inner().unwrap().last(), Some(&"wots"));
/// ```
#[derive(Default)]
pub struct TaskGraph<'a> {
    /// Each node's work closure, indexed by [`NodeId`].
    pub(crate) nodes: Vec<NodeFn<'a>>,
    /// Every edge as `(dep, node)`, in declaration order: all of the
    /// graph's edges in one list, which [`Executor::run`] turns into
    /// one dependents list per submission.
    pub(crate) edges: Vec<(usize, usize)>,
}

impl<'a> TaskGraph<'a> {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a work node; returns its handle.
    pub fn task(&mut self, run: impl FnOnce() + Send + 'a) -> NodeId {
        self.nodes.push(Box::new(run));
        NodeId(self.nodes.len() - 1)
    }

    /// Declares that `node` must wait for `dep`. Duplicate edges are
    /// permitted (and counted consistently).
    ///
    /// # Panics
    ///
    /// Panics if either handle is from a different graph (out of range).
    pub fn depends_on(&mut self, node: NodeId, dep: NodeId) {
        assert!(
            node.0 < self.nodes.len() && dep.0 < self.nodes.len(),
            "foreign node handle"
        );
        self.edges.push((dep.0, node.0));
    }

    /// Number of nodes captured so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod functional {
        use super::*;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;

        /// One submission of `g` on a fresh pool of `workers` threads.
        fn run_on(workers: usize, g: TaskGraph<'_>) -> Result<(), GraphError> {
            Executor::new(workers)?.run(g)
        }

        #[test]
        fn all_nodes_run_exactly_once() {
            for workers in [1usize, 2, 8] {
                let count = AtomicUsize::new(0);
                let mut g = TaskGraph::new();
                for _ in 0..100 {
                    g.task(|| {
                        count.fetch_add(1, Ordering::Relaxed);
                    });
                }
                run_on(workers, g).unwrap();
                assert_eq!(count.into_inner(), 100, "workers={workers}");
            }
        }

        #[test]
        fn dependencies_order_execution() {
            // A chain a -> b -> c interleaved with free nodes: the chain's
            // recorded order must be a, b, c regardless of worker count.
            for workers in [1usize, 4] {
                let log = Mutex::new(Vec::new());
                let mut g = TaskGraph::new();
                let a = g.task(|| log.lock().unwrap().push('a'));
                for _ in 0..16 {
                    g.task(|| log.lock().unwrap().push('.'));
                }
                let b = g.task(|| log.lock().unwrap().push('b'));
                let c = g.task(|| log.lock().unwrap().push('c'));
                g.depends_on(b, a);
                g.depends_on(c, b);
                run_on(workers, g).unwrap();
                let log = log.into_inner().unwrap();
                let pos = |ch| log.iter().position(|&x| x == ch).unwrap();
                assert!(pos('a') < pos('b') && pos('b') < pos('c'));
            }
        }

        #[test]
        fn diamond_joins_before_sink() {
            let stamp = AtomicUsize::new(0);
            let fors_done = AtomicUsize::new(0);
            let tree_done = AtomicUsize::new(0);
            let wots_saw = AtomicUsize::new(0);
            let mut g = TaskGraph::new();
            let f = g.task(|| {
                fors_done.store(stamp.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst)
            });
            let t = g.task(|| {
                tree_done.store(stamp.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst)
            });
            let w = g.task(|| {
                wots_saw.store(
                    fors_done
                        .load(Ordering::SeqCst)
                        .min(tree_done.load(Ordering::SeqCst)),
                    Ordering::SeqCst,
                )
            });
            g.depends_on(w, f);
            g.depends_on(w, t);
            run_on(4, g).unwrap();
            // Both inputs had completed (nonzero stamps) when the sink ran.
            assert!(wots_saw.into_inner() > 0);
        }

        #[test]
        fn duplicate_edges_are_harmless() {
            let count = AtomicUsize::new(0);
            let mut g = TaskGraph::new();
            let a = g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            let b = g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            g.depends_on(b, a);
            g.depends_on(b, a);
            run_on(2, g).unwrap();
            assert_eq!(count.into_inner(), 2);
        }

        #[test]
        fn duplicate_edges_still_wait_for_every_dependency() {
            // `c` waits on `a` twice and on `b` once, and `b` waits on
            // `x`. On one worker the queue runs `a`, then `x`: a
            // duplicate edge counted twice on one side and once on the
            // other would release `c` before `b` (or never).
            for workers in [1usize, 4] {
                let log = Mutex::new(Vec::new());
                let mut g = TaskGraph::new();
                let a = g.task(|| log.lock().unwrap().push('a'));
                let x = g.task(|| log.lock().unwrap().push('x'));
                let b = g.task(|| log.lock().unwrap().push('b'));
                let c = g.task(|| log.lock().unwrap().push('c'));
                g.depends_on(b, x);
                g.depends_on(c, a);
                g.depends_on(c, a);
                g.depends_on(c, b);
                run_on(workers, g).unwrap();
                let log = log.into_inner().unwrap();
                assert_eq!(log.len(), 4, "workers={workers}");
                assert_eq!(log.last(), Some(&'c'), "workers={workers}: {log:?}");
            }
        }

        #[test]
        fn functional_cycle_rejected_without_running() {
            let count = AtomicUsize::new(0);
            let mut g = TaskGraph::new();
            let a = g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            let b = g.task(|| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            g.depends_on(a, b);
            g.depends_on(b, a);
            assert_eq!(run_on(4, g).unwrap_err(), GraphError::CycleDetected);
            assert_eq!(count.into_inner(), 0);
        }

        #[test]
        fn empty_graph_is_noop() {
            run_on(8, TaskGraph::new()).unwrap();
        }

        #[test]
        fn node_panic_propagates_with_payload() {
            let mut g = TaskGraph::new();
            g.task(|| panic!("stage exploded"));
            for _ in 0..8 {
                g.task(|| {});
            }
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = run_on(4, g);
            }))
            .expect_err("node panic must surface");
            // The original payload survives (not the generic
            // "a scoped thread panicked" of std::thread::scope).
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("original payload type");
            assert_eq!(msg, "stage exploded");
        }

        #[test]
        fn outputs_flow_through_slots() {
            // The core::plan pattern in miniature: producers fill slots,
            // a dependent consumes them.
            let slots: Vec<Mutex<Option<u64>>> = (0..8).map(|_| Mutex::new(None)).collect();
            let sum = Mutex::new(0u64);
            let mut g = TaskGraph::new();
            let producers: Vec<NodeId> = (0..8)
                .map(|i| {
                    let slots = &slots;
                    g.task(move || *slots[i].lock().unwrap() = Some(i as u64 * 10))
                })
                .collect();
            let sink = g.task(|| {
                *sum.lock().unwrap() = slots
                    .iter()
                    .map(|s| s.lock().unwrap().expect("producer ran"))
                    .sum()
            });
            for p in producers {
                g.depends_on(sink, p);
            }
            run_on(3, g).unwrap();
            assert_eq!(sum.into_inner().unwrap(), 280);
        }

        #[test]
        fn foreign_functional_handle_panics() {
            let mut g1 = TaskGraph::new();
            let a = g1.task(|| {});
            let mut g2 = TaskGraph::new();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                g2.depends_on(a, a);
            }));
            assert!(r.is_err());
        }
    }
}
