//! CUDA-Graph-style kernel DAGs replayed onto a [`Timeline`] (§III-F).
//!
//! Workflow mirrors CUDA Graphs: capture kernel nodes with explicit
//! dependencies in a [`GraphBuilder`], [`GraphBuilder::instantiate`] once
//! (paying instantiation cost), then [`ExecutableGraph::launch`]
//! repeatedly — one host-side launch fee for the whole DAG instead of one
//! per kernel, which is where the paper's two-orders-of-magnitude launch
//! latency reduction (221.3×) comes from.
//!
//! ```
//! use hero_gpu_sim::device::rtx_4090;
//! use hero_gpu_sim::graph::GraphBuilder;
//! use hero_gpu_sim::stream::Timeline;
//!
//! let mut g = GraphBuilder::new();
//! let fors = g.kernel("FORS_Sign", 80.0, 64);
//! let tree = g.kernel("TREE_Sign", 120.0, 64);
//! let wots = g.kernel("WOTS+_Sign", 20.0, 64);
//! g.depends_on(wots, fors);
//! g.depends_on(wots, tree);
//! let exe = g.instantiate(&rtx_4090());
//! let mut tl = Timeline::new(rtx_4090());
//! let end = exe.launch(&mut tl, 0);
//! assert!(end >= 120.0 + 20.0);
//! ```

use crate::device::DeviceProps;
use crate::stream::{LaunchMode, Timeline};

/// Handle to a node inside a [`GraphBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// One kernel node in the DAG.
#[derive(Clone, Debug)]
struct Node {
    name: String,
    duration_us: f64,
    sms_demand: u32,
    deps: Vec<NodeId>,
}

/// Errors from graph instantiation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// A dependency edge references an unknown node.
    UnknownNode,
    /// The dependency relation contains a cycle.
    CycleDetected,
    /// The graph has no nodes.
    Empty,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::UnknownNode => f.write_str("dependency references unknown node"),
            GraphError::CycleDetected => f.write_str("task graph contains a cycle"),
            GraphError::Empty => f.write_str("task graph is empty"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A task graph under construction (the "capture" phase).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
}

impl GraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a kernel node with a simulated `duration_us` occupying
    /// `sms_demand` SMs. Returns its handle.
    pub fn kernel(&mut self, name: impl Into<String>, duration_us: f64, sms_demand: u32) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            duration_us,
            sms_demand,
            deps: Vec::new(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Declares that `node` must wait for `dep`.
    ///
    /// # Panics
    ///
    /// Panics if either handle is from a different builder (out of range).
    pub fn depends_on(&mut self, node: NodeId, dep: NodeId) {
        assert!(
            node.0 < self.nodes.len() && dep.0 < self.nodes.len(),
            "foreign node handle"
        );
        self.nodes[node.0].deps.push(dep);
    }

    /// Number of nodes captured so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the builder has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Validates and instantiates the graph for `device`
    /// (CUDA's `cudaGraphInstantiate`). Topologically sorts nodes and
    /// precomputes the launch schedule.
    ///
    /// # Panics
    ///
    /// Panics on an invalid graph; use [`GraphBuilder::try_instantiate`]
    /// for error handling.
    pub fn instantiate(self, device: &DeviceProps) -> ExecutableGraph {
        self.try_instantiate(device).expect("valid task graph")
    }

    /// Fallible [`GraphBuilder::instantiate`].
    ///
    /// # Errors
    ///
    /// [`GraphError::Empty`] for empty graphs, [`GraphError::CycleDetected`]
    /// if dependencies are cyclic.
    pub fn try_instantiate(self, device: &DeviceProps) -> Result<ExecutableGraph, GraphError> {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        // Kahn topological sort.
        let n = self.nodes.len();
        let mut indegree = vec![0usize; n];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for dep in &node.deps {
                if dep.0 >= n {
                    return Err(GraphError::UnknownNode);
                }
                indegree[i] += 1;
                dependents[dep.0].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(i);
            for &j in &dependents[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() != n {
            return Err(GraphError::CycleDetected);
        }
        Ok(ExecutableGraph {
            nodes: self.nodes,
            topo_order: order,
            instantiation_us: device.graph_launch_overhead_us,
            graph_launch_us: device.graph_launch_overhead_us,
        })
    }
}

/// An instantiated, repeatedly launchable task graph
/// (CUDA's `cudaGraphExec_t`).
#[derive(Clone, Debug)]
pub struct ExecutableGraph {
    nodes: Vec<Node>,
    topo_order: Vec<usize>,
    instantiation_us: f64,
    graph_launch_us: f64,
}

impl ExecutableGraph {
    /// Number of kernel nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes (never true post-instantiation).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// One-time instantiation cost (µs), excluded from Fig. 12's latency
    /// comparison as the paper does.
    pub fn instantiation_us(&self) -> f64 {
        self.instantiation_us
    }

    /// Replays the whole DAG onto `timeline`. `stream_idx` identifies the
    /// graph's stream group (one non-blocking group per graph, as §III-F's
    /// block-based strategy binds one graph per stream). Returns the
    /// completion time.
    ///
    /// Independent nodes run on distinct internal streams — ordering comes
    /// *only* from the DAG edges, matching CUDA Graph semantics. The host
    /// pays one graph-launch fee; per-node dispatch is driver-side and
    /// near-free ([`LaunchMode::Graph`]).
    pub fn launch(&self, timeline: &mut Timeline, stream_idx: usize) -> f64 {
        timeline.host_pay(self.graph_launch_us);
        let base = stream_idx * self.nodes.len();
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut makespan: f64 = 0.0;
        for &i in &self.topo_order {
            let node = &self.nodes[i];
            let stream = timeline.stream(base + i);
            let deps: Vec<f64> = node.deps.iter().map(|d| finish[d.0]).collect();
            let end = timeline.launch(
                node.name.clone(),
                stream,
                node.duration_us,
                node.sms_demand,
                LaunchMode::Graph,
                &deps,
            );
            finish[i] = end;
            makespan = makespan.max(end);
        }
        makespan
    }
}
