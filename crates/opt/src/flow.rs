//! The preemptive-with-migration relaxation as maximum flow.
//!
//! By Horn's theorem, a set of (released) jobs is feasible on `m`
//! preemptive machines with migration iff the natural flow network
//! saturates every job: source → job `j` (capacity `p_j`), job →
//! event-interval `I` (capacity `|I|` if `I ⊆ [r_j, d_j]`), interval →
//! sink (capacity `m * |I|`), where event intervals are the segments
//! between consecutive distinct release/deadline values.
//!
//! Dropping the "every job saturated" requirement, the **maximum-flow
//! value itself** is the largest total work any preemptive schedule can
//! execute within deadlines — which upper-bounds the non-preemptive
//! optimum `OPT` (any non-preemptive schedule of an accepted subset is a
//! feasible flow). [`preemptive_load_bound`] returns that value.
//!
//! The solver is a self-contained Dinic implementation (O(V²E), far
//! beyond sufficient for the experiment sizes) over flat (CSR)
//! adjacency with an iterative blocking-flow search.

use cslack_kernel::Instance;

/// A self-contained Dinic max-flow solver on f64 capacities.
///
/// Edges are kept in creation order: edge `i` runs `to[i ^ 1] -> to[i]`
/// and its reverse is `i ^ 1`. [`Dinic::max_flow`] copies them into a
/// flat (CSR) layout where each node's edges sit contiguously, in the
/// order [`Dinic::add_edge`] created them, and searches augmenting
/// paths with an explicit stack. The paths it finds — and so every
/// residual capacity — are exactly those of the textbook recursive
/// search over per-node edge lists in that order.
#[derive(Clone, Debug)]
pub struct Dinic {
    /// Node count.
    n: usize,
    /// Edge targets, in creation order.
    to: Vec<usize>,
    /// Residual capacities, in creation order.
    cap: Vec<f64>,
    /// Numerical floor below which residual capacity counts as zero.
    eps: f64,
    // The CSR working copy, rebuilt by every `max_flow`, and the
    // search buffers its phases reuse. Edges are addressed by *slot*.
    /// Node `u`'s slots are `first[u]..first[u + 1]`.
    first: Vec<u32>,
    /// The slot of each edge, by creation index.
    slot: Vec<u32>,
    /// The edges in slot order.
    slots: Vec<Slot>,
    /// BFS level per node (`-1` = unreached).
    level: Vec<i32>,
    /// Per node: the next slot to try.
    it: Vec<u32>,
    /// BFS queue.
    queue: Vec<u32>,
    /// The current search path, as slots from the source.
    path: Vec<u32>,
}

/// One edge in CSR order.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Residual capacity.
    res: f64,
    /// Head node.
    head: u32,
    /// The reverse edge's slot.
    rev: u32,
}

impl Slot {
    /// Whether the residual capacity is above the numerical floor.
    fn has_room(&self, eps: f64) -> bool {
        self.res > eps
    }
}

impl Dinic {
    /// A network with `n` nodes and no edges.
    pub fn new(n: usize) -> Dinic {
        Dinic {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            eps: 1e-12,
            first: Vec::new(),
            slot: Vec::new(),
            slots: Vec::new(),
            level: Vec::new(),
            it: Vec::new(),
            queue: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Empties the network down to `n` nodes and no edges, keeping its
    /// buffers: a caller solving many networks in a row builds each one
    /// in the same `Dinic` and allocates only when a network outgrows
    /// every earlier one.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.to.clear();
        self.cap.clear();
    }

    /// Adds a directed edge `u -> v` with the given capacity.
    pub fn add_edge(&mut self, u: usize, v: usize, capacity: f64) {
        assert!(capacity >= 0.0);
        assert!(
            u < self.n && v < self.n,
            "edge {u} -> {v} outside {} nodes",
            self.n
        );
        self.to.push(v);
        self.cap.push(capacity);
        self.to.push(u);
        self.cap.push(0.0);
    }

    /// Lays the edges out by tail node, each node's edges in creation
    /// order (ascending edge index).
    fn build_csr(&mut self) {
        let (n, edges) = (self.n, self.to.len());
        assert!(
            n < u32::MAX as usize && edges < u32::MAX as usize,
            "network too large"
        );
        // Every head is the tail of the paired reverse edge, so counting
        // heads counts each node's edges.
        self.first.clear();
        self.first.resize(n + 1, 0);
        for &v in &self.to {
            self.first[v + 1] += 1;
        }
        for u in 0..n {
            self.first[u + 1] += self.first[u];
        }
        self.it.clear();
        self.it.extend_from_slice(&self.first[..n]);
        self.slot.clear();
        self.slot.resize(edges, 0);
        self.slots.clear();
        self.slots.resize(edges, Slot::default());
        for e in (0..edges).step_by(2) {
            let (v, u) = (self.to[e], self.to[e + 1]);
            let fwd = self.it[u];
            self.it[u] += 1;
            let back = self.it[v];
            self.it[v] += 1;
            self.slot[e] = fwd;
            self.slot[e + 1] = back;
            self.slots[fwd as usize] = Slot {
                res: self.cap[e],
                head: v as u32,
                rev: back,
            };
            self.slots[back as usize] = Slot {
                res: self.cap[e + 1],
                head: u as u32,
                rev: fwd,
            };
        }
        self.level.clear();
        self.level.resize(n, -1);
    }

    /// Levels the residual graph from `s`; returns whether `t` is
    /// reachable. Stops as soon as `t` is reached: every node closer to
    /// `s` already has its level then, and the nodes left unlevelled
    /// are as far from `s` as `t` or farther, so no path a phase
    /// augments along can pass through them.
    fn bfs(&mut self, s: usize, t: usize) -> bool {
        let eps = self.eps;
        let (first, slots) = (&self.first[..], &self.slots[..]);
        let (level, queue) = (&mut self.level[..], &mut self.queue);
        level.fill(-1);
        level[s] = 0;
        queue.clear();
        queue.push(s as u32);
        let mut next = 0;
        while next < queue.len() {
            let u = queue[next] as usize;
            next += 1;
            let below = level[u] + 1;
            for edge in &slots[first[u] as usize..first[u + 1] as usize] {
                let v = edge.head as usize;
                if level[v] < 0 && edge.has_room(eps) {
                    level[v] = below;
                    if v == t {
                        return true;
                    }
                    queue.push(edge.head);
                }
            }
        }
        false
    }

    /// One phase: augments along level-graph paths until `s` is cut off
    /// from `t`, adding each path's flow to `flow` in discovery order.
    ///
    /// A node whose edges are used up is unlevelled, so later searches
    /// skip it instead of stepping in and back out. That moves no
    /// iterator differently: no edge can become admissible within a
    /// phase (augmenting only adds capacity to edges that lead one
    /// level back), so the recursive search would have found the node
    /// dead again and moved past the edge into it all the same.
    fn blocking_flow(&mut self, s: usize, t: usize, flow: &mut f64) {
        let eps = self.eps;
        let first = &self.first[..];
        let (slots, level) = (&mut self.slots[..], &mut self.level[..]);
        let (it, path) = (&mut self.it, &mut self.path);
        it.clear();
        it.extend_from_slice(&first[..self.n]);
        path.clear();
        let mut u = s;
        loop {
            if u == t {
                let pushed = path
                    .iter()
                    .fold(f64::INFINITY, |f, &i| f.min(slots[i as usize].res));
                for &i in path.iter() {
                    let edge = &mut slots[i as usize];
                    edge.res -= pushed;
                    let rev = edge.rev as usize;
                    slots[rev].res += pushed;
                }
                *flow += pushed;
                // Every edge before the first one this path exhausted is
                // still admissible with its iterator unmoved, so a fresh
                // search from `s` would walk straight back to that edge's
                // tail: resume there.
                let keep = path
                    .iter()
                    .position(|&i| !slots[i as usize].has_room(eps))
                    .unwrap_or(0);
                path.truncate(keep);
                u = path.last().map_or(s, |&i| slots[i as usize].head as usize);
                continue;
            }
            let want = level[u] + 1;
            let (start, end) = (it[u] as usize, first[u + 1] as usize);
            let found = slots[start..end]
                .iter()
                .position(|edge| level[edge.head as usize] == want && edge.has_room(eps));
            if let Some(k) = found {
                let i = start + k;
                it[u] = i as u32;
                path.push(i as u32);
                u = slots[i].head as usize;
            } else {
                // Dead end: unlevel it, retreat, and skip the edge that
                // led here.
                it[u] = end as u32;
                level[u] = -1;
                let Some(i) = path.pop() else {
                    return;
                };
                u = slots[slots[i as usize].rev as usize].head as usize;
                it[u] += 1;
            }
        }
    }

    /// Computes the maximum flow from `s` to `t`.
    pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
        assert_ne!(s, t);
        self.build_csr();
        let mut flow = 0.0;
        while self.bfs(s, t) {
            self.blocking_flow(s, t, &mut flow);
        }
        for (e, &i) in self.slot.iter().enumerate() {
            self.cap[e] = self.slots[i as usize].res;
        }
        flow
    }

    /// Flow currently routed through a *forward* edge (the `i`-th call
    /// to [`Dinic::add_edge`] created forward edge `2 i`). The reverse
    /// edge starts at capacity 0, so its residual equals the pushed
    /// flow.
    pub fn flow_on(&self, add_edge_index: usize) -> f64 {
        self.cap[2 * add_edge_index + 1]
    }
}

/// The maximum total work a preemptive (migration allowed) schedule can
/// execute within the deadlines — an upper bound on the non-preemptive
/// optimum load. The network is [`triples_load_bound`]'s.
pub fn preemptive_load_bound(instance: &Instance) -> f64 {
    let triples: Vec<(f64, f64, f64)> = instance
        .jobs()
        .iter()
        .map(|j| (j.release.raw(), j.proc_time, j.deadline.raw()))
        .collect();
    triples_load_bound(&triples, instance.machines())
}

/// The same preemptive upper bound as [`preemptive_load_bound`], but
/// over raw `(release, proc_time, deadline)` triples. This is the entry
/// point for windowed quality tracking: the live observatory slices the
/// flight-recorded decision stream into release-time windows and has no
/// dense-JobId [`Instance`] at hand. Non-finite deadlines are capped at
/// the latest finite release or deadline plus the total load (room to
/// run everything serially after every other job); jobs with
/// non-positive or non-finite processing time, or a non-finite release,
/// contribute nothing.
pub fn triples_load_bound(jobs: &[(f64, f64, f64)], m: usize) -> f64 {
    triples_load_bound_in(&mut Dinic::new(0), jobs, m)
}

/// [`triples_load_bound`] with the network built in `net` (after a
/// [`Dinic::reset`]), so a caller scoring window after window reuses
/// one solver's buffers.
pub fn triples_load_bound_in(net: &mut Dinic, jobs: &[(f64, f64, f64)], m: usize) -> f64 {
    let jobs: Vec<(f64, f64, f64)> = jobs
        .iter()
        .copied()
        .filter(|&(r, p, _)| r.is_finite() && p.is_finite() && p > 0.0)
        .collect();
    let n = jobs.len();
    if n == 0 || m == 0 {
        return 0.0;
    }
    let total_load: f64 = jobs.iter().map(|&(_, p, _)| p).sum();
    let horizon = jobs
        .iter()
        .flat_map(|&(r, _, d)| [r, if d.is_finite() { d } else { r }])
        .fold(0.0f64, f64::max);
    let infinite_cap = horizon + total_load;
    let deadline_of = |d: f64| if d.is_finite() { d } else { infinite_cap };

    // Event points, strictly increasing after the tolerant dedup; the
    // event intervals are `[points[i], points[i + 1])`.
    let mut points: Vec<f64> = Vec::with_capacity(2 * n);
    for &(r, _, d) in &jobs {
        points.push(r);
        points.push(deadline_of(d));
    }
    points.sort_unstable_by(|a, b| a.total_cmp(b));
    points.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * a.abs().max(1.0).max(b.abs()));
    let k = points.len() - 1;
    let (starts, ends) = (&points[..k], &points[1..]);

    // Nodes: 0 = source, 1..=n jobs, n+1..n+k intervals, n+k+1 = sink.
    let source = 0;
    let job_node = |j: usize| 1 + j;
    let iv_node = |i: usize| 1 + n + i;
    let sink = 1 + n + k;
    net.reset(sink + 1);

    for (jidx, &(r, p, d)) in jobs.iter().enumerate() {
        net.add_edge(source, job_node(jidx), p);
        // The intervals inside [r_j, d_j] (tolerant inclusion) are one
        // contiguous run: those starting at or after r_j and ending at
        // or before d_j.
        let d = deadline_of(d);
        let lo = starts.partition_point(|&a| a < r - 1e-12);
        let hi = ends.partition_point(|&b| b <= d + 1e-12);
        for i in lo..hi {
            net.add_edge(job_node(jidx), iv_node(i), ends[i] - starts[i]);
        }
    }
    for i in 0..k {
        net.add_edge(iv_node(i), sink, m as f64 * (ends[i] - starts[i]));
    }
    net.max_flow(source, sink)
}

/// The preemptive upper bound restricted to the jobs *released* in
/// `[start, end)` — the instance-slicing companion of
/// [`triples_load_bound`] for offline window-by-window audits: slicing
/// a whole instance by release windows and bounding each slice mirrors
/// exactly what the live observatory computes from the flight ring.
pub fn window_load_bound(instance: &Instance, start: f64, end: f64) -> f64 {
    let triples: Vec<(f64, f64, f64)> = instance
        .jobs()
        .iter()
        .filter(|j| j.release.raw() >= start && j.release.raw() < end)
        .map(|j| (j.release.raw(), j.proc_time, j.deadline.raw()))
        .collect();
    triples_load_bound(&triples, instance.machines())
}

/// A pending piece of work for the feasibility/planning API: remaining
/// processing time and absolute deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pending {
    /// Remaining work.
    pub remaining: f64,
    /// Absolute deadline.
    pub deadline: f64,
}

/// Per-interval work assignment produced by [`migration_plan`].
#[derive(Clone, Debug, PartialEq)]
pub struct IntervalAlloc {
    /// Interval start.
    pub start: f64,
    /// Interval end.
    pub end: f64,
    /// `(pending index, units of work inside the interval)`, only
    /// strictly positive entries.
    pub work: Vec<(usize, f64)>,
}

/// Horn feasibility for *released* work on `m` preemptive machines with
/// migration: can every pending item be fully served by its deadline
/// starting at `now`? Returns the plan on success, `None` otherwise.
///
/// The plan's intervals partition `[now, max deadline)` at the deadline
/// event points; within an interval no item receives more than the
/// interval length (no self-parallelism) and the total does not exceed
/// `m * length` — exactly what McNaughton's wrap-around rule needs to
/// realize it on physical machines.
pub fn migration_plan(pending: &[Pending], m: usize, now: f64) -> Option<Vec<IntervalAlloc>> {
    assert!(m >= 1);
    let total: f64 = pending.iter().map(|p| p.remaining).sum();
    if pending.is_empty() || total <= 0.0 {
        return Some(Vec::new());
    }
    // Quick necessary check: every deadline in the future.
    for p in pending {
        if p.remaining > 0.0 && p.deadline < now - 1e-12 {
            return None;
        }
    }
    let mut events: Vec<f64> = pending
        .iter()
        .filter(|p| p.remaining > 0.0)
        .map(|p| p.deadline)
        .collect();
    events.push(now);
    events.sort_by(|a, b| a.total_cmp(b));
    events.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * a.abs().max(1.0).max(b.abs()));
    let intervals: Vec<(f64, f64)> = events
        .windows(2)
        .map(|w| (w[0], w[1]))
        .filter(|(a, b)| b > a)
        .collect();
    let k = intervals.len();
    if k == 0 {
        return None; // positive work, no room
    }

    let n = pending.len();
    let source = 0;
    let job_node = |j: usize| 1 + j;
    let iv_node = |i: usize| 1 + n + i;
    let sink = 1 + n + k;
    let mut net = Dinic::new(sink + 1);
    // Track add_edge indices of job->interval edges for extraction.
    let mut edge_of: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (interval, edge idx)
    let mut n_edges = 0usize;
    let mut add = |net: &mut Dinic, u: usize, v: usize, c: f64| {
        net.add_edge(u, v, c);
        n_edges += 1;
        n_edges - 1
    };
    for (j, p) in pending.iter().enumerate() {
        if p.remaining <= 0.0 {
            continue;
        }
        add(&mut net, source, job_node(j), p.remaining);
        for (i, &(a, b)) in intervals.iter().enumerate() {
            if b <= p.deadline + 1e-12 && a >= now - 1e-12 {
                let e = add(&mut net, job_node(j), iv_node(i), b - a);
                edge_of[j].push((i, e));
            }
        }
    }
    for (i, &(a, b)) in intervals.iter().enumerate() {
        add(&mut net, iv_node(i), sink, m as f64 * (b - a));
    }
    let flow = net.max_flow(source, sink);
    if flow + 1e-9 * total.max(1.0) < total {
        return None;
    }
    let mut plan: Vec<IntervalAlloc> = intervals
        .iter()
        .map(|&(start, end)| IntervalAlloc {
            start,
            end,
            work: Vec::new(),
        })
        .collect();
    for (j, edges) in edge_of.iter().enumerate() {
        for &(i, e) in edges {
            let f = net.flow_on(e);
            if f > 1e-12 {
                plan[i].work.push((j, f));
            }
        }
    }
    Some(plan)
}

/// Pure feasibility variant of [`migration_plan`].
pub fn migration_feasible(pending: &[Pending], m: usize, now: f64) -> bool {
    migration_plan(pending, m, now).is_some()
}

/// The recursive, per-node-list Dinic that [`Dinic`] replaced, kept as
/// the reference its augmenting paths must match bit for bit.
#[cfg(test)]
mod reference {
    pub struct Dinic {
        adj: Vec<Vec<usize>>,
        to: Vec<usize>,
        cap: Vec<f64>,
        eps: f64,
    }

    impl Dinic {
        pub fn new(n: usize) -> Dinic {
            Dinic {
                adj: vec![Vec::new(); n],
                to: Vec::new(),
                cap: Vec::new(),
                eps: 1e-12,
            }
        }

        pub fn add_edge(&mut self, u: usize, v: usize, capacity: f64) {
            assert!(capacity >= 0.0);
            let e = self.to.len();
            self.to.push(v);
            self.cap.push(capacity);
            self.adj[u].push(e);
            self.to.push(u);
            self.cap.push(0.0);
            self.adj[v].push(e + 1);
        }

        fn bfs(&self, s: usize, t: usize, level: &mut [i32]) -> bool {
            level.fill(-1);
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(u) = queue.pop_front() {
                for &e in &self.adj[u] {
                    let v = self.to[e];
                    if level[v] < 0 && self.cap[e] > self.eps {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            level[t] >= 0
        }

        fn dfs(&mut self, u: usize, t: usize, pushed: f64, level: &[i32], it: &mut [usize]) -> f64 {
            if u == t {
                return pushed;
            }
            while it[u] < self.adj[u].len() {
                let e = self.adj[u][it[u]];
                let v = self.to[e];
                if level[v] == level[u] + 1 && self.cap[e] > self.eps {
                    let d = self.dfs(v, t, pushed.min(self.cap[e]), level, it);
                    if d > self.eps {
                        self.cap[e] -= d;
                        self.cap[e ^ 1] += d;
                        return d;
                    }
                }
                it[u] += 1;
            }
            0.0
        }

        pub fn max_flow(&mut self, s: usize, t: usize) -> f64 {
            let n = self.adj.len();
            let mut flow = 0.0;
            let mut level = vec![-1; n];
            while self.bfs(s, t, &mut level) {
                let mut it = vec![0usize; n];
                loop {
                    let pushed = self.dfs(s, t, f64::INFINITY, &level, &mut it);
                    if pushed <= self.eps {
                        break;
                    }
                    flow += pushed;
                }
            }
            flow
        }

        pub fn flow_on(&self, add_edge_index: usize) -> f64 {
            self.cap[2 * add_edge_index + 1]
        }
    }

    /// `triples_load_bound` as it was built before the binary-searched
    /// spans: every interval tested against every job.
    pub fn triples_load_bound(jobs: &[(f64, f64, f64)], m: usize) -> f64 {
        let jobs: Vec<(f64, f64, f64)> = jobs
            .iter()
            .copied()
            .filter(|&(r, p, _)| r.is_finite() && p.is_finite() && p > 0.0)
            .collect();
        let n = jobs.len();
        if n == 0 || m == 0 {
            return 0.0;
        }
        let total_load: f64 = jobs.iter().map(|&(_, p, _)| p).sum();
        let horizon = jobs
            .iter()
            .flat_map(|&(r, _, d)| [r, if d.is_finite() { d } else { r }])
            .fold(0.0f64, f64::max);
        let infinite_cap = horizon + total_load;
        let deadline_of = |d: f64| if d.is_finite() { d } else { infinite_cap };
        let mut events: Vec<f64> = Vec::with_capacity(2 * n);
        for &(r, _, d) in &jobs {
            events.push(r);
            events.push(deadline_of(d));
        }
        events.sort_by(|a, b| a.total_cmp(b));
        events.dedup_by(|a, b| (*a - *b).abs() <= 1e-12 * a.abs().max(1.0).max(b.abs()));
        let intervals: Vec<(f64, f64)> = events.windows(2).map(|w| (w[0], w[1])).collect();
        let k = intervals.len();
        let sink = 1 + n + k;
        let mut net = Dinic::new(sink + 1);
        for (jidx, &(r, p, d)) in jobs.iter().enumerate() {
            net.add_edge(0, 1 + jidx, p);
            let d = deadline_of(d);
            for (i, &(a, b)) in intervals.iter().enumerate() {
                if a >= r - 1e-12 && b <= d + 1e-12 {
                    net.add_edge(1 + jidx, 1 + n + i, b - a);
                }
            }
        }
        for (i, &(a, b)) in intervals.iter().enumerate() {
            net.add_edge(1 + n + i, sink, m as f64 * (b - a));
        }
        net.max_flow(0, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cslack_kernel::{InstanceBuilder, Time};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The CSR/iterative solver finds the recursive solver's
        /// augmenting paths: equal max-flow bits, equal flow bits on
        /// every edge. Capacities come from a small set so ties (and
        /// several exhausted edges on one path) are common.
        #[test]
        fn csr_dinic_matches_the_recursive_reference(
            n in 2usize..14,
            raw in prop::collection::vec((0usize..64, 0usize..64, 0usize..6, 0.0f64..4.0), 0..80),
        ) {
            let mut fast = Dinic::new(n);
            let mut slow = reference::Dinic::new(n);
            let edges = raw.len();
            for (a, b, class, x) in raw {
                // Mostly forward edges, so level graphs run deep.
                let (u, v) = if class == 5 { (b % n, a % n) } else { (a % n, b % n) };
                let (u, v) = if class < 5 && u > v { (v, u) } else { (u, v) };
                let c = match class {
                    0 => 0.0,
                    1 | 2 => 1.0,
                    3 => 2.0,
                    _ => (x * 4.0).round() * 0.5,
                };
                fast.add_edge(u, v, c);
                slow.add_edge(u, v, c);
            }
            let (s, t) = (0, n - 1);
            prop_assert_eq!(fast.max_flow(s, t).to_bits(), slow.max_flow(s, t).to_bits());
            for e in 0..edges {
                prop_assert_eq!(fast.flow_on(e).to_bits(), slow.flow_on(e).to_bits());
            }
            // A second solve on the saturated residual agrees too.
            prop_assert_eq!(fast.max_flow(s, t).to_bits(), slow.max_flow(s, t).to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Binary-searched interval spans build the linear scan's
        /// network edge for edge: equal bound bits on windows with tied
        /// event points, near-tied points and infinite deadlines.
        #[test]
        fn binary_searched_spans_match_the_linear_scan(
            m in 1usize..5,
            raw in prop::collection::vec((0u32..24, 1u32..12, 0u32..16, 0usize..8), 1..40),
        ) {
            let triples: Vec<(f64, f64, f64)> = raw
                .into_iter()
                .map(|(r, p, slack, kind)| {
                    let r = r as f64 * 0.5;
                    let p = p as f64 * 0.25;
                    let d = match kind {
                        0 => f64::INFINITY,
                        1 => r + p + 1e-13,
                        _ => r + p + slack as f64 * 0.5,
                    };
                    (r, p, d)
                })
                .collect();
            prop_assert_eq!(
                triples_load_bound(&triples, m).to_bits(),
                reference::triples_load_bound(&triples, m).to_bits()
            );
        }
    }

    #[test]
    fn csr_dinic_matches_the_reference_on_window_networks() {
        // The observatory's networks: bipartite job -> interval graphs
        // with many equal capacities, solved both ways.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..50 {
            let jobs = 1 + (next() * 60.0) as usize;
            let intervals = 1 + (next() * 40.0) as usize;
            let sink = 1 + jobs + intervals;
            let mut fast = Dinic::new(sink + 1);
            let mut slow = reference::Dinic::new(sink + 1);
            let mut add = |u: usize, v: usize, c: f64| {
                fast.add_edge(u, v, c);
                slow.add_edge(u, v, c);
            };
            for j in 0..jobs {
                add(0, 1 + j, (1.0 + (next() * 8.0).floor()) * 0.5);
                let lo = (next() * intervals as f64) as usize;
                let hi = (lo + 1 + (next() * 6.0) as usize).min(intervals);
                for i in lo..hi {
                    add(1 + j, 1 + jobs + i, 1.0);
                }
            }
            for i in 0..intervals {
                add(1 + jobs + i, sink, 3.0);
            }
            assert_eq!(
                fast.max_flow(0, sink).to_bits(),
                slow.max_flow(0, sink).to_bits()
            );
            for e in 0..fast.to.len() / 2 {
                assert_eq!(fast.flow_on(e).to_bits(), slow.flow_on(e).to_bits());
            }
        }
    }

    #[test]
    fn a_reused_solver_matches_fresh_solves() {
        // Windows of different sizes built one after another in one
        // `Dinic`: nothing of an earlier network leaks into a later one.
        let mut net = Dinic::new(0);
        for size in [40usize, 3, 120, 1, 77, 0, 15] {
            let triples: Vec<(f64, f64, f64)> = (0..size)
                .map(|i| {
                    let r = (i * 7 % 23) as f64 * 0.5;
                    let p = 0.25 + (i % 5) as f64 * 0.5;
                    let d = if i % 11 == 0 {
                        f64::INFINITY
                    } else {
                        r + p * (1.25 + (i % 3) as f64)
                    };
                    (r, p, d)
                })
                .collect();
            for m in [1, 3] {
                assert_eq!(
                    triples_load_bound_in(&mut net, &triples, m).to_bits(),
                    triples_load_bound(&triples, m).to_bits()
                );
            }
        }
    }

    #[test]
    fn late_release_with_infinite_deadline_is_counted() {
        // Released after the largest finite deadline of the instance
        // (there is none): the job still gets its whole run.
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::new(10.0), 1.0, Time::new(f64::INFINITY))
            .build()
            .unwrap();
        let bound = preemptive_load_bound(&inst);
        assert!((bound - 1.0).abs() < 1e-9, "bound={bound}");
        assert_eq!(
            bound.to_bits(),
            triples_load_bound(&[(10.0, 1.0, f64::INFINITY)], 1).to_bits()
        );
    }

    #[test]
    fn dinic_textbook_network() {
        // Classic 4-node diamond: max flow 2.
        let mut net = Dinic::new(4);
        net.add_edge(0, 1, 1.0);
        net.add_edge(0, 2, 1.0);
        net.add_edge(1, 3, 1.0);
        net.add_edge(2, 3, 1.0);
        net.add_edge(1, 2, 1.0); // cross edge changes nothing
        assert!((net.max_flow(0, 3) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dinic_bottleneck() {
        let mut net = Dinic::new(3);
        net.add_edge(0, 1, 10.0);
        net.add_edge(1, 2, 3.5);
        assert!((net.max_flow(0, 2) - 3.5).abs() < 1e-9);
    }

    #[test]
    fn dinic_disconnected_is_zero() {
        let mut net = Dinic::new(4);
        net.add_edge(0, 1, 5.0);
        net.add_edge(2, 3, 5.0);
        assert_eq!(net.max_flow(0, 3), 0.0);
    }

    #[test]
    fn single_feasible_job_is_fully_counted() {
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::ZERO, 2.0, Time::new(3.0))
            .build()
            .unwrap();
        assert!((preemptive_load_bound(&inst) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn overloaded_window_is_capped_by_capacity() {
        // Three unit jobs, all in [0, 1.5], one machine: at most 1.5.
        let mut b = InstanceBuilder::new(1, 0.5);
        for _ in 0..3 {
            b.push_tight(Time::ZERO, 1.0);
        }
        let inst = b.build().unwrap();
        assert!((preemptive_load_bound(&inst) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_machines_multiply_capacity() {
        let mut b = InstanceBuilder::new(2, 0.5);
        for _ in 0..3 {
            b.push_tight(Time::ZERO, 1.0);
        }
        let inst = b.build().unwrap();
        // Two machines, window [0, 1.5]: all three jobs fit preemptively
        // (each needs 1 unit in a 1.5 window; total 3 <= 2 * 1.5, and
        // per-job windows allow it).
        assert!((preemptive_load_bound(&inst) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn preemption_bound_dominates_nonpreemptive_reality() {
        // Non-preemptively one machine can run only one of these two
        // (each needs the middle of the window); preemptively both fit
        // partially: bound must be >= any non-preemptive schedule.
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::ZERO, 2.0, Time::new(3.0))
            .job(Time::new(1.0), 1.0, Time::new(2.5))
            .build()
            .unwrap();
        let bound = preemptive_load_bound(&inst);
        assert!(bound >= 2.0 - 1e-9);
        assert!(bound <= 3.0 + 1e-9);
        // Exact: intervals allow all 3 units? Window [0,3] has capacity 3,
        // job 2 confined to [1, 2.5]: both saturate => bound = 3.
        assert!((bound - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_windows_sum_up() {
        let inst = InstanceBuilder::new(1, 1.0)
            .job(Time::ZERO, 1.0, Time::new(2.0))
            .job(Time::new(5.0), 1.0, Time::new(7.0))
            .build()
            .unwrap();
        assert!((preemptive_load_bound(&inst) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn migration_plan_single_item() {
        let plan = migration_plan(
            &[Pending {
                remaining: 2.0,
                deadline: 3.0,
            }],
            1,
            0.0,
        )
        .expect("feasible");
        let total: f64 = plan.iter().flat_map(|iv| iv.work.iter().map(|w| w.1)).sum();
        assert!((total - 2.0).abs() < 1e-9);
        // No interval gives the item more time than its length.
        for iv in &plan {
            for &(_, units) in &iv.work {
                assert!(units <= iv.end - iv.start + 1e-9);
            }
        }
    }

    #[test]
    fn migration_plan_infeasible_overload() {
        // Three units of work by deadline 2 on one machine.
        let pending = vec![
            Pending {
                remaining: 1.5,
                deadline: 2.0,
            },
            Pending {
                remaining: 1.5,
                deadline: 2.0,
            },
        ];
        assert!(migration_plan(&pending, 1, 0.0).is_none());
        // ... but feasible on two machines.
        assert!(migration_plan(&pending, 2, 0.0).is_some());
    }

    #[test]
    fn migration_plan_needs_migration_to_fit() {
        // Classic: 3 items of 2 units, deadline 3, on 2 machines: total
        // 6 = 2 * 3 exactly; only a migrating schedule fits.
        let pending = vec![
            Pending {
                remaining: 2.0,
                deadline: 3.0
            };
            3
        ];
        let plan = migration_plan(&pending, 2, 0.0).expect("feasible with migration");
        let total: f64 = plan.iter().flat_map(|iv| iv.work.iter().map(|w| w.1)).sum();
        assert!((total - 6.0).abs() < 1e-9);
    }

    #[test]
    fn migration_plan_respects_now() {
        let p = [Pending {
            remaining: 1.0,
            deadline: 2.0,
        }];
        assert!(migration_feasible(&p, 1, 1.0));
        assert!(!migration_feasible(&p, 1, 1.5));
        assert!(!migration_feasible(&p, 1, 3.0), "deadline in the past");
    }

    #[test]
    fn migration_plan_empty_and_zero_work() {
        assert_eq!(migration_plan(&[], 2, 5.0), Some(Vec::new()));
        let zero = [Pending {
            remaining: 0.0,
            deadline: 0.5,
        }];
        assert_eq!(migration_plan(&zero, 1, 5.0), Some(Vec::new()));
    }

    #[test]
    fn flow_on_reports_pushed_flow() {
        let mut net = Dinic::new(3);
        net.add_edge(0, 1, 5.0); // edge 0
        net.add_edge(1, 2, 3.0); // edge 1
        let f = net.max_flow(0, 2);
        assert!((f - 3.0).abs() < 1e-9);
        assert!((net.flow_on(0) - 3.0).abs() < 1e-9);
        assert!((net.flow_on(1) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn triples_bound_matches_instance_bound() {
        let mut b = InstanceBuilder::new(2, 0.5);
        b.push(Time::ZERO, 2.0, Time::new(3.0));
        b.push(Time::new(1.0), 1.0, Time::new(2.5));
        b.push(Time::new(0.5), 4.0, Time::new(9.0));
        b.push_tight(Time::new(2.0), 1.5);
        let inst = b.build().unwrap();
        let triples: Vec<(f64, f64, f64)> = inst
            .jobs()
            .iter()
            .map(|j| (j.release.raw(), j.proc_time, j.deadline.raw()))
            .collect();
        let direct = preemptive_load_bound(&inst);
        let via_triples = triples_load_bound(&triples, inst.machines());
        assert!(
            (direct - via_triples).abs() < 1e-9,
            "{direct} != {via_triples}"
        );
    }

    #[test]
    fn triples_bound_ignores_degenerate_jobs() {
        assert_eq!(triples_load_bound(&[], 4), 0.0);
        assert_eq!(triples_load_bound(&[(0.0, 1.0, 2.0)], 0), 0.0);
        let clean = triples_load_bound(&[(0.0, 1.0, 2.0)], 1);
        let noisy = triples_load_bound(
            &[
                (0.0, 1.0, 2.0),
                (0.0, 0.0, 5.0),
                (f64::NAN, 1.0, 2.0),
                (0.0, f64::INFINITY, 9.0),
            ],
            1,
        );
        assert!((clean - noisy).abs() < 1e-9);
        assert!((clean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn triples_bound_caps_infinite_deadlines() {
        let bound = triples_load_bound(&[(0.0, 1.0, f64::INFINITY), (0.0, 1.0, 1.5)], 1);
        assert!((bound - 2.0).abs() < 1e-9, "bound={bound}");
    }

    #[test]
    fn window_slices_partition_the_bound_for_disjoint_windows() {
        // Two release clusters with non-overlapping execution windows:
        // slicing by release window recovers each cluster's bound, and
        // the slices sum to the whole-instance bound.
        let inst = InstanceBuilder::new(1, 1.0)
            .job(Time::ZERO, 1.0, Time::new(2.0))
            .job(Time::new(0.5), 1.0, Time::new(2.5))
            .job(Time::new(5.0), 1.0, Time::new(7.0))
            .build()
            .unwrap();
        let w0 = window_load_bound(&inst, 0.0, 4.0);
        let w1 = window_load_bound(&inst, 4.0, 8.0);
        assert!((w0 - 2.0).abs() < 1e-9, "w0={w0}");
        assert!((w1 - 1.0).abs() < 1e-9, "w1={w1}");
        assert!((w0 + w1 - preemptive_load_bound(&inst)).abs() < 1e-9);
        // An empty slice bounds nothing.
        assert_eq!(window_load_bound(&inst, 10.0, 20.0), 0.0);
    }

    #[test]
    fn infinite_deadline_jobs_do_not_break_the_network() {
        let inst = InstanceBuilder::new(1, 0.5)
            .job(Time::ZERO, 1.0, Time::new(f64::INFINITY))
            .job(Time::ZERO, 1.0, Time::new(1.5))
            .build()
            .unwrap();
        let bound = preemptive_load_bound(&inst);
        assert!((bound - 2.0).abs() < 1e-9, "bound={bound}");
    }
}
