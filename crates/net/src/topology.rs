//! Topology kinds and their link-level routing.
//!
//! Every non-constant topology is described by a [`Layout`]: a fixed set
//! of directed links (each with its own serialization queue) plus two
//! routing functions that translate `(processor, memory module)` into the
//! forward and return link paths. Routing is purely structural — all
//! timing (serialization, hop latency, queueing) lives in the simulator.

/// Which interconnection network connects processors to memory modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// The paper's model: a contention-free network with a constant
    /// round-trip latency (`MachineConfig::latency`). No links are
    /// simulated; messages never queue.
    Constant,
    /// Single-stage crossbar: every processor has a private injection
    /// link, but messages to the same memory module serialize on that
    /// module's output port (and on the symmetric return ports).
    Crossbar,
    /// 2D mesh with dimension-order (X-then-Y) routing; memory modules
    /// are co-located with the routers. Latency grows with Manhattan
    /// distance and messages contend for every grid link they cross.
    Mesh,
    /// Indirect butterfly (log₂ P stages of 2×2 switches), the classic
    /// NYU-Ultracomputer/RP3 shape the paper's combining assumption comes
    /// from. Distinct sources heading to one module share the final
    /// stages, so hot spots saturate the tree root first.
    Butterfly,
}

impl Topology {
    /// All topologies, `constant` first.
    pub const ALL: [Topology; 4] =
        [Topology::Constant, Topology::Crossbar, Topology::Mesh, Topology::Butterfly];

    /// Short display name used by the CLI and reports.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Constant => "constant",
            Topology::Crossbar => "crossbar",
            Topology::Mesh => "mesh",
            Topology::Butterfly => "butterfly",
        }
    }

    /// Parses a display name back to the topology.
    pub fn from_name(name: &str) -> Option<Topology> {
        Topology::ALL.into_iter().find(|t| t.name() == name)
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A materialized topology: link count plus routing.
///
/// The engine routes one message per shared access, so the hot path
/// ([`Layout::forward`], [`Layout::back`]) walks a route with adds and
/// compares only: no divisions and no path buffer. What that needs is
/// precomputed here, in O(nodes + links) memory — the mesh keeps each
/// node's grid coordinates; crossbar and butterfly routes are closed
/// forms. The straightforward [`Layout::forward_path`] and
/// [`Layout::return_path`] builders stay as the tests' oracle.
#[derive(Debug, Clone)]
pub(crate) enum Layout {
    /// No links; round trips take the configured constant.
    Constant,
    /// `procs` injection + `modules` output-port links forward, the
    /// mirror pair on the return path.
    Crossbar { procs: usize, modules: usize },
    /// `w × h` grid of routers, four directed grid links per node plus
    /// four NIC links (processor inject/eject, module inject/eject).
    /// `xy[node]` is the node's `(x, y)` grid position.
    Mesh { w: usize, h: usize, xy: Box<[(u32, u32)]> },
    /// `stages` ranks of `rows` exit links forward, a mirrored set back.
    Butterfly { rows: usize, stages: usize },
}

impl Layout {
    /// Builds the layout for `topology` over `procs` processors and
    /// `modules` memory modules.
    pub(crate) fn new(topology: Topology, procs: usize, modules: usize) -> Layout {
        match topology {
            Topology::Constant => Layout::Constant,
            Topology::Crossbar => Layout::Crossbar { procs, modules },
            Topology::Mesh => {
                let n = procs.max(modules).max(1);
                let w = (n as f64).sqrt().ceil() as usize;
                let h = n.div_ceil(w);
                let xy = (0..w * h).map(|node| ((node % w) as u32, (node / w) as u32)).collect();
                Layout::Mesh { w, h, xy }
            }
            Topology::Butterfly => {
                let rows = procs.max(modules).max(2).next_power_of_two();
                Layout::Butterfly { rows, stages: rows.trailing_zeros() as usize }
            }
        }
    }

    /// Number of directed links this layout simulates.
    pub(crate) fn link_count(&self) -> usize {
        match *self {
            Layout::Constant => 0,
            Layout::Crossbar { procs, modules } => 2 * procs + 2 * modules,
            // Four grid links plus four NIC links per node.
            Layout::Mesh { w, h, .. } => w * h * 8,
            Layout::Butterfly { rows, stages } => 2 * rows * stages,
        }
    }

    /// Calls `hop` on each link of the forward (request) path from
    /// processor `src` to memory module `module`, in order. `src` must be
    /// a processor and `module` a module of this layout; the links are
    /// exactly [`Layout::forward_path`]'s.
    #[inline]
    pub(crate) fn forward(&self, src: usize, module: usize, mut hop: impl FnMut(usize)) {
        match *self {
            Layout::Constant => {}
            Layout::Crossbar { procs, .. } => {
                hop(src);
                hop(procs + module);
            }
            Layout::Mesh { w, h, ref xy } => {
                let nodes = w * h;
                hop(nic(nodes, src, 0)); // processor inject
                mesh_walk(w, xy, src, module, &mut hop);
                hop(nic(nodes, module, 1)); // module eject
            }
            Layout::Butterfly { rows, stages } => {
                butterfly_route(rows, stages, src, module, 0, hop);
            }
        }
    }

    /// Calls `hop` on each link of the return (reply) path from `module`
    /// back to `src`, in order: exactly [`Layout::return_path`]'s links.
    #[inline]
    pub(crate) fn back(&self, src: usize, module: usize, mut hop: impl FnMut(usize)) {
        match *self {
            Layout::Constant => {}
            Layout::Crossbar { procs, modules } => {
                hop(procs + modules + module);
                hop(procs + 2 * modules + src);
            }
            Layout::Mesh { w, h, ref xy } => {
                let nodes = w * h;
                hop(nic(nodes, module, 2)); // module inject
                mesh_walk(w, xy, module, src, &mut hop);
                hop(nic(nodes, src, 3)); // processor eject
            }
            Layout::Butterfly { rows, stages } => {
                // The reply crosses a mirrored return butterfly.
                butterfly_route(rows, stages, module, src, rows * stages, hop);
            }
        }
    }

    /// Appends the forward (request) path from processor `src` to memory
    /// module `module` onto `out`: the reference routing [`Layout::forward`]
    /// is tested against.
    #[cfg(test)]
    pub(crate) fn forward_path(&self, src: usize, module: usize, out: &mut Vec<usize>) {
        match *self {
            Layout::Constant => {}
            Layout::Crossbar { procs, .. } => {
                out.push(src);
                out.push(procs + module);
            }
            Layout::Mesh { w, h, .. } => {
                let nodes = w * h;
                let (a, b) = (src % nodes, module % nodes);
                out.push(nic(nodes, a, 0)); // processor inject
                mesh_route(w, a, b, out);
                out.push(nic(nodes, b, 1)); // module eject
            }
            Layout::Butterfly { rows, stages } => {
                butterfly_route(rows, stages, src % rows, module % rows, 0, |l| out.push(l));
            }
        }
    }

    /// Appends the return (reply) path from `module` back to `src`: the
    /// reference routing [`Layout::back`] is tested against.
    #[cfg(test)]
    pub(crate) fn return_path(&self, src: usize, module: usize, out: &mut Vec<usize>) {
        match *self {
            Layout::Constant => {}
            Layout::Crossbar { procs, modules } => {
                out.push(procs + modules + module);
                out.push(procs + 2 * modules + src);
            }
            Layout::Mesh { w, h, .. } => {
                let nodes = w * h;
                let (a, b) = (src % nodes, module % nodes);
                out.push(nic(nodes, b, 2)); // module inject
                mesh_route(w, b, a, out);
                out.push(nic(nodes, a, 3)); // processor eject
            }
            Layout::Butterfly { rows, stages } => {
                let base = rows * stages;
                butterfly_route(rows, stages, module % rows, src % rows, base, |l| out.push(l));
            }
        }
    }
}

/// NIC link id: `kind` 0 = proc inject, 1 = module eject, 2 = module
/// inject, 3 = proc eject. Grid links occupy ids `0..nodes*4`.
#[inline]
fn nic(nodes: usize, node: usize, kind: usize) -> usize {
    nodes * 4 + node * 4 + kind
}

/// Dimension-order walk from node `from` to node `to`: X first, then Y,
/// one directed grid link per hop (`node*4 + dir`; dir 0 = +X, 1 = -X,
/// 2 = +Y, 3 = -Y). Positions come from the precomputed `xy` table, and
/// a hop moves the node index by ±1 (X) or ±`w` (Y).
#[inline]
fn mesh_walk(w: usize, xy: &[(u32, u32)], from: usize, to: usize, hop: &mut impl FnMut(usize)) {
    let ((fx, fy), (tx, ty)) = (xy[from], xy[to]);
    let mut node = from;
    if tx >= fx {
        for _ in fx..tx {
            hop(node * 4);
            node += 1;
        }
    } else {
        for _ in tx..fx {
            hop(node * 4 + 1);
            node -= 1;
        }
    }
    if ty >= fy {
        for _ in fy..ty {
            hop(node * 4 + 2);
            node += w;
        }
    } else {
        for _ in ty..fy {
            hop(node * 4 + 3);
            node -= w;
        }
    }
}

/// Dimension-order route: X first, then Y. Pushes one directed grid link
/// per hop (`node*4 + dir`; dir 0 = +X, 1 = -X, 2 = +Y, 3 = -Y).
#[cfg(test)]
fn mesh_route(w: usize, from: usize, to: usize, out: &mut Vec<usize>) {
    let (mut x, mut y) = (from % w, from / w);
    let (bx, by) = (to % w, to / w);
    while x != bx {
        let dir = if bx > x { 0 } else { 1 };
        out.push((y * w + x) * 4 + dir);
        x = if bx > x { x + 1 } else { x - 1 };
    }
    while y != by {
        let dir = if by > y { 2 } else { 3 };
        out.push((y * w + x) * 4 + dir);
        y = if by > y { y + 1 } else { y - 1 };
    }
}

/// Destination-bit butterfly route from row `from` to row `to`: after
/// stage `k` the top `k+1` address bits are the destination's, so two
/// messages bound for one row share every late-stage link (the hot-spot
/// tree). `base` selects the forward or mirrored return link set.
#[inline]
fn butterfly_route(
    rows: usize,
    stages: usize,
    from: usize,
    to: usize,
    base: usize,
    mut hop: impl FnMut(usize),
) {
    for k in 0..stages {
        let low_mask = (1usize << (stages - 1 - k)) - 1;
        let row = (to & !low_mask) | (from & low_mask);
        hop(base + k * rows + row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for t in Topology::ALL {
            assert_eq!(Topology::from_name(t.name()), Some(t));
        }
        assert_eq!(Topology::from_name("torus"), None);
        assert_eq!(Topology::ALL.len(), 4);
    }

    fn paths(layout: &Layout, src: usize, module: usize) -> (Vec<usize>, Vec<usize>) {
        let (mut f, mut r) = (Vec::new(), Vec::new());
        layout.forward_path(src, module, &mut f);
        layout.return_path(src, module, &mut r);
        (f, r)
    }

    #[test]
    fn crossbar_paths_are_two_hops_and_in_range() {
        let l = Layout::new(Topology::Crossbar, 4, 4);
        let (f, r) = paths(&l, 1, 3);
        assert_eq!(f.len(), 2);
        assert_eq!(r.len(), 2);
        assert!(f.iter().chain(&r).all(|&id| id < l.link_count()));
        // Distinct processors to one module share only the output port.
        let (f2, _) = paths(&l, 2, 3);
        assert_ne!(f[0], f2[0]);
        assert_eq!(f[1], f2[1]);
    }

    #[test]
    fn mesh_route_length_is_manhattan_distance() {
        let l = Layout::new(Topology::Mesh, 16, 16); // 4x4 grid
        let (f, r) = paths(&l, 0, 15); // corner to corner: 3 + 3 hops
        assert_eq!(f.len(), 2 + 6, "two NIC links plus six grid hops");
        assert_eq!(r.len(), 2 + 6);
        assert!(f.iter().chain(&r).all(|&id| id < l.link_count()));
        // Self-route still crosses the NIC.
        let (f0, _) = paths(&l, 5, 5);
        assert_eq!(f0.len(), 2);
    }

    #[test]
    fn butterfly_routes_converge_on_the_destination_tree() {
        let l = Layout::new(Topology::Butterfly, 8, 8); // 8 rows, 3 stages
        let (f, r) = paths(&l, 0, 5);
        assert_eq!(f.len(), 3);
        assert_eq!(r.len(), 3);
        assert!(f.iter().chain(&r).all(|&id| id < l.link_count()));
        // Any two sources share the final-stage link into one module.
        let (g, _) = paths(&l, 7, 5);
        assert_eq!(f.last(), g.last());
        // Forward and return sets are disjoint.
        assert!(f.iter().all(|id| !r.contains(id)));
    }

    /// The hot-path walks against the oracle builders, link for link.
    fn assert_walks_match(t: Topology, procs: usize, modules: usize) {
        let l = Layout::new(t, procs, modules);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for src in 0..procs {
            for module in 0..modules {
                got.clear();
                want.clear();
                l.forward(src, module, |link| got.push(link));
                l.forward_path(src, module, &mut want);
                assert_eq!(got, want, "{t} P={procs} M={modules}: forward {src} -> {module}");
                got.clear();
                want.clear();
                l.back(src, module, |link| got.push(link));
                l.return_path(src, module, &mut want);
                assert_eq!(got, want, "{t} P={procs} M={modules}: return {module} -> {src}");
                assert!(got.iter().all(|&id| id < l.link_count()));
            }
        }
    }

    #[test]
    fn hot_path_routes_match_the_oracle() {
        let sizes = (1..=20usize).chain([64, 128]);
        for t in [Topology::Crossbar, Topology::Mesh, Topology::Butterfly] {
            for procs in sizes.clone() {
                // One module per processor, and counts that are not P:
                // fewer, more, odd and non-square.
                for modules in [procs, 1, procs.div_ceil(2), procs + 1, 2 * procs + 3] {
                    assert_walks_match(t, procs, modules);
                }
            }
        }
    }

    #[test]
    fn small_machines_still_have_links() {
        for t in [Topology::Crossbar, Topology::Mesh, Topology::Butterfly] {
            let l = Layout::new(t, 1, 1);
            assert!(l.link_count() > 0, "{t} with one processor");
            let (f, r) = paths(&l, 0, 0);
            assert!(!f.is_empty() && !r.is_empty(), "{t} paths must be non-empty");
        }
    }
}
