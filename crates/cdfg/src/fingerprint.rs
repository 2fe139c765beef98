//! Content-addressed structural fingerprinting of CDFGs.
//!
//! [`graph_fingerprint`] maps a [`Cdfg`] to a stable 64-bit hash of its
//! *structure*: the same value on every run, every platform and every
//! build (no [`std::collections::hash_map::RandomState`] seeding), and
//! invariant under the insertion order of operations and edges — two
//! graphs that differ only in the order their nodes/edges were pushed
//! through the builder fingerprint identically. A compile cache (e.g.
//! `pchls-serve`) can therefore address compiled artifacts by content
//! rather than by name or by pointer.
//!
//! The hash is *not* a proof of equality: structurally different graphs
//! can collide (both the generic 64-bit birthday bound and the classic
//! Weisfeiler–Lehman blind spots on highly symmetric graphs). Callers
//! that act on a fingerprint match must verify with a full equality
//! check, exactly like a hash map verifies keys within a bucket.
//!
//! # How it works
//!
//! Every node gets a canonical hash independent of its [`NodeId`]:
//!
//! 1. a **forward** pass in topological order hashes each node from its
//!    kind, its io label (compute-op labels are generated from the id by
//!    [`CdfgBuilder::op`](crate::CdfgBuilder::op) and are therefore
//!    excluded), and the port-ordered forward hashes of its operands;
//! 2. a **backward** pass in reverse topological order hashes each node
//!    from its kind and the *sorted multiset* of `(successor hash,
//!    operand port)` pairs of its out-edges;
//! 3. the node's canonical hash mixes the two, so a node is identified
//!    by its whole dependence cone in both directions.
//!
//! The fingerprint then combines the graph name, the node- and
//! edge-hash multisets (sorted, so insertion order cannot matter) and
//! the counts into one 64-bit value.
//!
//! # Example
//!
//! ```
//! use pchls_cdfg::{graph_fingerprint, CdfgBuilder, OpKind};
//!
//! # fn main() -> Result<(), pchls_cdfg::CdfgError> {
//! // The same dataflow, built in two different insertion orders.
//! let mut b = CdfgBuilder::new("g");
//! let x = b.input("x");
//! let y = b.input("y");
//! let s = b.op(OpKind::Add, &[x, y]);
//! b.output("o", s);
//! let first = b.finish()?;
//!
//! let mut b = CdfgBuilder::new("g");
//! let y = b.input("y");
//! let x = b.input("x");
//! let s = b.op(OpKind::Add, &[x, y]);
//! b.output("o", s);
//! let second = b.finish()?;
//!
//! assert_eq!(graph_fingerprint(&first), graph_fingerprint(&second));
//! # Ok(())
//! # }
//! ```

use crate::analysis::Reachability;
use crate::graph::Cdfg;

/// An incremental, order-sensitive stable hasher built from the same
/// primitives as [`graph_fingerprint`]: SplitMix64 avalanche over an
/// order-sensitive fold, FNV-1a for strings. Unlike
/// [`std::hash::DefaultHasher`] the result is identical on every run,
/// platform and build, so it is safe to persist (the on-disk result
/// store keys records by hashes produced here).
///
/// # Example
///
/// ```
/// use pchls_cdfg::StableHasher;
///
/// let mut h = StableHasher::new(0x1234);
/// h.write_u64(7);
/// h.write_str("hal");
/// let a = h.finish();
/// assert_eq!(a, {
///     let mut h = StableHasher::new(0x1234);
///     h.write_u64(7);
///     h.write_str("hal");
///     h.finish()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A hasher seeded with a caller-chosen domain tag, so hashes of
    /// different kinds of data never collide by construction.
    #[must_use]
    pub fn new(domain: u64) -> StableHasher {
        StableHasher { state: mix(domain) }
    }

    /// Folds one word into the hash (order-sensitive).
    pub fn write_u64(&mut self, word: u64) {
        self.state = fold(self.state, word);
    }

    /// Folds a string into the hash (FNV-1a over the bytes, then
    /// avalanched, then folded).
    pub fn write_str(&mut self, s: &str) {
        self.state = fold(self.state, hash_str(s));
    }

    /// The accumulated 64-bit hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        mix(self.state)
    }
}

/// SplitMix64 finalizer: the avalanche core of the fingerprint. Public
/// within the crate so tests can build expected values by hand.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Order-sensitive combination of a running hash with one more word.
fn fold(acc: u64, word: u64) -> u64 {
    mix(acc ^ mix(word))
}

/// Stable hash of a byte string (FNV-1a over the bytes, then avalanched).
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

/// A stable, structural, order-insensitive 64-bit fingerprint of
/// `graph`.
///
/// Guarantees (see the module docs for the construction):
///
/// * **deterministic** across processes, platforms and builds;
/// * **insertion-order-insensitive**: permuting the order in which
///   operations or edges were added — which relabels every
///   [`NodeId`](crate::NodeId) — does not change the fingerprint;
/// * **structural**: the graph name, every operation kind, the io port
///   labels, and the full dependence relation (with operand ports) all
///   feed the hash, so any structural mutation changes the fingerprint
///   with overwhelming probability.
///
/// Compute-op labels are excluded (they embed the insertion index), and
/// equal fingerprints do **not** prove equal graphs: follow a match
/// with a full equality verify before sharing anything derived from the
/// graph.
#[must_use]
pub fn graph_fingerprint(graph: &Cdfg) -> u64 {
    let n = graph.len();
    let canon = canonical_hashes(graph);
    let mut nodes: Vec<u64> = canon.clone();
    nodes.sort_unstable();
    let mut edges: Vec<u64> = graph
        .edges()
        .iter()
        .map(|e| {
            let mut h = fold(0x6564_6765, canon[e.from.index()]);
            h = fold(h, canon[e.to.index()]);
            fold(h, e.port as u64)
        })
        .collect();
    edges.sort_unstable();

    let mut fp = fold(0x7063_686c_732d_6664, hash_str(graph.name()));
    fp = fold(fp, n as u64);
    fp = fold(fp, graph.edges().len() as u64);
    for h in nodes {
        fp = fold(fp, h);
    }
    for h in edges {
        fp = fold(fp, h);
    }
    fp
}

/// The canonical per-node hash used by [`graph_fingerprint`]: a node is
/// identified by its whole dependence cone in both directions,
/// independently of its [`NodeId`](crate::NodeId). See the module docs
/// for the construction.
pub(crate) fn canonical_hashes(graph: &Cdfg) -> Vec<u64> {
    let n = graph.len();

    // Forward pass: hash(kind, io label, port-ordered operand hashes),
    // in topological order so operand hashes are ready when needed.
    let mut fwd = vec![0u64; n];
    for &id in graph.topological() {
        let node = graph.node(id);
        let mut h = fold(0x66_6f72_7761_7264, node.kind().index() as u64);
        if node.kind().is_io() {
            h = fold(h, hash_str(node.label()));
        }
        for (port, &src) in graph.operands(id).iter().enumerate() {
            h = fold(h, fwd[src.index()]);
            h = fold(h, port as u64);
        }
        fwd[id.index()] = h;
    }

    // Backward pass: hash(kind, io label, sorted multiset of
    // (successor hash, port at the successor)), in reverse topological
    // order. Sorting makes the out-edge combination order-insensitive.
    let mut bwd = vec![0u64; n];
    for &id in graph.topological().iter().rev() {
        let node = graph.node(id);
        let mut h = fold(0x6261_636b_7761_7264, node.kind().index() as u64);
        if node.kind().is_io() {
            h = fold(h, hash_str(node.label()));
        }
        let mut outs: Vec<u64> = graph
            .successors(id)
            .iter()
            .map(|&s| {
                // Recover the operand port(s) this value drives at `s`;
                // one value feeding two ports of one consumer appears
                // once per port in `successors`, and the port multiset
                // below disambiguates which ports.
                bwd[s.index()]
            })
            .zip(ports_at_consumers(graph, id))
            .map(|(sh, port)| fold(fold(0, sh), port as u64))
            .collect();
        outs.sort_unstable();
        for o in outs {
            h = fold(h, o);
        }
        bwd[id.index()] = h;
    }

    (0..n).map(|i| fold(fwd[i], bwd[i])).collect()
}

/// Per-node *cone fingerprints*: a stable hash of each node's full
/// ancestor/descendant dependence cone.
///
/// `cone[i]` folds the node's canonical structural hash (which already
/// encodes the shape of both cones — the same per-node hash that feeds
/// [`graph_fingerprint`]) with the ancestor and descendant populations
/// taken from the precomputed [`Reachability`] bitsets. Two uses:
///
/// * **permutation invariance**: relabeling the nodes permutes the
///   returned vector but never changes the multiset of values, so cone
///   fingerprints can be compared across graphs built in different
///   insertion orders;
/// * **edit locality**: an edit changes the cone fingerprints of
///   exactly the nodes whose dependence cone the edit intersects —
///   nodes outside the edit cone of [`diff`](crate::diff) keep their
///   value bit-for-bit, so per-node results keyed by them stay valid
///   outside the cone.
///
/// Like [`graph_fingerprint`] this is a hash, not a proof: act on a
/// match only after a full verify.
///
/// # Panics
///
/// Panics if `reach` was built for a different node count than `graph`.
#[must_use]
pub fn cone_fingerprints(graph: &Cdfg, reach: &Reachability) -> Vec<u64> {
    assert_eq!(
        reach.node_count(),
        graph.len(),
        "reachability built for a different graph"
    );
    let canon = canonical_hashes(graph);
    graph
        .node_ids()
        .map(|id| {
            let anc: usize = reach
                .ancestor_words(id)
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
            let desc: usize = reach.descendant_count(id);
            let mut h = fold(0x636f_6e65_2d66_7030, canon[id.index()]);
            h = fold(h, anc as u64);
            fold(h, desc as u64)
        })
        .collect()
}

/// For each entry of `graph.successors(id)` (in order), the operand
/// port of that consumer driven by `id`. When one value feeds several
/// ports of the same consumer, the ports are yielded in ascending
/// order, matching the duplicate successor entries.
fn ports_at_consumers<'g>(graph: &'g Cdfg, id: crate::NodeId) -> impl Iterator<Item = usize> + 'g {
    graph.successors(id).iter().scan(
        std::collections::HashMap::<u32, usize>::new(),
        move |seen, &s| {
            let skip = seen.entry(s.index() as u32).or_insert(0);
            let port = graph
                .operands(s)
                .iter()
                .enumerate()
                .filter(|&(_, &src)| src == id)
                .map(|(p, _)| p)
                .nth(*skip)
                .expect("successor entry implies a driving port");
            *skip += 1;
            Some(port)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{benchmarks, CdfgBuilder, Edge, NodeId, OpKind};

    #[test]
    fn benchmarks_have_distinct_stable_fingerprints() {
        let fps: Vec<u64> = benchmarks::all().iter().map(graph_fingerprint).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b, "two benchmarks collide");
            }
        }
        // Stability within a process (and across runs by construction:
        // no RandomState anywhere in the pipeline).
        for (g, fp) in benchmarks::all().iter().zip(&fps) {
            assert_eq!(graph_fingerprint(g), *fp);
        }
    }

    #[test]
    fn edge_insertion_order_is_ignored() {
        let g = benchmarks::hal();
        let nodes: Vec<(OpKind, String)> = g
            .nodes()
            .iter()
            .map(|n| (n.kind(), n.label().to_owned()))
            .collect();
        let mut edges = g.edges().to_vec();
        edges.reverse();
        let permuted = Cdfg::from_parts(g.name(), nodes, edges).unwrap();
        assert_ne!(permuted, g, "edge order differs under full equality");
        assert_eq!(graph_fingerprint(&permuted), graph_fingerprint(&g));
    }

    #[test]
    fn node_insertion_order_is_ignored() {
        let g = benchmarks::hal();
        let n = g.len();
        // Reverse the node order (a valid relabeling permutation).
        let perm: Vec<usize> = (0..n).rev().collect();
        let mut inv = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let nodes: Vec<(OpKind, String)> = perm
            .iter()
            .map(|&old| {
                let nd = &g.nodes()[old];
                (nd.kind(), nd.label().to_owned())
            })
            .collect();
        let edges: Vec<Edge> = g
            .edges()
            .iter()
            .map(|e| Edge {
                from: NodeId::new(inv[e.from.index()] as u32),
                to: NodeId::new(inv[e.to.index()] as u32),
                port: e.port,
            })
            .collect();
        let permuted = Cdfg::from_parts(g.name(), nodes, edges).unwrap();
        assert_ne!(permuted, g, "node order differs under full equality");
        assert_eq!(graph_fingerprint(&permuted), graph_fingerprint(&g));
    }

    #[test]
    fn structural_mutations_change_the_fingerprint() {
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        let base = b.finish().unwrap();
        let fp = graph_fingerprint(&base);

        // Different name.
        let mut b = CdfgBuilder::new("h");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // Different kind.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Sub, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // Swapped operand ports on a non-commutative consumer.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[x, a]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // Different io label.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("z");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);

        // One extra (dead) operation.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        let m = b.op(OpKind::Mul, &[a, x]);
        let _dead = b.op(OpKind::Sub, &[a, m]);
        b.output("o", m);
        assert_ne!(graph_fingerprint(&b.finish().unwrap()), fp);
    }

    #[test]
    fn compute_labels_do_not_feed_the_hash() {
        // The same structure with hand-picked compute labels must
        // fingerprint identically (labels of compute ops come from the
        // insertion index and would break permutation invariance).
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op(OpKind::Add, &[x, y]);
        b.output("o", a);
        let auto = b.finish().unwrap();

        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let a = b.op_named(OpKind::Add, "my_adder", &[x, y]);
        b.output("o", a);
        let named = b.finish().unwrap();

        assert_ne!(auto, named, "labels differ under full equality");
        assert_eq!(graph_fingerprint(&auto), graph_fingerprint(&named));
    }

    #[test]
    fn double_port_fanout_is_distinguished() {
        // v drives both ports of one consumer vs. two different
        // consumers' single ports — the (successor, port) multiset and
        // the edge multiset must tell these apart.
        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let s = b.op(OpKind::Add, &[x, x]);
        b.output("o", s);
        let both_ports = b.finish().unwrap();

        let mut b = CdfgBuilder::new("g");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.op(OpKind::Add, &[x, y]);
        b.output("o", s);
        let split = b.finish().unwrap();

        assert_ne!(graph_fingerprint(&both_ports), graph_fingerprint(&split));
    }
}
