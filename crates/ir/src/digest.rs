//! Structural hashing of models and graphs.
//!
//! Two digests identify a model to the plan cache:
//!
//! * the **canonical model digest** ([`model_digest`]) — per-node labels
//!   refined Weisfeiler–Leman style from operator kinds, output shapes and
//!   neighbourhoods, folded with the series-parallel tree and the plan
//!   path. It is invariant under node-*insertion order* and operator
//!   names, and diverges for different topologies or operator
//!   configurations;
//! * the **numbering signature** ([`numbering_signature`]) — an
//!   order-sensitive hash of the concrete operator ids, which guards the
//!   reuse of a cached plan whose stage op lists are raw ids.
//!
//! [`SpModel::model_digest`] and [`SpModel::numbering_signature`] memoize
//! both on the model, so every request sharing one `Arc<SpModel>` pays
//! the O(nodes × depth) refinement once. The memo cells are private to
//! this crate: a cache key is only ever computed here, never written by a
//! caller.
//!
//! [`Digest`] is the 128-bit hasher underneath; `gp-serve` builds its
//! request, config and plan fingerprints from it.
//!
//! # Examples
//!
//! ```
//! use gp_ir::digest;
//! use gp_ir::zoo::{self, MmtConfig};
//!
//! let model = zoo::mmt(&MmtConfig::tiny());
//! assert_eq!(model.model_digest(), digest::model_digest(&model));
//! assert_eq!(
//!     model.numbering_signature(),
//!     digest::numbering_signature(model.graph())
//! );
//! ```
//!
//! gp-lint: deterministic — this module's outputs feed plan
//! fingerprints or the artifact codec; `cargo xtask lint` scans it for
//! nondeterminism hazards (DESIGN.md §"Determinism lint").

use crate::graph::{Graph, Node};
use crate::sp::{PlanPath, SpBlock, SpModel};
use std::fmt;
use std::sync::OnceLock;

/// One 64-bit lane of a digest: FNV-1a over words, with a splitmix64
/// finalizer applied to every absorbed word so that small input deltas
/// diffuse across the state.
#[derive(Clone, Copy)]
struct Lane {
    state: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Lane {
    fn new(seed: u64) -> Lane {
        Lane {
            state: 0xcbf2_9ce4_8422_2325 ^ splitmix64(seed),
        }
    }

    fn word(&mut self, w: u64) {
        self.state = (self.state ^ splitmix64(w)).wrapping_mul(FNV_PRIME);
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    fn finish(self) -> u64 {
        splitmix64(self.state)
    }
}

/// A 128-bit structural hasher: two independent FNV-1a + splitmix64
/// lanes seeded from a per-use `domain` word, so digests of different
/// kinds (models, requests, plans) never alias.
pub struct Digest {
    lo: Lane,
    hi: Lane,
}

impl Digest {
    /// A fresh digest for the given domain separator.
    pub fn new(domain: u64) -> Digest {
        Digest {
            lo: Lane::new(domain),
            hi: Lane::new(domain ^ 0x5851_f42d_4c95_7f2d),
        }
    }

    /// Absorbs one word.
    pub fn word(&mut self, w: u64) {
        self.lo.word(w);
        self.hi.word(w ^ 0xa5a5_a5a5_a5a5_a5a5);
    }

    /// Absorbs a length-prefixed word sequence.
    pub fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    /// Absorbs a float by its exact bit pattern.
    pub fn f64_bits(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    /// The 128-bit digest value.
    pub fn finish(self) -> u128 {
        ((self.hi.finish() as u128) << 64) | self.lo.finish() as u128
    }
}

/// Combines already-final 64-bit labels without order sensitivity.
fn sorted_fold(labels: &mut [u64]) -> Vec<u64> {
    labels.sort_unstable();
    labels.to_vec()
}

/// An operator's output shape as hash words.
fn shape_words(node: &Node) -> Vec<u64> {
    node.out_shape.dims().iter().map(|&d| d as u64).collect()
}

/// Per-node canonical labels of a graph: Weisfeiler–Leman refinement
/// seeded from each operator's structural words and output shape, then
/// iterated so every label absorbs its predecessors **in input order**
/// (input position is semantically meaningful and independent of insertion
/// order) and its successors **as a sorted multiset** (successor order is
/// an insertion-order artifact).
///
/// The number of rounds equals the graph's longest path length, so every
/// label sees the whole of its past and future light-cone.
fn canonical_labels(graph: &Graph) -> Vec<u64> {
    let n = graph.len();
    let mut labels: Vec<u64> = graph
        .nodes()
        .map(|node| {
            let mut lane = Lane::new(0x6e6f_6465);
            lane.words(&node.kind.structural_words());
            lane.words(&shape_words(node));
            lane.finish()
        })
        .collect();
    // Longest path length bounds how far structural information must
    // travel; one extra round as a safety margin.
    let order = graph.topo_order();
    let mut depth = vec![0usize; n];
    let mut rounds = 1usize;
    for &id in &order {
        for &s in graph.succs(id) {
            depth[s.index()] = depth[s.index()].max(depth[id.index()] + 1);
            rounds = rounds.max(depth[s.index()] + 1);
        }
    }
    let mut next = vec![0u64; n];
    for _ in 0..rounds {
        for node in graph.nodes() {
            let i = node.id.index();
            let mut lane = Lane::new(0x0072_6f75_6e64);
            lane.word(labels[i]);
            lane.word(graph.preds(node.id).len() as u64);
            for &p in graph.preds(node.id) {
                lane.word(labels[p.index()]);
            }
            let mut succs: Vec<u64> = graph
                .succs(node.id)
                .iter()
                .map(|&s| labels[s.index()])
                .collect();
            lane.words(&sorted_fold(&mut succs));
            next[i] = lane.finish();
        }
        std::mem::swap(&mut labels, &mut next);
    }
    labels
}

/// Folds the SP tree into a label using canonical node labels for
/// leaves. `Chain` children are position-sensitive (series order matters);
/// `Branches` children are folded as a sorted multiset (branch listing
/// order is an insertion artifact — planners treat branches as an
/// unordered set of independent subgraphs).
fn sp_hash(block: &SpBlock, labels: &[u64]) -> u64 {
    match block {
        SpBlock::Leaf(op) => {
            let mut lane = Lane::new(0x6c65_6166);
            lane.word(labels[op.index()]);
            lane.finish()
        }
        SpBlock::Chain(items) => {
            let mut lane = Lane::new(0x6368_6169);
            for item in items {
                lane.word(sp_hash(item, labels));
            }
            lane.finish()
        }
        SpBlock::Branches(items) => {
            let mut hashes: Vec<u64> = items.iter().map(|b| sp_hash(b, labels)).collect();
            let mut lane = Lane::new(0x6272_6368);
            lane.words(&sorted_fold(&mut hashes));
            lane.finish()
        }
    }
}

/// An *order-sensitive* signature of a graph's concrete numbering: a hash
/// over `(kind, shape, predecessor ids)` in id order. Two graphs with
/// equal signatures are identical labelled graphs (same operators with the
/// same ids and the same wiring), so a plan computed for one indexes
/// exactly the same operators in the other.
///
/// This is the counterpart of the canonical [`model_digest`]: the digest
/// is deliberately invariant under renumbering (the cache key), while
/// this signature is deliberately *not* (the safety check before serving
/// a cached plan, whose stage op lists are raw ids).
///
/// Uncached; [`SpModel::numbering_signature`] memoizes it per model.
pub fn numbering_signature(graph: &Graph) -> u64 {
    let mut lane = Lane::new(0x006e_756d_6265_7231);
    lane.word(graph.len() as u64);
    for node in graph.nodes() {
        lane.words(&node.kind.structural_words());
        lane.words(&shape_words(node));
        lane.words(
            &graph
                .preds(node.id)
                .iter()
                .map(|p| p.0 as u64)
                .collect::<Vec<u64>>(),
        );
    }
    lane.finish()
}

/// The canonical digest of a model (graph + SP decomposition + plan
/// path), independent of node-insertion order and operator names.
///
/// Uncached; [`SpModel::model_digest`] memoizes it per model.
pub fn model_digest(model: &SpModel) -> u128 {
    let graph = model.graph();
    let labels = canonical_labels(graph);
    let mut digest = Digest::new(0x006d_6f64_656c);
    digest.word(graph.len() as u64);
    digest.word(graph.edge_count() as u64);
    let mut all = labels.clone();
    digest.words(&sorted_fold(&mut all));
    digest.word(sp_hash(model.root(), &labels));
    // The path the DAG ladder took is part of the model's identity: an
    // SP-ized or clustered tree must never collide with a hand-authored
    // exact one. `ExactSp` absorbs nothing so every pre-DAG digest stays
    // byte-stable.
    match model.path() {
        PlanPath::ExactSp => {}
        PlanPath::SpIzed { distortion } => {
            digest.word(0x7370_697a_6564); // "spized"
            digest.word(distortion);
        }
        PlanPath::Clustered { units } => {
            digest.word(0x636c_7573_7465_7264); // "clusterd"
            digest.word(u64::from(units));
        }
    }
    digest.finish()
}

/// The per-model memo behind [`SpModel::model_digest`] and
/// [`SpModel::numbering_signature`]: filled on first use, carried by
/// clones, and reset whenever the model's identity changes.
#[derive(Clone, Default)]
pub(crate) struct DigestMemo {
    model: OnceLock<u128>,
    numbering: OnceLock<u64>,
}

impl DigestMemo {
    pub(crate) fn model(&self, model: &SpModel) -> u128 {
        *self.model.get_or_init(|| model_digest(model))
    }

    pub(crate) fn numbering(&self, graph: &Graph) -> u64 {
        *self.numbering.get_or_init(|| numbering_signature(graph))
    }
}

impl fmt::Debug for DigestMemo {
    /// Opaque: whether a cell is filled depends on call history, and a
    /// model's debug text must not.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DigestMemo")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{
        self, CandleUnoConfig, DlrmConfig, GnnPipeConfig, Gpt2Config, MmtConfig, MoeConfig,
    };
    use std::sync::Barrier;

    /// Every zoo model, full and tiny; gpt2 and gnn_pipe are built through
    /// the DAG ladder.
    fn zoo_models() -> Vec<SpModel> {
        vec![
            zoo::mmt(&MmtConfig::default()),
            zoo::mmt(&MmtConfig::tiny()),
            zoo::dlrm(&DlrmConfig::default()),
            zoo::dlrm(&DlrmConfig::tiny()),
            zoo::candle_uno(&CandleUnoConfig::full()),
            zoo::candle_uno(&CandleUnoConfig::default()),
            zoo::candle_uno(&CandleUnoConfig::tiny()),
            zoo::moe(&MoeConfig::default()),
            zoo::moe(&MoeConfig::tiny()),
            zoo::gpt2(&Gpt2Config::default()),
            zoo::gpt2(&Gpt2Config::tiny()),
            zoo::gnn_pipe(&GnnPipeConfig::default()),
            zoo::gnn_pipe(&GnnPipeConfig::tiny()),
            zoo::sequential_transformer(2, &MmtConfig::tiny()),
            zoo::case_study(&MmtConfig::tiny()),
            zoo::mlp_chain(4, 64),
        ]
    }

    #[test]
    fn memo_matches_the_uncached_digests_on_every_zoo_model() {
        for model in zoo_models() {
            let name = model.name().to_string();
            let digest = model_digest(&model);
            let numbering = numbering_signature(model.graph());
            // First call fills the memo, the second reads it.
            for _ in 0..2 {
                assert_eq!(model.model_digest(), digest, "{name}");
                assert_eq!(model.numbering_signature(), numbering, "{name}");
            }
        }
    }

    #[test]
    fn clones_carry_the_memo_and_agree() {
        let model = zoo::gnn_pipe(&GnnPipeConfig::tiny());
        let filled = model.model_digest();
        let numbering = model.numbering_signature();
        let copy = model.clone();
        assert_eq!(copy.model_digest(), filled);
        assert_eq!(copy.numbering_signature(), numbering);
        // A clone taken before the memo is filled computes the same value.
        let fresh = zoo::gnn_pipe(&GnnPipeConfig::tiny());
        let early = fresh.clone();
        assert_eq!(early.model_digest(), fresh.model_digest());
        assert_eq!(early.model_digest(), filled);
    }

    #[test]
    fn with_path_on_a_filled_memo_matches_a_fresh_model() {
        for path in [
            PlanPath::SpIzed { distortion: 4096 },
            PlanPath::Clustered { units: 3 },
            PlanPath::ExactSp,
        ] {
            let filled = zoo::mlp_chain(4, 16);
            let exact = filled.model_digest();
            let _ = filled.numbering_signature();
            let moved = filled.with_path(path);
            let fresh = zoo::mlp_chain(4, 16).with_path(path);
            assert_eq!(moved.model_digest(), model_digest(&fresh), "{path}");
            assert_eq!(moved.numbering_signature(), fresh.numbering_signature());
            assert_eq!(moved.model_digest() == exact, path == PlanPath::ExactSp);
        }
    }

    #[test]
    fn racing_first_calls_agree() {
        let model = zoo::gpt2(&Gpt2Config::tiny());
        let digest = model_digest(&model);
        let numbering = numbering_signature(model.graph());
        let barrier = Barrier::new(8);
        let seen: Vec<(u128, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        (model.model_digest(), model.numbering_signature())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(seen.iter().all(|&v| v == (digest, numbering)), "{seen:?}");
    }

    #[test]
    fn debug_text_does_not_depend_on_the_memo() {
        let model = zoo::mlp_chain(2, 8);
        let before = format!("{model:?}");
        let _ = model.model_digest();
        let _ = model.numbering_signature();
        assert_eq!(format!("{model:?}"), before);
    }
}
