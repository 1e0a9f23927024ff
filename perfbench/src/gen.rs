//! Seeded inputs. Everything a workload feeds the program comes from here,
//! derived from the `--seed` argument alone: the same seed gives the same
//! tree, the same leaf batches, the same read mix and the same order of
//! evaluation items.

use linrec_datalog::{parse_linear_rule, Database, LinearRule, Relation, Value};
use linrec_engine::{workload, Selection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nodes in the base tree of the served workloads.
pub const TREE_NODES: u32 = 50_000;
/// Leaf edges per commit.
pub const LEAVES_PER_COMMIT: usize = 10;
/// Name of the served view and of its edge (and seed) relation.
pub const VIEW: &str = "anc";
pub const EDGE: &str = "e";

/// An independent stream for one purpose (`salt`) of one run seed.
pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The view's rule: `anc` is the transitive closure of `e`, seeded by `e`.
pub fn view_rule() -> LinearRule {
    parse_linear_rule("anc(x,y) :- anc(x,z), e(z,y).").expect("static rule parses")
}

/// Nodes whose parents come from one fixed stream whatever the seed. The
/// first nodes of a random recursive tree set most of its total depth
/// (each has about `n/i` descendants), so with them fixed the view's size
/// varies by about 2% across seeds instead of about 20%; every other
/// node, the leaf batches and the read mix still come from the seed.
pub const FIXED_TOP: u32 = 1000;
/// The fixed stream's seed: its top gives a view of about 490k tuples
/// (491k–499k over seeds 1–5).
const FIXED_TOP_SEED: u64 = 6;

/// A random recursive tree: node `i > 0` hangs under a parent drawn
/// uniformly from `0..i` (nodes below [`FIXED_TOP`] from a fixed stream,
/// the rest from `seed`). `parent[0]` is unused (the root).
pub fn tree_parents(seed: u64, nodes: u32) -> Vec<u32> {
    let (mut top, mut rest) = (rng(FIXED_TOP_SEED, 1), rng(seed, 1));
    let mut parent = vec![0u32; nodes as usize];
    for (i, p) in parent.iter_mut().enumerate().skip(1) {
        let stream = if (i as u32) < FIXED_TOP {
            &mut top
        } else {
            &mut rest
        };
        *p = stream.random_range(0..i as u32);
    }
    parent
}

/// The tree's edges `e(parent, child)` as a relation.
pub fn tree_relation(parent: &[u32]) -> Relation {
    Relation::from_pairs(
        parent
            .iter()
            .enumerate()
            .skip(1)
            .map(|(c, &p)| (i64::from(p), c as i64)),
    )
}

/// Successive commits of new leaves: each leaf is a fresh node hung under
/// a node that existed when its batch started.
pub struct LeafStream {
    rng: StdRng,
    next: u32,
}

impl LeafStream {
    pub fn new(seed: u64, base_nodes: u32) -> LeafStream {
        LeafStream {
            rng: rng(seed, 2),
            next: base_nodes,
        }
    }

    /// The next batch of `(parent, leaf)` edges.
    pub fn batch(&mut self) -> Vec<(u32, u32)> {
        let existing = self.next;
        (0..LEAVES_PER_COMMIT)
            .map(|_| {
                let leaf = self.next;
                self.next += 1;
                (self.rng.random_range(0..existing), leaf)
            })
            .collect()
    }
}

/// One read of the `read_mixed` mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// `ask anc a b`.
    Ask(u32, u32),
    /// `select anc 1=b limit 20`: the ancestors of `b`.
    Select(u32),
}

/// Rows a `select` asks for.
pub const SELECT_LIMIT: usize = 20;

impl Read {
    pub fn line(&self) -> String {
        match self {
            Read::Ask(a, b) => format!("ask {VIEW} {a} {b}\n"),
            Read::Select(b) => format!("select {VIEW} 1={b} limit {SELECT_LIMIT}\n"),
        }
    }
}

/// The read mix over base-tree nodes: nine `ask`s to one `select`; half
/// of the asks name a true ancestor pair, half a random pair.
pub struct ReadStream {
    rng: StdRng,
    k: u64,
}

impl ReadStream {
    pub fn new(seed: u64) -> ReadStream {
        ReadStream {
            rng: rng(seed, 3),
            k: 0,
        }
    }

    pub fn next(&mut self, parent: &[u32]) -> Read {
        self.k += 1;
        let n = parent.len() as u32;
        let b = self.rng.random_range(1..n);
        if self.k.is_multiple_of(10) {
            return Read::Select(b);
        }
        if self.rng.random_range(0..2u32) == 0 {
            // Walk a random number of steps up from b.
            let mut a = parent[b as usize];
            for _ in 0..self.rng.random_range(0..4u32) {
                if a == 0 {
                    break;
                }
                a = parent[a as usize];
            }
            Read::Ask(a, b)
        } else {
            Read::Ask(self.rng.random_range(0..n), b)
        }
    }
}

/// The order of the five items in one pass (a seeded shuffle).
pub struct PassOrder(StdRng);

impl PassOrder {
    pub fn new(seed: u64) -> PassOrder {
        PassOrder(rng(seed, 4))
    }

    pub fn next(&mut self) -> [usize; 5] {
        let mut order = [0, 1, 2, 3, 4];
        for i in (1..order.len()).rev() {
            order.swap(i, self.0.random_range(0..=i));
        }
        order
    }
}

/// One `eval_mix` item: a program as `linrec run` would load it.
pub struct EvalItem {
    pub name: &'static str,
    pub rules: Vec<LinearRule>,
    pub db: Database,
    pub init: Relation,
    pub sel: Option<Selection>,
}

fn rule(src: &str) -> LinearRule {
    parse_linear_rule(src).expect("static rule parses")
}

/// The five evaluation items. Names are the per-item metric suffixes
/// (`engine.execute_ms.<name>`).
pub const EVAL_ITEMS: [&str; 5] = [
    "tc_chain_1k",
    "tc_sparse_20k",
    "updown_d10",
    "updown_d16_sel",
    "shopping_400",
];

/// The items are fixed programs, the same for every seed (the seed orders
/// them within each pass): their answer sizes are 500,500, 70,831, 67,470,
/// 7 and 45,742 tuples.
pub fn eval_items() -> Vec<EvalItem> {
    let tc = || vec![rule("p(x,y) :- p(x,z), e(z,y).")];
    let updown = || {
        vec![
            rule("p(x,y) :- p(x,z), down(z,y)."),
            rule("p(x,y) :- p(w,y), up(x,w)."),
        ]
    };
    let chain = workload::chain(1000);
    let sparse = workload::random_graph(20_000, 16_000, 7);
    let (ud10_db, ud10_init) = workload::up_down(10, 5);
    let (ud16_db, ud16_init) = workload::up_down(16, 42);
    let (shop_db, shop_init) = workload::shopping(400, 200, 3, 11);
    vec![
        EvalItem {
            name: EVAL_ITEMS[0],
            rules: tc(),
            db: workload::graph_db("e", chain.clone()),
            init: chain,
            sel: None,
        },
        EvalItem {
            name: EVAL_ITEMS[1],
            rules: tc(),
            db: workload::graph_db("e", sparse.clone()),
            init: sparse,
            sel: None,
        },
        EvalItem {
            name: EVAL_ITEMS[2],
            rules: updown(),
            db: ud10_db,
            init: ud10_init,
            sel: None,
        },
        EvalItem {
            name: EVAL_ITEMS[3],
            rules: updown(),
            db: ud16_db,
            init: ud16_init,
            // σ on the second column = the root of the `down` tree.
            sel: Some(Selection::eq(1, Value::Int((1i64 << 17) + 1))),
        },
        EvalItem {
            name: EVAL_ITEMS[4],
            rules: vec![rule("buys(x,y) :- knows(x,z), buys(z,y), cheap(y).")],
            db: shop_db,
            init: shop_init,
            sel: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(tree_parents(7, 5000), tree_parents(7, 5000));
        assert_ne!(tree_parents(7, 5000), tree_parents(8, 5000));
        assert_eq!(tree_parents(7, 5000)[..1000], tree_parents(8, 5000)[..1000]);
        let (mut a, mut b) = (LeafStream::new(7, 1000), LeafStream::new(7, 1000));
        for _ in 0..5 {
            assert_eq!(a.batch(), b.batch());
        }
        let parent = tree_parents(7, 1000);
        let (mut a, mut b) = (ReadStream::new(7), ReadStream::new(7));
        for _ in 0..100 {
            assert_eq!(a.next(&parent), b.next(&parent));
        }
        let (mut a, mut b) = (PassOrder::new(7), PassOrder::new(7));
        for _ in 0..20 {
            assert_eq!(a.next(), b.next());
        }
        let (x, y) = (eval_items(), eval_items());
        for (x, y) in x.iter().zip(&y) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.init.sorted(), y.init.sorted());
            assert_eq!(x.db.num_tuples(), y.db.num_tuples());
            for (pred, rel) in x.db.iter() {
                assert_eq!(Some(rel.sorted()), y.db.relation(pred).map(|r| r.sorted()));
            }
        }
    }

    #[test]
    fn tree_parents_precede_children_and_leaves_are_fresh() {
        let parent = tree_parents(3, 500);
        assert!(parent
            .iter()
            .enumerate()
            .skip(1)
            .all(|(c, &p)| (p as usize) < c));
        assert_eq!(tree_relation(&parent).len(), 499);
        let mut leaves = LeafStream::new(3, 500);
        let first = leaves.batch();
        assert!(first.iter().all(|&(p, _)| p < 500));
        assert_eq!(first[0].1, 500);
        assert!(leaves.batch().iter().all(|&(p, l)| p < 510 && l >= 510));
    }

    #[test]
    fn read_mix_is_nine_asks_to_one_select() {
        let parent = tree_parents(5, 1000);
        let mut reads = ReadStream::new(5);
        let mix: Vec<Read> = (0..1000).map(|_| reads.next(&parent)).collect();
        let selects = mix.iter().filter(|r| matches!(r, Read::Select(_))).count();
        assert_eq!(selects, 100);
    }
}
