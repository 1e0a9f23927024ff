//! Output oracles. Every reply a workload receives is checked here, and a
//! reply that fails its check counts as failed.

use crate::gen::{LEAVES_PER_COMMIT, SELECT_LIMIT};
use linrec_datalog::{Relation, Value};

/// Ancestry of the served tree, kept as a parent array: `a` is in
/// `anc(a, b)` iff `a` is a proper ancestor of `b`. New leaves never
/// change the ancestry of existing nodes.
pub struct Ancestry {
    parent: Vec<u32>,
    depth: Vec<u32>,
}

impl Ancestry {
    pub fn new(parent: &[u32]) -> Ancestry {
        let mut depth = vec![0u32; parent.len()];
        for c in 1..parent.len() {
            depth[c] = depth[parent[c] as usize] + 1;
        }
        Ancestry {
            parent: parent.to_vec(),
            depth,
        }
    }

    /// Hang `leaf` (the next node id) under `parent`.
    pub fn push_leaf(&mut self, parent: u32, leaf: u32) {
        assert_eq!(
            leaf as usize,
            self.parent.len(),
            "leaves arrive in id order"
        );
        self.parent.push(parent);
        self.depth.push(self.depth[parent as usize] + 1);
    }

    /// Number of proper ancestors of `b` (= its `anc(·, b)` tuples).
    pub fn depth(&self, b: u32) -> u32 {
        self.depth[b as usize]
    }

    /// Tuples of the full `anc` view: every node's ancestor count.
    pub fn tuples(&self) -> usize {
        self.depth.iter().map(|&d| d as usize).sum()
    }

    pub fn is_ancestor(&self, a: u32, b: u32) -> bool {
        let (a, mut b) = (a as usize, b as usize);
        let n = self.parent.len();
        if a >= n || b >= n || self.depth[a] >= self.depth[b] {
            return false;
        }
        while self.depth[b] > self.depth[a] {
            b = self.parent[b] as usize;
        }
        b == a
    }
}

/// Check an `ask anc a b` reply.
pub fn check_ask(anc: &Ancestry, a: u32, b: u32, reply: &str) -> Result<(), String> {
    let want = format!("ok {}", anc.is_ancestor(a, b));
    if reply == want {
        Ok(())
    } else {
        Err(format!("ask {a} {b}: got {reply:?}, want {want:?}"))
    }
}

/// Check a `select anc 1=b limit 20` reply (its `row` lines and the
/// closing `ok <n> rows` line): every row is `(a, b)` for a distinct
/// proper ancestor `a`, and there are `min(depth(b), limit)` of them.
pub fn check_select(anc: &Ancestry, b: u32, lines: &[String]) -> Result<(), String> {
    let Some((last, rows)) = lines.split_last() else {
        return Err(format!("select {b}: empty reply"));
    };
    let want = (anc.depth(b) as usize).min(SELECT_LIMIT);
    if *last != format!("ok {want} rows") || rows.len() != want {
        return Err(format!(
            "select {b}: closing line {last:?} after {} rows, want {want}",
            rows.len()
        ));
    }
    let mut seen = Vec::with_capacity(rows.len());
    for row in rows {
        let mut toks = row.split(' ');
        let parsed = match (toks.next(), toks.next(), toks.next(), toks.next()) {
            (Some("row"), Some(a), Some(y), None) => {
                a.parse::<u32>().ok().zip(y.parse::<u32>().ok())
            }
            _ => None,
        };
        match parsed {
            Some((a, y)) if y == b && anc.is_ancestor(a, b) && !seen.contains(&a) => seen.push(a),
            _ => return Err(format!("select {b}: bad row {row:?}")),
        }
    }
    Ok(())
}

/// Check a `commit` reply for a batch of fresh leaves: all of them were
/// inserted and the view grew by exactly their ancestor counts.
pub fn check_commit(reply: &str, want_growth: usize) -> Result<(), String> {
    let want_inserted = format!("inserted {LEAVES_PER_COMMIT}/{LEAVES_PER_COMMIT};");
    let growth = reply
        .split_once(" +")
        .and_then(|(_, rest)| rest.split(' ').next())
        .and_then(|n| n.parse::<usize>().ok());
    if reply.starts_with("ok epoch ")
        && reply.contains(&want_inserted)
        && growth == Some(want_growth)
    {
        Ok(())
    } else {
        Err(format!("commit: got {reply:?}, want growth +{want_growth}"))
    }
}

/// Order-independent fingerprint of a set of tuples: the count and the
/// wrapping sum of a strong per-tuple hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub count: usize,
    pub sum: u64,
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn tuple_hash(t: &[Value]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for v in t {
        let x = match v {
            Value::Int(i) => *i as u64,
            Value::Sym(s) => {
                let mut h = 0xCBF2_9CE4_8422_2325u64;
                for b in s.as_str().bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
                }
                h ^ 0x5555_5555_5555_5555
            }
        };
        h = mix(h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    h
}

impl Fingerprint {
    pub fn of(rel: &Relation) -> Fingerprint {
        Fingerprint {
            count: rel.len(),
            sum: rel.iter().fold(0u64, |s, t| s.wrapping_add(tuple_hash(t))),
        }
    }

    pub fn of_pairs(pairs: impl IntoIterator<Item = (i64, i64)>) -> Fingerprint {
        let mut fp = Fingerprint { count: 0, sum: 0 };
        for (a, b) in pairs {
            fp.count += 1;
            fp.sum = fp
                .sum
                .wrapping_add(tuple_hash(&[Value::Int(a), Value::Int(b)]));
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 0 ─ 1 ─ 2 ─ 3, and 0 ─ 4.
    fn small() -> Ancestry {
        Ancestry::new(&[0, 0, 1, 2, 0])
    }

    #[test]
    fn ancestry_is_proper_and_follows_the_parent_chain() {
        let anc = small();
        assert!(anc.is_ancestor(0, 3) && anc.is_ancestor(1, 3) && anc.is_ancestor(2, 3));
        assert!(!anc.is_ancestor(3, 3) && !anc.is_ancestor(4, 3) && !anc.is_ancestor(3, 0));
        assert!(!anc.is_ancestor(1, 4) && !anc.is_ancestor(0, 99));
        assert_eq!(anc.depth(3), 3);
    }

    #[test]
    fn leaves_extend_without_changing_old_answers() {
        let mut anc = small();
        anc.push_leaf(3, 5);
        assert!(anc.is_ancestor(3, 5) && anc.is_ancestor(0, 5));
        assert!(!anc.is_ancestor(5, 3));
        assert_eq!(anc.depth(5), 4);
    }

    #[test]
    fn correct_replies_pass() {
        let anc = small();
        assert!(check_ask(&anc, 1, 3, "ok true").is_ok());
        assert!(check_ask(&anc, 4, 3, "ok false").is_ok());
        let rows: Vec<String> = ["row 2 3", "row 0 3", "row 1 3", "ok 3 rows"]
            .map(String::from)
            .to_vec();
        assert!(check_select(&anc, 3, &rows).is_ok());
        assert!(check_commit(
            "ok epoch 7 inserted 10/10; anc: incremental +42 tuples in 1.5 ms",
            42
        )
        .is_ok());
    }

    #[test]
    fn corrupted_replies_are_rejected() {
        let anc = small();
        assert!(check_ask(&anc, 1, 3, "ok false").is_err());
        assert!(check_ask(&anc, 1, 3, "err timeout").is_err());
        assert!(check_ask(&anc, 1, 3, "ok tru").is_err());
        let rows = |r: &[&str]| r.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // A wrong ancestor, a wrong second column, a duplicate, a short count,
        // a lying closing line.
        assert!(check_select(
            &anc,
            3,
            &rows(&["row 4 3", "row 0 3", "row 1 3", "ok 3 rows"])
        )
        .is_err());
        assert!(check_select(
            &anc,
            3,
            &rows(&["row 2 2", "row 0 3", "row 1 3", "ok 3 rows"])
        )
        .is_err());
        assert!(check_select(
            &anc,
            3,
            &rows(&["row 2 3", "row 2 3", "row 1 3", "ok 3 rows"])
        )
        .is_err());
        assert!(check_select(&anc, 3, &rows(&["row 2 3", "row 0 3", "ok 2 rows"])).is_err());
        assert!(check_select(&anc, 3, &rows(&["row 2 3", "row 0 3", "ok 3 rows"])).is_err());
        assert!(check_select(&anc, 3, &rows(&[])).is_err());
        assert!(check_commit(
            "ok epoch 7 inserted 10/10; anc: incremental +41 tuples in 1.5 ms",
            42
        )
        .is_err());
        assert!(check_commit(
            "ok epoch 7 inserted 9/10; anc: incremental +42 tuples in 1.5 ms",
            42
        )
        .is_err());
        assert!(check_commit("err storage wal append failed", 42).is_err());
    }

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let a = Relation::from_pairs([(1, 2), (2, 3), (3, 4)]);
        let b = Relation::from_pairs([(3, 4), (1, 2), (2, 3)]);
        let c = Relation::from_pairs([(1, 2), (2, 3), (3, 5)]);
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&c));
        assert_eq!(
            Fingerprint::of(&a),
            Fingerprint::of_pairs([(2, 3), (3, 4), (1, 2)])
        );
    }
}
