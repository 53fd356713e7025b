//! An on-device B+ tree with 4 KiB nodes.
//!
//! The paper names B+ trees first among the "familiar set of reusable core
//! storage abstractions" Hyperion should export (§4 Q2), and uses pointer
//! chasing over B+ trees as the canonical latency-sensitive offload
//! workload (§2.4): a client-driven traversal costs one network round trip
//! *per node*, while an on-DPU traversal costs one round trip total. To
//! support both sides of that experiment, lookups can return the exact
//! sequence of node addresses they visited.
//!
//! Keys and values are `u64`; nodes are immutable-on-disk (copy-on-write
//! is not modeled — inserts rewrite the affected nodes in place, which the
//! block layer times as writes).

use hyperion_sim::time::Ns;

use crate::blockstore::{BlockError, BlockStore, BLOCK};

/// Maximum keys per node: header (16 B) + n keys (8 B) + n+1 children or
/// n values -> 4096 bytes comfortably fits 200; a smaller fanout keeps
/// trees deep enough to measure pointer chasing at modest sizes.
pub const MAX_KEYS: usize = 200;

const TAG_LEAF: u32 = 1;
const TAG_INTERNAL: u32 = 2;

/// Errors from tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// Block layer failure.
    Block(BlockError),
    /// Node failed its tag check (corruption or a stale LBA).
    Corrupt {
        /// The offending LBA.
        lba: u64,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Block(e) => write!(f, "block layer: {e}"),
            TreeError::Corrupt { lba } => write!(f, "corrupt node at {lba}"),
        }
    }
}

impl std::error::Error for TreeError {}

impl From<BlockError> for TreeError {
    fn from(e: BlockError) -> TreeError {
        TreeError::Block(e)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        keys: Vec<u64>,
        values: Vec<u64>,
        next: u64, // LBA of right sibling leaf, 0 = none
    },
    Internal {
        keys: Vec<u64>,
        children: Vec<u64>, // LBAs, len = keys.len() + 1
    },
}

impl Node {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(BLOCK as usize);
        match self {
            Node::Leaf { keys, values, next } => {
                out.extend_from_slice(&TAG_LEAF.to_le_bytes());
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                out.extend_from_slice(&next.to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
                for v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            Node::Internal { keys, children } => {
                out.extend_from_slice(&TAG_INTERNAL.to_le_bytes());
                out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
                out.extend_from_slice(&0u64.to_le_bytes());
                for k in keys {
                    out.extend_from_slice(&k.to_le_bytes());
                }
                for c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        out.resize(BLOCK as usize, 0);
        out
    }

    fn decode(data: &[u8], lba: u64) -> Result<Node, TreeError> {
        let page = Page::parse(data, lba)?;
        let keys = page.keys.iter().map(word).collect();
        let rest = page.rest.iter().map(word).collect();
        Ok(if page.leaf {
            Node::Leaf {
                keys,
                values: rest,
                next: page.next,
            }
        } else {
            Node::Internal {
                keys,
                children: rest,
            }
        })
    }
}

/// One little-endian `u64` word of a node page.
fn word(w: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*w)
}

/// A node page read where it sits, without decoding: the header fields
/// and the encoded words (`n` keys, then `n` values or `n + 1` children).
/// Lookups search `keys` in place; [`Node::decode`] copies them out.
struct Page<'a> {
    leaf: bool,
    next: u64,
    keys: &'a [[u8; 8]],
    rest: &'a [[u8; 8]],
}

impl<'a> Page<'a> {
    fn parse(data: &'a [u8], lba: u64) -> Result<Page<'a>, TreeError> {
        let tag = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let n = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
        let next = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
        let (leaf, rest_len) = match tag {
            TAG_LEAF => (true, n),
            TAG_INTERNAL => (false, n + 1),
            _ => return Err(TreeError::Corrupt { lba }),
        };
        let (words, _) = data[16..].as_chunks::<8>();
        if n + rest_len > words.len() {
            return Err(TreeError::Corrupt { lba });
        }
        let (keys, rest) = words.split_at(n);
        Ok(Page {
            leaf,
            next,
            keys,
            rest: &rest[..rest_len],
        })
    }
}

/// The B+ tree handle.
#[derive(Debug)]
pub struct BTree {
    root: u64,
    height: u32,
    len: u64,
}

/// Result of a traced lookup: the value (if present), the node LBAs
/// visited root→leaf, and the completion time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedLookup {
    /// The value, if the key exists.
    pub value: Option<u64>,
    /// Node addresses visited, in order.
    pub path: Vec<u64>,
    /// Completion instant.
    pub done: Ns,
}

impl BTree {
    /// Creates an empty tree on `store` at `now`.
    pub fn create(store: &mut BlockStore, now: Ns) -> Result<(BTree, Ns), TreeError> {
        let root = store.alloc(1)?;
        let node = Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
            next: 0,
        };
        let done = store.write(root, node.encode(), now)?;
        Ok((
            BTree {
                root,
                height: 1,
                len: 0,
            },
            done,
        ))
    }

    /// Number of keys.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root node address (the entry point a remote client needs).
    pub fn root_lba(&self) -> u64 {
        self.root
    }

    fn load(store: &mut BlockStore, lba: u64, now: Ns) -> Result<(Node, Ns), TreeError> {
        let (data, done) = store.read(lba, 1, now)?;
        Ok((Node::decode(&data, lba)?, done))
    }

    /// Looks up `key`, recording the root→leaf path.
    pub fn lookup_traced(
        &self,
        store: &mut BlockStore,
        key: u64,
        now: Ns,
    ) -> Result<TracedLookup, TreeError> {
        let mut lba = self.root;
        let mut path = Vec::with_capacity(self.height as usize);
        let mut t = now;
        loop {
            path.push(lba);
            let (data, done) = store.read(lba, 1, t)?;
            t = done;
            let page = Page::parse(&data, lba)?;
            if page.leaf {
                let value = page
                    .keys
                    .binary_search_by_key(&key, word)
                    .ok()
                    .map(|i| word(&page.rest[i]));
                return Ok(TracedLookup {
                    value,
                    path,
                    done: t,
                });
            }
            lba = word(&page.rest[page.keys.partition_point(|k| word(k) <= key)]);
        }
    }

    /// Looks up `key`.
    pub fn get(
        &self,
        store: &mut BlockStore,
        key: u64,
        now: Ns,
    ) -> Result<(Option<u64>, Ns), TreeError> {
        let traced = self.lookup_traced(store, key, now)?;
        Ok((traced.value, traced.done))
    }

    /// Inserts (or overwrites) `key -> value`; returns the completion time.
    pub fn insert(
        &mut self,
        store: &mut BlockStore,
        key: u64,
        value: u64,
        now: Ns,
    ) -> Result<Ns, TreeError> {
        let (split, t) = self.insert_rec(store, self.root, key, value, now)?;
        if let Some((sep, right)) = split {
            // Grow a new root.
            let new_root = store.alloc(1)?;
            let node = Node::Internal {
                keys: vec![sep],
                children: vec![self.root, right],
            };
            let t2 = store.write(new_root, node.encode(), t)?;
            self.root = new_root;
            self.height += 1;
            return Ok(t2);
        }
        Ok(t)
    }

    /// Recursive insert; returns an optional (separator, right-LBA) split.
    fn insert_rec(
        &mut self,
        store: &mut BlockStore,
        lba: u64,
        key: u64,
        value: u64,
        now: Ns,
    ) -> Result<(Option<(u64, u64)>, Ns), TreeError> {
        let (node, t) = Self::load(store, lba, now)?;
        match node {
            Node::Leaf {
                mut keys,
                mut values,
                next,
            } => {
                match keys.binary_search(&key) {
                    Ok(i) => values[i] = value,
                    Err(i) => {
                        keys.insert(i, key);
                        values.insert(i, value);
                        self.len += 1;
                    }
                }
                if keys.len() <= MAX_KEYS {
                    let t2 = store.write(lba, Node::Leaf { keys, values, next }.encode(), t)?;
                    return Ok((None, t2));
                }
                // Split.
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_values = values.split_off(mid);
                let sep = right_keys[0];
                let right_lba = store.alloc(1)?;
                let t2 = store.write(
                    right_lba,
                    Node::Leaf {
                        keys: right_keys,
                        values: right_values,
                        next,
                    }
                    .encode(),
                    t,
                )?;
                let t3 = store.write(
                    lba,
                    Node::Leaf {
                        keys,
                        values,
                        next: right_lba,
                    }
                    .encode(),
                    t2,
                )?;
                Ok((Some((sep, right_lba)), t3))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                let idx = keys.partition_point(|&k| k <= key);
                let child = children[idx];
                let (split, t2) = self.insert_rec(store, child, key, value, t)?;
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                }
                if keys.len() <= MAX_KEYS {
                    let t3 = store.write(lba, Node::Internal { keys, children }.encode(), t2)?;
                    return Ok((None, t3));
                }
                // Split internal: middle key moves up.
                let mid = keys.len() / 2;
                let sep = keys[mid];
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // remove sep
                let right_children = children.split_off(mid + 1);
                let right_lba = store.alloc(1)?;
                let t3 = store.write(
                    right_lba,
                    Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    }
                    .encode(),
                    t2,
                )?;
                let t4 = store.write(lba, Node::Internal { keys, children }.encode(), t3)?;
                Ok((Some((sep, right_lba)), t4))
            }
        }
    }

    /// Range scan: all `(key, value)` pairs with `lo <= key < hi`, walking
    /// the leaf chain.
    pub fn range(
        &self,
        store: &mut BlockStore,
        lo: u64,
        hi: u64,
        now: Ns,
    ) -> Result<(Vec<(u64, u64)>, Ns), TreeError> {
        let traced = self.lookup_traced(store, lo, now)?;
        let mut t = traced.done;
        let mut out = Vec::new();
        let mut lba = *traced.path.last().expect("path has the leaf");
        loop {
            let (data, done) = store.read(lba, 1, t)?;
            t = done;
            let page = Page::parse(&data, lba)?;
            if !page.leaf {
                return Err(TreeError::Corrupt { lba });
            }
            for (k, v) in page.keys.iter().map(word).zip(page.rest.iter().map(word)) {
                if k >= hi {
                    return Ok((out, t));
                }
                if k >= lo {
                    out.push((k, v));
                }
            }
            if page.next == 0 {
                return Ok((out, t));
            }
            lba = page.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: u64) -> (BlockStore, BTree) {
        let mut store = BlockStore::with_capacity(1 << 20);
        let (mut tree, mut t) = BTree::create(&mut store, Ns::ZERO).unwrap();
        for i in 0..n {
            // Insert in a scrambled order to exercise splits on both ends.
            let key = (i * 2_654_435_761) % (n * 10);
            t = tree.insert(&mut store, key, key + 1, t).unwrap();
        }
        (store, tree)
    }

    #[test]
    fn insert_then_get() {
        let (mut store, tree) = build(1_000);
        let mut found = 0;
        for i in 0..1_000u64 {
            let key = (i * 2_654_435_761) % 10_000;
            let (v, _) = tree.get(&mut store, key, Ns::ZERO).unwrap();
            assert_eq!(v, Some(key + 1));
            found += 1;
        }
        assert_eq!(found, 1_000);
        let (miss, _) = tree.get(&mut store, 999_999_999, Ns::ZERO).unwrap();
        assert_eq!(miss, None);
    }

    #[test]
    fn overwrites_do_not_grow_len() {
        let mut store = BlockStore::with_capacity(1 << 16);
        let (mut tree, t) = BTree::create(&mut store, Ns::ZERO).unwrap();
        tree.insert(&mut store, 5, 1, t).unwrap();
        tree.insert(&mut store, 5, 2, t).unwrap();
        assert_eq!(tree.len(), 1);
        let (v, _) = tree.get(&mut store, 5, Ns::ZERO).unwrap();
        assert_eq!(v, Some(2));
    }

    #[test]
    fn height_grows_with_size() {
        let (_, small) = build(100);
        let (_, big) = build(8_000);
        assert_eq!(small.height(), 1);
        assert!(big.height() >= 2, "height {}", big.height());
    }

    #[test]
    fn traced_path_length_equals_height() {
        let (mut store, tree) = build(8_000);
        let traced = tree.lookup_traced(&mut store, 42, Ns::ZERO).unwrap();
        assert_eq!(traced.path.len(), tree.height() as usize);
        assert_eq!(traced.path[0], tree.root_lba());
    }

    #[test]
    fn lookup_cost_scales_with_height() {
        let (mut s1, t1) = build(100);
        let (mut s2, t2) = build(8_000);
        let (_, d1) = t1.get(&mut s1, 1, Ns::ZERO).unwrap();
        let (_, d2) = t2.get(&mut s2, 1, Ns::ZERO).unwrap();
        assert!(d2 > d1, "deeper tree must read more nodes: {d1} vs {d2}");
    }

    #[test]
    fn range_scan_is_sorted_and_complete() {
        let mut store = BlockStore::with_capacity(1 << 20);
        let (mut tree, mut t) = BTree::create(&mut store, Ns::ZERO).unwrap();
        for k in (0..2_000u64).rev() {
            t = tree.insert(&mut store, k, k * 10, t).unwrap();
        }
        let (out, _) = tree.range(&mut store, 500, 600, Ns::ZERO).unwrap();
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out[0], (500, 5_000));
        assert_eq!(out[99], (599, 5_990));
    }

    #[test]
    fn range_across_leaf_boundaries() {
        let mut store = BlockStore::with_capacity(1 << 20);
        let (mut tree, mut t) = BTree::create(&mut store, Ns::ZERO).unwrap();
        for k in 0..1_000u64 {
            t = tree.insert(&mut store, k, k, t).unwrap();
        }
        let (all, _) = tree.range(&mut store, 0, 1_000, Ns::ZERO).unwrap();
        assert_eq!(all.len(), 1_000);
    }

    #[test]
    fn in_place_lookup_matches_a_btreemap_model() {
        use hyperion_sim::rng::Rng;
        use std::collections::BTreeMap;
        for (n, height) in [(150u64, 1), (6_000, 2), (21_000, 3)] {
            let mut store = BlockStore::with_capacity(1 << 20);
            let (mut tree, mut t) = BTree::create(&mut store, Ns::ZERO).unwrap();
            let mut model = BTreeMap::new();
            // Keys 10, 13, 16, ...: every key has absent neighbours.
            let mut keys: Vec<u64> = (0..n).map(|i| 10 + 3 * i).collect();
            // Ascending inserts leave every node half full, which reaches
            // height 3 with the fewest keys; the smaller trees shuffle.
            if height < 3 {
                Rng::seeded(n).shuffle(&mut keys);
            }
            for &k in &keys {
                let v = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                t = tree.insert(&mut store, k, v, t).unwrap();
                model.insert(k, v);
            }
            assert_eq!(tree.height(), height, "{n} keys");
            let max = 10 + 3 * (n - 1);
            let below = 0..10;
            let above = [max + 1, max + 2, max + 1_000, u64::MAX];
            let around = model.keys().step_by(5).flat_map(|&k| [k, k + 1, k + 2]);
            for key in below.chain(above).chain(around) {
                let (v, _) = tree.get(&mut store, key, Ns::ZERO).unwrap();
                assert_eq!(v, model.get(&key).copied(), "{n} keys, key {key}");
            }
        }
    }

    #[test]
    fn bad_node_pages_are_corrupt_not_panics() {
        let (mut store, tree) = build(8_000);
        let leaf = *tree
            .lookup_traced(&mut store, 42, Ns::ZERO)
            .unwrap()
            .path
            .last()
            .unwrap();
        let mut page = vec![0u8; BLOCK as usize];
        page[0..4].copy_from_slice(&7u32.to_le_bytes());
        store.write(leaf, page.clone(), Ns::ZERO).unwrap();
        assert_eq!(
            tree.get(&mut store, 42, Ns::ZERO).unwrap_err(),
            TreeError::Corrupt { lba: leaf }
        );
        // A valid tag with a key count the page cannot hold.
        page[0..4].copy_from_slice(&TAG_INTERNAL.to_le_bytes());
        page[4..8].copy_from_slice(&300u32.to_le_bytes());
        store.write(tree.root_lba(), page, Ns::ZERO).unwrap();
        assert_eq!(
            tree.get(&mut store, 42, Ns::ZERO).unwrap_err(),
            TreeError::Corrupt {
                lba: tree.root_lba()
            }
        );
    }
}
