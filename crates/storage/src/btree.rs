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
//! Keys and values are `u64`. Copy-on-write is not modeled: an insert
//! rewrites every node on its root→leaf path in place, which the block
//! layer times as writes. Inserts edit node pages where they sit rather
//! than decoding them: the node that gains a key copies its page once and
//! shifts the words above the insertion point up, and an ancestor whose
//! child did not split is written back unchanged as the very buffer it was
//! read as, zero-copy. Only a split builds fresh pages.

use bytes::{Bytes, BytesMut};
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

/// Bytes before a node page's first word: tag, key count `n`, and the
/// right-sibling LBA (leaves only; 0 = none).
const HEADER: usize = 16;

/// `u64` words a node page holds after its header.
const WORDS: usize = (BLOCK as usize - HEADER) / 8;

// An overflowing internal node (MAX_KEYS + 1 keys, MAX_KEYS + 2 children)
// still fits its page, so an insert lands in the page before it splits.
const _: () = assert!(2 * MAX_KEYS + 3 <= WORDS);

/// Byte offset of word `w` of a node page.
const fn at(w: usize) -> usize {
    HEADER + 8 * w
}

/// One little-endian `u64` word of a node page.
fn word(w: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*w)
}

/// A node page read where it sits, without decoding: the header fields
/// and the encoded words (`n` keys, then `n` values or `n + 1` children).
/// Lookups and inserts search `keys` in place.
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
        // No node ever holds more than MAX_KEYS, so the words fit.
        if n > MAX_KEYS {
            return Err(TreeError::Corrupt { lba });
        }
        let (words, _) = data[HEADER..].as_chunks::<8>();
        let (keys, rest) = words.split_at(n);
        Ok(Page {
            leaf,
            next,
            keys,
            rest: &rest[..rest_len],
        })
    }
}

/// How many of the sorted, unique `keys` are at most `key`: the child an
/// internal node descends into, and one past `key`'s slot in a leaf that
/// holds it. Counts every key without branching, so the node's cache
/// lines load in parallel rather than one per binary-search step.
fn count_at_most(keys: &[[u8; 8]], key: u64) -> usize {
    keys.iter().map(|k| usize::from(word(k) <= key)).sum()
}

/// Builds a node page: the header, then `keys` and `rest` (values or
/// children) back to back, zero-padded to one block. The page is built in
/// the buffer the store keeps.
fn page(leaf: bool, next: u64, keys: &[[u8; 8]], rest: &[[u8; 8]]) -> BytesMut {
    let tag = if leaf { TAG_LEAF } else { TAG_INTERNAL };
    let mut out = BytesMut::zeroed(BLOCK as usize);
    let buf = &mut out[..];
    buf[0..4].copy_from_slice(&tag.to_le_bytes());
    buf[4..8].copy_from_slice(&(keys.len() as u32).to_le_bytes());
    buf[8..16].copy_from_slice(&next.to_le_bytes());
    let (k, r) = (keys.len(), rest.len());
    buf[at(0)..at(k)].copy_from_slice(keys.as_flattened());
    buf[at(k)..at(k + r)].copy_from_slice(rest.as_flattened());
    out
}

/// Adds `key` as key `i` of `buf`, a node page holding `n` keys, and
/// `rest` as value `i` (leaf) or child `i + 1` (internal), shifting the
/// words after each insertion point up in place; bumps `n`.
fn insert_entry(buf: &mut [u8], leaf: bool, n: usize, i: usize, key: u64, rest: u64) {
    let (j, m) = if leaf { (i, n) } else { (i + 1, n + 1) };
    // Rest words j.. move up past both new words; then keys i.. and rest
    // words ..j move up past the new key.
    buf.copy_within(at(n + j)..at(n + m), at(n + j + 2));
    buf.copy_within(at(i)..at(n + j), at(i + 1));
    buf[at(i)..at(i + 1)].copy_from_slice(&key.to_le_bytes());
    buf[at(n + 1 + j)..at(n + 2 + j)].copy_from_slice(&rest.to_le_bytes());
    buf[4..8].copy_from_slice(&(n as u32 + 1).to_le_bytes());
}

/// The B+ tree handle.
#[derive(Debug)]
pub struct BTree {
    root: u64,
    height: u32,
    len: u64,
}

impl BTree {
    /// Creates an empty tree on `store` at `now`.
    pub fn create(store: &mut BlockStore, now: Ns) -> Result<(BTree, Ns), TreeError> {
        let root = store.alloc(1)?;
        let done = store.write(root, page(true, 0, &[], &[]), now)?;
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

    /// Walks from the root to the leaf that holds or would hold `key`,
    /// reading one node per level from `now` on and passing each node's
    /// LBA to `visit`, root first. Returns the leaf's LBA and page, the
    /// value stored under `key`, and the instant the leaf's read
    /// completes.
    fn walk(
        &self,
        store: &mut BlockStore,
        key: u64,
        now: Ns,
        mut visit: impl FnMut(u64),
    ) -> Result<(u64, Bytes, Option<u64>, Ns), TreeError> {
        let mut lba = self.root;
        let mut t = now;
        loop {
            visit(lba);
            let (data, done) = store.read(lba, 1, t)?;
            t = done;
            let page = Page::parse(&data, lba)?;
            let i = count_at_most(page.keys, key);
            if page.leaf {
                // Keys are unique, so a stored `key` is the last one
                // counted.
                let value = i
                    .checked_sub(1)
                    .filter(|&j| word(&page.keys[j]) == key)
                    .map(|j| word(&page.rest[j]));
                return Ok((lba, data, value, t));
            }
            lba = word(&page.rest[i]);
        }
    }

    /// Looks up `key`.
    pub fn get(
        &self,
        store: &mut BlockStore,
        key: u64,
        now: Ns,
    ) -> Result<(Option<u64>, Ns), TreeError> {
        let (_, _, value, done) = self.walk(store, key, now, |_| {})?;
        Ok((value, done))
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
        let Some((sep, right)) = split else {
            return Ok(t);
        };
        // Grow a new root.
        let new_root = store.alloc(1)?;
        let children = [self.root.to_le_bytes(), right.to_le_bytes()];
        let t2 = store.write(new_root, page(false, 0, &[sep.to_le_bytes()], &children), t)?;
        self.root = new_root;
        self.height += 1;
        Ok(t2)
    }

    /// Recursive insert; returns an optional (separator, right-LBA) split.
    /// Every node on the path is rewritten, changed or not.
    fn insert_rec(
        &mut self,
        store: &mut BlockStore,
        lba: u64,
        key: u64,
        value: u64,
        now: Ns,
    ) -> Result<(Option<(u64, u64)>, Ns), TreeError> {
        let (data, t) = store.read(lba, 1, now)?;
        let node = Page::parse(&data, lba)?;
        let (leaf, n) = (node.leaf, node.keys.len());
        // The key to add at index `i`, with its value or right child.
        // Unlike lookups, inserts binary-search: the pages they visit are
        // hot, and counting every key measured slower on set-up.
        let (i, new_key, new_rest, t) = if leaf {
            match node.keys.binary_search_by_key(&key, word) {
                Ok(i) => {
                    let mut buf = BytesMut::from(&data[..]);
                    buf[at(n + i)..at(n + i + 1)].copy_from_slice(&value.to_le_bytes());
                    return Ok((None, store.write(lba, buf, t)?));
                }
                Err(i) => {
                    self.len += 1;
                    (i, key, value, t)
                }
            }
        } else {
            let i = node.keys.partition_point(|k| word(k) <= key);
            let (split, t) = self.insert_rec(store, word(&node.rest[i]), key, value, t)?;
            let Some((sep, right)) = split else {
                // Unchanged: rewrite the buffer it was read as, no copy.
                return Ok((None, store.write(lba, data, t)?));
            };
            (i, sep, right, t)
        };
        // The edited page, copied once into the buffer the store keeps.
        let mut buf = BytesMut::from(&data[..]);
        insert_entry(&mut buf, leaf, n, i, new_key, new_rest);
        if n < MAX_KEYS {
            return Ok((None, store.write(lba, buf, t)?));
        }
        // Split the overflowing page in two. A leaf's right half starts
        // with the separator; an internal node moves its middle key up.
        let (words, _) = buf[HEADER..].as_chunks::<8>();
        let (keys, rest) = words.split_at(n + 1);
        let mid = keys.len() / 2;
        let right_lba = store.alloc(1)?;
        let (left, right) = if leaf {
            (
                page(true, right_lba, &keys[..mid], &rest[..mid]),
                page(true, node.next, &keys[mid..], &rest[mid..keys.len()]),
            )
        } else {
            (
                page(false, 0, &keys[..mid], &rest[..=mid]),
                page(false, 0, &keys[mid + 1..], &rest[mid + 1..=keys.len()]),
            )
        };
        let t2 = store.write(right_lba, right, t)?;
        let t3 = store.write(lba, left, t2)?;
        Ok((Some((word(&keys[mid]), right_lba)), t3))
    }

    /// Range scan: all `(key, value)` pairs with `lo <= key < hi`, walking
    /// the leaf chain from the leaf the walk to `lo` read.
    pub fn range(
        &self,
        store: &mut BlockStore,
        lo: u64,
        hi: u64,
        now: Ns,
    ) -> Result<(Vec<(u64, u64)>, Ns), TreeError> {
        let (mut lba, mut data, _, mut t) = self.walk(store, lo, now, |_| {})?;
        let mut out = Vec::new();
        loop {
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
            (data, t) = store.read(lba, 1, t)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperion_sim::rng::Rng;

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

    /// A lookup of `key`: its value, the node LBAs it read root first,
    /// and its completion instant.
    #[derive(Debug, PartialEq, Eq)]
    struct Lookup {
        value: Option<u64>,
        path: Vec<u64>,
        done: Ns,
    }

    /// `key`'s lookup through [`BTree::walk`], recording the path.
    fn walk_path(tree: &BTree, store: &mut BlockStore, key: u64, now: Ns) -> Lookup {
        let mut path = Vec::new();
        let (_, _, value, done) = tree.walk(store, key, now, |lba| path.push(lba)).unwrap();
        Lookup { value, path, done }
    }

    #[test]
    fn traced_path_length_equals_height() {
        let (mut store, tree) = build(8_000);
        let traced = walk_path(&tree, &mut store, 42, Ns::ZERO);
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

    /// A range that ends inside its first leaf reads one node per level,
    /// like a point lookup, and completes when `get` on its low key does.
    #[test]
    fn range_within_one_leaf_reads_each_level_once() {
        for n in [100, 8_000] {
            let (mut scanned, tree) = build(n);
            let (mut looked_up, _) = build(n);
            let before = scanned.reads();
            // Key 0 is the first key of the leftmost leaf, which holds more.
            let (out, done) = tree.range(&mut scanned, 0, 1, Ns::ZERO).unwrap();
            assert_eq!(out, [(0, 1)]);
            assert_eq!(scanned.reads() - before, u64::from(tree.height()));
            let (v, get_done) = tree.get(&mut looked_up, 0, Ns::ZERO).unwrap();
            assert_eq!(v, Some(1));
            assert_eq!(done, get_done);
        }
    }

    /// The lookup walk this module had before lookups counted keys:
    /// binary search in a leaf, `partition_point` in an internal node.
    fn binary_search_lookup(tree: &BTree, store: &mut BlockStore, key: u64, now: Ns) -> Lookup {
        let (mut lba, mut t, mut path) = (tree.root, now, Vec::new());
        loop {
            path.push(lba);
            let (data, done) = store.read(lba, 1, t).unwrap();
            t = done;
            let page = Page::parse(&data, lba).unwrap();
            if page.leaf {
                let value = page
                    .keys
                    .binary_search_by_key(&key, word)
                    .ok()
                    .map(|i| word(&page.rest[i]));
                return Lookup {
                    value,
                    path,
                    done: t,
                };
            }
            lba = word(&page.rest[page.keys.partition_point(|k| word(k) <= key)]);
        }
    }

    /// `get` and the path-recording walk against the binary-search walk, on two
    /// stores holding the same tree: each lookup goes to both stores at
    /// the same instant, so their devices stay in step and the completion
    /// instants must match exactly. Values must also match a `BTreeMap`.
    #[test]
    fn lookups_agree_with_a_binary_search_walk() {
        use std::collections::BTreeMap;
        // Ascending inserts leave nodes half full, so fewer keys reach
        // height 3 than scrambled ones do.
        let cases = [(150, 1), (6_000, 2), (21_000, 3)]
            .map(|(n, height)| (n, false, height))
            .into_iter()
            .chain([(150, true, 1), (6_000, true, 2), (30_000, true, 3)]);
        for (n, scrambled, height) in cases {
            let mut keys = spaced_keys(n);
            if scrambled {
                Rng::seeded(n).shuffle(&mut keys);
            }
            let mut stores = [1u64 << 20; 2].map(BlockStore::with_capacity);
            let [tree, oracle] = stores.each_mut().map(|store| {
                let (mut tree, mut t) = BTree::create(store, Ns::ZERO).unwrap();
                for &k in &keys {
                    t = tree.insert(store, k, k ^ 0xA5A5, t).unwrap();
                }
                tree
            });
            let model: BTreeMap<u64, u64> = keys.iter().map(|&k| (k, k ^ 0xA5A5)).collect();
            let ctx = format!("{n} keys, scrambled {scrambled}");
            assert_eq!(tree.height(), height, "{ctx}");
            let [a, b] = &mut stores;
            let mut t = Ns::ZERO;
            let max = 10 + 3 * (n - 1);
            let absent = (0..10).chain([max + 1, max + 2, max + 1_000, u64::MAX]);
            let around = spaced_keys(n).into_iter().flat_map(|k| [k, k + 1]);
            for key in absent.chain(around) {
                let want = binary_search_lookup(&oracle, b, key, t);
                assert_eq!(want.value, model.get(&key).copied(), "{ctx}, key {key}");
                let (value, done) = tree.get(a, key, t).unwrap();
                assert_eq!((value, done), (want.value, want.done), "{ctx}, key {key}");
                t = done;
                let want = binary_search_lookup(&oracle, b, key, t);
                assert_eq!(walk_path(&tree, a, key, t), want, "{ctx}, key {key}");
                assert_eq!(want.path.len(), height as usize, "{ctx}");
                t = want.done;
            }
        }
    }

    /// The insert path this module had before inserts edited pages in
    /// place: each node on the path is decoded into vectors, edited there,
    /// and re-encoded whole. The in-place path must match it page for
    /// page, instant for instant.
    #[derive(Debug, Clone)]
    enum Node {
        Leaf {
            keys: Vec<u64>,
            values: Vec<u64>,
            next: u64,
        },
        Internal {
            keys: Vec<u64>,
            children: Vec<u64>,
        },
    }

    impl Node {
        fn encode(&self) -> Vec<u8> {
            let (tag, keys, rest, next) = match self {
                Node::Leaf { keys, values, next } => (TAG_LEAF, keys, values, *next),
                Node::Internal { keys, children } => (TAG_INTERNAL, keys, children, 0),
            };
            let mut out = Vec::with_capacity(BLOCK as usize);
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
            out.extend_from_slice(&next.to_le_bytes());
            for w in keys.iter().chain(rest) {
                out.extend_from_slice(&w.to_le_bytes());
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

    impl BTree {
        fn oracle_create(store: &mut BlockStore, now: Ns) -> (BTree, Ns) {
            let root = store.alloc(1).unwrap();
            let node = Node::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
                next: 0,
            };
            let done = store.write(root, node.encode(), now).unwrap();
            let tree = BTree {
                root,
                height: 1,
                len: 0,
            };
            (tree, done)
        }

        fn oracle_insert(
            &mut self,
            store: &mut BlockStore,
            key: u64,
            value: u64,
            now: Ns,
        ) -> Result<Ns, TreeError> {
            let (split, t) = self.oracle_insert_rec(store, self.root, key, value, now)?;
            if let Some((sep, right)) = split {
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

        fn oracle_insert_rec(
            &mut self,
            store: &mut BlockStore,
            lba: u64,
            key: u64,
            value: u64,
            now: Ns,
        ) -> Result<(Option<(u64, u64)>, Ns), TreeError> {
            let (data, t) = store.read(lba, 1, now)?;
            match Node::decode(&data, lba)? {
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
                        let node = Node::Leaf { keys, values, next };
                        return Ok((None, store.write(lba, node.encode(), t)?));
                    }
                    let mid = keys.len() / 2;
                    let right_keys = keys.split_off(mid);
                    let right_values = values.split_off(mid);
                    let sep = right_keys[0];
                    let right_lba = store.alloc(1)?;
                    let right = Node::Leaf {
                        keys: right_keys,
                        values: right_values,
                        next,
                    };
                    let t2 = store.write(right_lba, right.encode(), t)?;
                    let left = Node::Leaf {
                        keys,
                        values,
                        next: right_lba,
                    };
                    let t3 = store.write(lba, left.encode(), t2)?;
                    Ok((Some((sep, right_lba)), t3))
                }
                Node::Internal {
                    mut keys,
                    mut children,
                } => {
                    let idx = keys.partition_point(|&k| k <= key);
                    let (split, t2) =
                        self.oracle_insert_rec(store, children[idx], key, value, t)?;
                    if let Some((sep, right)) = split {
                        keys.insert(idx, sep);
                        children.insert(idx + 1, right);
                    }
                    if keys.len() <= MAX_KEYS {
                        let node = Node::Internal { keys, children };
                        return Ok((None, store.write(lba, node.encode(), t2)?));
                    }
                    let mid = keys.len() / 2;
                    let sep = keys[mid];
                    let right_keys = keys.split_off(mid + 1);
                    keys.pop();
                    let right_children = children.split_off(mid + 1);
                    let right_lba = store.alloc(1)?;
                    let right = Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    };
                    let t3 = store.write(right_lba, right.encode(), t2)?;
                    let left = Node::Internal { keys, children };
                    let t4 = store.write(lba, left.encode(), t3)?;
                    Ok((Some((sep, right_lba)), t4))
                }
            }
        }
    }

    /// Reads `lbas` from both stores at `now` and asserts equal bytes and
    /// completion instants.
    fn assert_pages_match(stores: &mut [BlockStore; 2], lbas: impl Iterator<Item = u64>, now: Ns) {
        for lba in lbas {
            let [a, b] = stores.each_mut().map(|s| s.read(lba, 1, now).unwrap());
            assert!(a == b, "page {lba} differs from the oracle's");
        }
    }

    /// Inserts `keys` (with step-dependent values, so repeats overwrite)
    /// through the in-place path and the oracle on two stores, checking
    /// after every insert that both did the same I/O at the same instants
    /// and wrote the same pages; returns the final height. The checks'
    /// own reads go to both stores alike, so the devices stay in step.
    fn assert_inserts_match_oracle(keys: &[u64]) -> u32 {
        let mut stores = [1u64 << 20; 2].map(BlockStore::with_capacity);
        let (mut tree, t) = BTree::create(&mut stores[0], Ns::ZERO).unwrap();
        let (mut oracle, oracle_t) = BTree::oracle_create(&mut stores[1], Ns::ZERO);
        assert_eq!(t, oracle_t);
        let mut t = t;
        for (step, &key) in keys.iter().enumerate() {
            let value = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step as u64;
            // The insert's path is the one a lookup walks beforehand.
            let path = walk_path(&tree, &mut stores[0], key, t);
            assert_eq!(path, walk_path(&oracle, &mut stores[1], key, t));
            let first_new = stores[0].cursor();
            let done = tree.insert(&mut stores[0], key, value, t).unwrap();
            let oracle_done = oracle.oracle_insert(&mut stores[1], key, value, t).unwrap();
            let ctx = format!("step {step}, key {key}");
            assert_eq!(done, oracle_done, "{ctx}");
            let shape = |tree: &BTree| (tree.len(), tree.height(), tree.root_lba());
            assert_eq!(shape(&tree), shape(&oracle), "{ctx}");
            let io = |s: &BlockStore| (s.reads(), s.writes(), s.cursor());
            assert_eq!(io(&stores[0]), io(&stores[1]), "{ctx}");
            // Every page the insert wrote: its path, new siblings, new root.
            let written = path.path.into_iter().chain(first_new..stores[0].cursor());
            assert_pages_match(&mut stores, written, done);
            t = done;
        }
        let allocated = 0..stores[0].cursor();
        assert_pages_match(&mut stores, allocated, t);
        tree.height()
    }

    /// Keys 10, 13, 16, ... (`n` of them): every key has absent neighbours.
    fn spaced_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| 10 + 3 * i).collect()
    }

    /// Sorted inserts leave nodes half full, so 21k keys reach height 3.
    #[test]
    fn in_place_inserts_match_the_oracle_ascending() {
        for (n, height) in [(150, 1), (6_000, 2), (21_000, 3)] {
            assert_eq!(assert_inserts_match_oracle(&spaced_keys(n)), height);
        }
    }

    #[test]
    fn in_place_inserts_match_the_oracle_descending() {
        for (n, height) in [(150, 1), (6_000, 2), (21_000, 3)] {
            let mut keys = spaced_keys(n);
            keys.reverse();
            assert_eq!(assert_inserts_match_oracle(&keys), height);
        }
    }

    #[test]
    fn in_place_inserts_match_the_oracle_shuffled() {
        for (n, height) in [(150, 1), (6_000, 2)] {
            let mut keys = spaced_keys(n);
            Rng::seeded(n).shuffle(&mut keys);
            assert_eq!(assert_inserts_match_oracle(&keys), height);
        }
    }

    /// About one insert in four overwrites an earlier key.
    #[test]
    fn in_place_inserts_match_the_oracle_with_overwrites() {
        for (n, height) in [(150, 1), (6_000, 2)] {
            let mut fresh = spaced_keys(n);
            Rng::seeded(n).shuffle(&mut fresh);
            let mut rng = Rng::seeded(n + 1);
            let mut keys: Vec<u64> = Vec::new();
            for &key in &fresh {
                while !keys.is_empty() && rng.chance(0.25) {
                    keys.push(keys[rng.range(0, keys.len() as u64) as usize]);
                }
                keys.push(key);
            }
            assert_eq!(assert_inserts_match_oracle(&keys), height);
        }
    }

    #[test]
    fn bad_node_pages_are_corrupt_not_panics() {
        let (mut store, tree) = build(8_000);
        let leaf = *walk_path(&tree, &mut store, 42, Ns::ZERO)
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
