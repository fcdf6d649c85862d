//! The R*-tree proper: arena storage, insertion with forced reinsert,
//! deletion with tree condensation.

use crate::node::{AnyEntry, Branch, LeafEntry, Node, PageId};
use crate::split::rstar_split;
use crate::RTreeParams;
use gnn_geom::{Point, PointId, Rect};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of unique tree identity tokens (see [`RTree::refreeze`]): a
/// snapshot is only incrementally reusable against the exact tree instance
/// it was frozen from, because per-page versions are meaningful only within
/// one instance's mutation history.
static NEXT_TREE_ID: AtomicU64 = AtomicU64::new(1);

fn next_tree_id() -> u64 {
    NEXT_TREE_ID.fetch_add(1, Ordering::Relaxed)
}

/// A paged R*-tree over 2-D points \[BKSS90\].
///
/// The builder: nodes live in an in-memory page arena that insertion and
/// deletion mutate. Queries read its [`RTree::freeze`] snapshot, through a
/// [`crate::TreeCursor`] that simulates the disk by counting page reads
/// (optionally through an LRU buffer pool), which is how the paper's *node
/// access* (NA) metric is produced.
///
/// The tree supports one-by-one insertion (R\* `ChooseSubtree`, forced
/// reinsertion and topological split), deletion with condensation, and STR
/// bulk loading ([`RTree::bulk_load`]).
#[derive(Debug)]
pub struct RTree {
    params: RTreeParams,
    /// Page arena. `None` marks slots recycled through `free`.
    nodes: Vec<Option<Node>>,
    free: Vec<PageId>,
    root: PageId,
    /// Number of levels; 1 means the root is a leaf. Leaves are level 0.
    height: usize,
    len: usize,
    /// Mutation clock: bumped once per mutating operation. Snapshots record
    /// the clock at freeze time, which is what lets [`RTree::refreeze`] tell
    /// clean pages from dirty ones without a stop-the-world scan.
    version: u64,
    /// `page_version[i]` = value of `version` when arena slot `i` last
    /// changed content (allocation, mutation, or deallocation). Parallel to
    /// `nodes`.
    page_version: Vec<u64>,
    /// Identity token tying snapshots to this tree instance (see
    /// [`NEXT_TREE_ID`]).
    tree_id: u64,
}

impl Clone for RTree {
    /// Cloning copies the whole structure but assigns a **fresh identity
    /// token**: snapshots frozen from the original are not incrementally
    /// reusable by the clone (its [`RTree::refreeze`] falls back to a full
    /// freeze), because after the clone the two trees mutate independently
    /// and each tracks only its own history.
    fn clone(&self) -> Self {
        RTree {
            params: self.params,
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            root: self.root,
            height: self.height,
            len: self.len,
            version: self.version,
            page_version: self.page_version.clone(),
            tree_id: next_tree_id(),
        }
    }
}

/// What an insertion step reports to its caller level.
enum InsertOutcome {
    /// Entry placed; ancestors only need MBR refreshes.
    Done,
    /// The child split; the caller must add this branch (and may overflow).
    Split(Branch),
    /// Forced reinsertion was triggered at `level`; the listed entries must
    /// be re-inserted from the top once the recursion unwinds.
    Reinsert(usize, Vec<AnyEntry>),
}

impl RTree {
    /// Creates an empty tree.
    pub fn new(params: RTreeParams) -> Self {
        RTree {
            params,
            nodes: vec![Some(Node::Leaf(Vec::new()))],
            free: Vec::new(),
            root: PageId(0),
            height: 1,
            len: 0,
            version: 0,
            page_version: vec![0],
            tree_id: next_tree_id(),
        }
    }

    /// Assembles a tree from pre-built pages (used by the bulk loaders).
    pub(crate) fn from_raw(
        params: RTreeParams,
        nodes: Vec<Option<Node>>,
        root: PageId,
        height: usize,
        len: usize,
    ) -> Self {
        let page_version = vec![0; nodes.len()];
        RTree {
            params,
            nodes,
            free: Vec::new(),
            root,
            height,
            len,
            version: 0,
            page_version,
            tree_id: next_tree_id(),
        }
    }

    /// The tree parameters.
    #[inline]
    pub fn params(&self) -> &RTreeParams {
        &self.params
    }

    /// Number of data points stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree stores no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 = the root is a leaf).
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Root page id.
    #[inline]
    pub fn root(&self) -> PageId {
        self.root
    }

    /// MBR of the whole dataset ([`Rect::empty`] when empty).
    pub fn root_mbr(&self) -> Rect {
        self.node(self.root).mbr()
    }

    /// Number of live pages (the tree size in nodes, hence in simulated
    /// disk pages).
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_some()).count()
    }

    /// Borrow a page.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a freed page.
    #[inline]
    pub(crate) fn node(&self, id: PageId) -> &Node {
        self.nodes[id.index()].as_ref().expect("dangling page id")
    }

    /// Marks an arena slot as changed at the current mutation clock.
    #[inline]
    fn touch(&mut self, id: PageId) {
        self.page_version[id.index()] = self.version;
    }

    #[inline]
    fn node_mut(&mut self, id: PageId) -> &mut Node {
        // Every mutation goes through here (or through alloc/dealloc/
        // split_node, which touch explicitly), so the dirty tracking cannot
        // miss a page. Conservative: a refreshed-but-identical MBR still
        // dirties the page.
        self.page_version[id.index()] = self.version;
        self.nodes[id.index()].as_mut().expect("dangling page id")
    }

    fn alloc(&mut self, node: Node) -> PageId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.index()] = Some(node);
            self.touch(id);
            id
        } else {
            let id = PageId(u32::try_from(self.nodes.len()).expect("page arena overflow"));
            self.nodes.push(Some(node));
            self.page_version.push(self.version);
            id
        }
    }

    fn dealloc(&mut self, id: PageId) {
        self.nodes[id.index()] = None;
        self.touch(id);
        self.free.push(id);
    }

    /// Inserts a data point (R\* insertion with forced reinsertion).
    ///
    /// # Panics
    ///
    /// Panics if the point is not finite: a NaN or infinite coordinate has
    /// no place in an MBR and no distance order.
    pub fn insert(&mut self, entry: LeafEntry) {
        assert!(
            entry.point.is_finite(),
            "non-finite point inserted: {:?}",
            entry.point
        );
        self.version += 1;
        let mut reinserted = vec![false; self.height];
        self.insert_any(AnyEntry::Leaf(entry), 0, &mut reinserted);
        self.len += 1;
    }

    /// Inserts an entry whose destination node sits at `target_level`
    /// (0 = leaf). Branches carry subtrees during reinsertion/condensation.
    fn insert_any(&mut self, entry: AnyEntry, target_level: usize, reinserted: &mut Vec<bool>) {
        let root = self.root;
        let root_level = self.height - 1;
        debug_assert!(target_level <= root_level);
        match self.insert_rec(root, root_level, entry, target_level, reinserted) {
            InsertOutcome::Done => {}
            InsertOutcome::Split(new_sibling) => {
                let old_root = Branch {
                    mbr: self.node(self.root).mbr(),
                    child: self.root,
                };
                let new_root = self.alloc(Node::Internal(vec![old_root, new_sibling]));
                self.root = new_root;
                self.height += 1;
                reinserted.push(false);
            }
            InsertOutcome::Reinsert(level, entries) => {
                for e in entries {
                    self.insert_any(e, level, reinserted);
                }
            }
        }
    }

    fn insert_rec(
        &mut self,
        node_id: PageId,
        level: usize,
        entry: AnyEntry,
        target_level: usize,
        reinserted: &mut Vec<bool>,
    ) -> InsertOutcome {
        if level == target_level {
            match (self.node_mut(node_id), entry) {
                (Node::Leaf(es), AnyEntry::Leaf(e)) => es.push(e),
                (Node::Internal(bs), AnyEntry::Branch(b)) => bs.push(b),
                _ => unreachable!("entry kind does not match node kind at level {level}"),
            }
            if self.node(node_id).len() > self.params.max_entries {
                self.overflow_treatment(node_id, level, reinserted)
            } else {
                InsertOutcome::Done
            }
        } else {
            let child_idx = self.choose_subtree(node_id, entry.mbr(), level);
            let child_id = self.node(node_id).branches()[child_idx].child;
            let outcome = self.insert_rec(child_id, level - 1, entry, target_level, reinserted);
            // The child's extent may have changed in every case: refresh.
            let child_mbr = self.node(child_id).mbr();
            match self.node_mut(node_id) {
                Node::Internal(bs) => bs[child_idx].mbr = child_mbr,
                Node::Leaf(_) => unreachable!(),
            }
            match outcome {
                InsertOutcome::Done => InsertOutcome::Done,
                InsertOutcome::Reinsert(l, es) => InsertOutcome::Reinsert(l, es),
                InsertOutcome::Split(new_branch) => {
                    match self.node_mut(node_id) {
                        Node::Internal(bs) => bs.push(new_branch),
                        Node::Leaf(_) => unreachable!(),
                    }
                    if self.node(node_id).len() > self.params.max_entries {
                        self.overflow_treatment(node_id, level, reinserted)
                    } else {
                        InsertOutcome::Done
                    }
                }
            }
        }
    }

    /// R\* `ChooseSubtree`: least overlap enlargement when the children
    /// are leaves, least area enlargement otherwise.
    fn choose_subtree(&self, node_id: PageId, mbr: Rect, level: usize) -> usize {
        let branches = self.node(node_id).branches();
        debug_assert!(!branches.is_empty());
        let children_are_leaves = level == 1;
        if children_are_leaves {
            // Minimise overlap enlargement; resolve ties by area enlargement,
            // then by area.
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for (i, b) in branches.iter().enumerate() {
                let enlarged = b.mbr.union(&mbr);
                let mut overlap_before = 0.0;
                let mut overlap_after = 0.0;
                for (j, other) in branches.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    overlap_before += b.mbr.overlap_area(&other.mbr);
                    overlap_after += enlarged.overlap_area(&other.mbr);
                }
                let key = (
                    overlap_after - overlap_before,
                    enlarged.area() - b.mbr.area(),
                    b.mbr.area(),
                );
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        } else {
            let mut best = 0usize;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, b) in branches.iter().enumerate() {
                let key = (b.mbr.enlargement(&mbr), b.mbr.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    /// R\* overflow treatment: forced reinsertion on the first overflow of a
    /// level (never at the root), split otherwise.
    fn overflow_treatment(
        &mut self,
        node_id: PageId,
        level: usize,
        reinserted: &mut [bool],
    ) -> InsertOutcome {
        let root_level = self.height - 1;
        if level < root_level && !reinserted[level] && self.params.reinsert_count > 0 {
            reinserted[level] = true;
            let victims = self.extract_reinsert_victims(node_id);
            InsertOutcome::Reinsert(level, victims)
        } else {
            InsertOutcome::Split(self.split_node(node_id))
        }
    }

    /// Removes the `reinsert_count` entries whose centers lie farthest from
    /// the node's MBR center, returning them sorted by ascending distance
    /// (the R\* "close reinsert" order).
    fn extract_reinsert_victims(&mut self, node_id: PageId) -> Vec<AnyEntry> {
        let p = self.params.reinsert_count;
        let center = self.node(node_id).mbr().center();
        let sort_key = |r: &Rect| {
            let c = r.center();
            c.dist_sq(center)
        };
        match self.node_mut(node_id) {
            Node::Leaf(es) => {
                es.sort_by(|a, b| {
                    sort_key(&Rect::from_point(a.point))
                        .total_cmp(&sort_key(&Rect::from_point(b.point)))
                });
                es.split_off(es.len() - p)
                    .into_iter()
                    .map(AnyEntry::Leaf)
                    .collect()
            }
            Node::Internal(bs) => {
                bs.sort_by(|a, b| sort_key(&a.mbr).total_cmp(&sort_key(&b.mbr)));
                bs.split_off(bs.len() - p)
                    .into_iter()
                    .map(AnyEntry::Branch)
                    .collect()
            }
        }
    }

    /// Splits an overflowing node in place, returning the branch for its new
    /// sibling (to be added to the parent or a fresh root).
    fn split_node(&mut self, node_id: PageId) -> Branch {
        self.touch(node_id);
        let node = self.nodes[node_id.index()]
            .take()
            .expect("dangling page id");
        match node {
            Node::Leaf(es) => {
                let (left, right) = rstar_split(&self.params, es);
                self.nodes[node_id.index()] = Some(Node::Leaf(left));
                let right_node = Node::Leaf(right);
                let mbr = right_node.mbr();
                let child = self.alloc(right_node);
                Branch { mbr, child }
            }
            Node::Internal(bs) => {
                let (left, right) = rstar_split(&self.params, bs);
                self.nodes[node_id.index()] = Some(Node::Internal(left));
                let right_node = Node::Internal(right);
                let mbr = right_node.mbr();
                let child = self.alloc(right_node);
                Branch { mbr, child }
            }
        }
    }

    /// Removes the point `(id, point)`; `point` must equal the coordinates
    /// the entry was inserted with. Returns whether an entry was removed.
    ///
    /// Underfull nodes are condensed: their surviving entries re-enter the
    /// tree at their original level (Guttman's `CondenseTree`), and a root
    /// with a single child is collapsed.
    pub fn remove(&mut self, id: PointId, point: Point) -> bool {
        let mut path: Vec<(PageId, usize)> = Vec::new();
        let Some(leaf_id) = self.find_leaf(self.root, id, point, &mut path) else {
            return false;
        };
        self.version += 1;
        match self.node_mut(leaf_id) {
            Node::Leaf(es) => {
                let pos = es
                    .iter()
                    .position(|e| e.id == id)
                    .expect("find_leaf returned a leaf without the entry");
                es.swap_remove(pos);
            }
            Node::Internal(_) => unreachable!(),
        }
        self.len -= 1;
        self.condense(leaf_id, path);
        true
    }

    /// Locates the leaf holding `(id, point)`, recording the descent path as
    /// `(parent_page, child_index)` pairs.
    fn find_leaf(
        &self,
        node_id: PageId,
        id: PointId,
        point: Point,
        path: &mut Vec<(PageId, usize)>,
    ) -> Option<PageId> {
        match self.node(node_id) {
            Node::Leaf(es) => es.iter().any(|e| e.id == id).then_some(node_id),
            Node::Internal(bs) => {
                for (i, b) in bs.iter().enumerate() {
                    if b.mbr.contains_point(point) {
                        path.push((node_id, i));
                        if let Some(found) = self.find_leaf(b.child, id, point, path) {
                            return Some(found);
                        }
                        path.pop();
                    }
                }
                None
            }
        }
    }

    /// Guttman `CondenseTree`: walk the deletion path bottom-up, dissolving
    /// underfull nodes and collecting their entries for reinsertion.
    fn condense(&mut self, leaf_id: PageId, mut path: Vec<(PageId, usize)>) {
        // (entries, level) pairs awaiting reinsertion.
        let mut orphans: Vec<(AnyEntry, usize)> = Vec::new();
        let mut current = leaf_id;
        let mut level = 0usize;
        while let Some((parent, child_idx)) = path.pop() {
            if self.node(current).len() < self.params.min_entries {
                // Dissolve `current`: unhook from parent, orphan its entries.
                match self.nodes[current.index()].take().expect("dangling page") {
                    Node::Leaf(es) => {
                        orphans.extend(es.into_iter().map(|e| (AnyEntry::Leaf(e), 0)));
                    }
                    Node::Internal(bs) => {
                        orphans.extend(bs.into_iter().map(|b| (AnyEntry::Branch(b), level)));
                    }
                }
                self.dealloc(current);
                match self.node_mut(parent) {
                    Node::Internal(bs) => {
                        bs.swap_remove(child_idx);
                    }
                    Node::Leaf(_) => unreachable!(),
                }
            } else {
                // Keep the node; refresh its MBR in the parent.
                let mbr = self.node(current).mbr();
                match self.node_mut(parent) {
                    Node::Internal(bs) => bs[child_idx].mbr = mbr,
                    Node::Leaf(_) => unreachable!(),
                }
            }
            current = parent;
            level += 1;
        }
        // Reinsert orphans. Branch orphans recorded at level L (the level of
        // the node that contained them) point at children of level L-1 and
        // must land back in a node of level L.
        for (entry, entry_level) in orphans {
            let mut reinserted = vec![false; self.height];
            self.insert_any(entry, entry_level, &mut reinserted);
        }
        // Collapse a root chain: an internal root with one child loses a
        // level; an internal root with zero children becomes an empty leaf.
        loop {
            match self.node(self.root) {
                Node::Internal(bs) if bs.len() == 1 => {
                    let child = bs[0].child;
                    self.dealloc(self.root);
                    self.root = child;
                    self.height -= 1;
                }
                Node::Internal(bs) if bs.is_empty() => {
                    *self.node_mut(self.root) = Node::Leaf(Vec::new());
                    self.height = 1;
                    break;
                }
                _ => break,
            }
        }
    }

    /// Size of the page arena including freed slots (an upper bound on
    /// every live page id; used by the packing pass).
    #[inline]
    pub(crate) fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Current value of the mutation clock (recorded by snapshots).
    #[inline]
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// This tree instance's identity token (recorded by snapshots).
    #[inline]
    pub(crate) fn tree_id(&self) -> u64 {
        self.tree_id
    }

    /// Mutation-clock value at which arena slot `id` last changed.
    #[inline]
    pub(crate) fn page_version(&self, id: PageId) -> u64 {
        self.page_version[id.index()]
    }

    /// Number of live pages that changed since `prev` was frozen — the
    /// pages [`RTree::refreeze`] will repack from the arena instead of
    /// copying from `prev`. Returns [`RTree::node_count`] (everything
    /// dirty) when `prev` was not frozen from this tree instance.
    pub fn dirty_page_count(&self, prev: &crate::PackedRTree) -> usize {
        if !prev.is_snapshot_of(self) {
            return self.node_count();
        }
        let since = prev.version();
        self.nodes
            .iter()
            .zip(&self.page_version)
            .filter(|(n, &v)| n.is_some() && v > since)
            .count()
    }

    /// Packs the tree into a read-optimized [`crate::PackedRTree`] snapshot:
    /// contiguous arenas, SoA rectangle coordinates, dense BFS page ids.
    ///
    /// The snapshot preserves the page structure exactly; a node scan walks
    /// contiguous memory instead of chasing `Option<Node>` pointers. Queries
    /// read only snapshots: freeze once after loading (or after a batch of
    /// updates) and open the query cursors on the snapshot.
    pub fn freeze(&self) -> crate::PackedRTree {
        crate::PackedRTree::freeze(self)
    }

    /// Incrementally repacks the tree into a fresh snapshot, reusing the
    /// arenas of `prev` — the snapshot a previous [`RTree::freeze`] (or
    /// `refreeze`) of **this tree instance** produced — for every page that
    /// has not changed since `prev` was taken.
    ///
    /// The result is **identical** to what a full [`RTree::freeze`] would
    /// build right now (same pages, same dense BFS ids, same SoA layout,
    /// bit-identical coordinates — the property suite pins snapshot
    /// equality and per-algorithm node accesses); only the build cost
    /// differs. Clean leaf pages are copied span-wise out of `prev`
    /// (three `memcpy`s, no arena pointer chase), clean internal pages
    /// copy their coordinate rows and only remap child ids, and dirty
    /// subtrees are repacked from the arena exactly as `freeze` does.
    ///
    /// Falls back to a full freeze (still returning a correct snapshot)
    /// when `prev` came from a different tree instance — e.g. a
    /// [`Clone`] of this tree — or from different parameters.
    pub fn refreeze(&self, prev: &crate::PackedRTree) -> crate::PackedRTree {
        crate::PackedRTree::refreeze(self, prev)
    }

    /// Iterates over every stored point (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = LeafEntry> + '_ {
        let mut stack = vec![self.root];
        std::iter::from_fn(move || loop {
            let id = stack.pop()?;
            match self.node(id) {
                Node::Leaf(es) => {
                    if !es.is_empty() {
                        // Emit this leaf's entries by pushing a sentinel-free
                        // approach: collect into the closure state.
                        return Some(es.clone());
                    }
                }
                Node::Internal(bs) => stack.extend(bs.iter().map(|b| b.child)),
            }
        })
        .flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::check_invariants;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_params() -> RTreeParams {
        RTreeParams::with_capacity(4)
    }

    fn entry(i: u64, x: f64, y: f64) -> LeafEntry {
        LeafEntry::new(PointId(i), Point::new(x, y))
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new(small_params());
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.root_mbr().is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-finite point inserted")]
    fn insert_refuses_a_non_finite_point() {
        let mut t = RTree::new(small_params());
        for i in 0..10 {
            t.insert(entry(i, i as f64, 1.0));
        }
        t.insert(entry(10, 2.0, f64::INFINITY));
    }

    #[test]
    fn insert_a_few_points() {
        let mut t = RTree::new(small_params());
        for i in 0..4 {
            t.insert(entry(i, i as f64, 0.0));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.height(), 1);
        check_invariants(&t);
    }

    #[test]
    fn insert_forces_split_and_grows() {
        let mut t = RTree::new(small_params());
        for i in 0..30 {
            t.insert(entry(i, i as f64, (i % 5) as f64));
        }
        assert_eq!(t.len(), 30);
        assert!(t.height() >= 2);
        check_invariants(&t);
        let mut ids: Vec<u64> = t.iter().map(|e| e.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn insert_many_random_points_keeps_invariants() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = RTree::new(RTreeParams::with_capacity(8));
        for i in 0..2000 {
            t.insert(entry(i, rng.gen::<f64>() * 100.0, rng.gen::<f64>() * 100.0));
        }
        assert_eq!(t.len(), 2000);
        check_invariants(&t);
    }

    #[test]
    fn insert_duplicate_coordinates() {
        let mut t = RTree::new(small_params());
        for i in 0..50 {
            t.insert(entry(i, 1.0, 1.0));
        }
        assert_eq!(t.len(), 50);
        check_invariants(&t);
        assert_eq!(t.root_mbr(), Rect::from_point(Point::new(1.0, 1.0)));
    }

    #[test]
    fn remove_simple() {
        let mut t = RTree::new(small_params());
        for i in 0..10 {
            t.insert(entry(i, i as f64, 0.0));
        }
        assert!(t.remove(PointId(3), Point::new(3.0, 0.0)));
        assert!(!t.remove(PointId(3), Point::new(3.0, 0.0)));
        assert_eq!(t.len(), 9);
        check_invariants(&t);
        assert!(t.iter().all(|e| e.id != PointId(3)));
    }

    #[test]
    fn remove_everything_collapses_to_empty() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = RTree::new(small_params());
        let pts: Vec<LeafEntry> = (0..200)
            .map(|i| entry(i, rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        for &e in &pts {
            t.insert(e);
        }
        check_invariants(&t);
        for &e in &pts {
            assert!(t.remove(e.id, e.point), "missing {:?}", e.id);
            check_invariants(&t);
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn mixed_insert_remove_random() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = RTree::new(RTreeParams::with_capacity(6));
        let mut live: Vec<LeafEntry> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..3000 {
            if live.is_empty() || rng.gen_bool(0.6) {
                let e = entry(next_id, rng.gen::<f64>() * 10.0, rng.gen::<f64>() * 10.0);
                next_id += 1;
                t.insert(e);
                live.push(e);
            } else {
                let idx = rng.gen_range(0..live.len());
                let e = live.swap_remove(idx);
                assert!(t.remove(e.id, e.point));
            }
            if step % 500 == 0 {
                check_invariants(&t);
            }
        }
        check_invariants(&t);
        assert_eq!(t.len(), live.len());
        let mut got: Vec<u64> = t.iter().map(|e| e.id.0).collect();
        let mut want: Vec<u64> = live.iter().map(|e| e.id.0).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn remove_with_wrong_point_hint_fails_safely() {
        let mut t = RTree::new(small_params());
        for i in 0..100 {
            t.insert(entry(i, i as f64, i as f64));
        }
        // Wrong coordinates: pruned away, nothing removed.
        assert!(!t.remove(PointId(5), Point::new(90.0, 90.0)));
        assert_eq!(t.len(), 100);
    }

    #[test]
    fn page_recycling_after_removals() {
        let mut t = RTree::new(small_params());
        for i in 0..500 {
            t.insert(entry(i, (i % 31) as f64, (i % 17) as f64));
        }
        let pages_full = t.node_count();
        for i in 0..400 {
            assert!(t.remove(PointId(i), Point::new((i % 31) as f64, (i % 17) as f64)));
        }
        check_invariants(&t);
        assert!(t.node_count() < pages_full);
        // Inserting again reuses freed pages rather than growing the arena.
        let arena_size = t.nodes.len();
        for i in 500..700 {
            t.insert(entry(i, (i % 29) as f64, (i % 13) as f64));
        }
        check_invariants(&t);
        assert!(t.nodes.len() <= arena_size + 5);
    }
}
