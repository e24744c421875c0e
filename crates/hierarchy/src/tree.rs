//! Generic multi-level category tree.
//!
//! Nodes are stored in a flat arena indexed by [`CategoryId`]; each node
//! records its parent and level (1 = top/root level, increasing downwards).
//! The paper uses the first three levels of the Foursquare and NAICS
//! hierarchies (§6.2), so three levels is the common case, but the tree is
//! depth-agnostic.

use serde::{Deserialize, Serialize};

/// Index of a category node within its [`CategoryHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CategoryId(pub u32);

impl CategoryId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single node of the hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoryNode {
    /// Human-readable name, e.g. "Food" or "Shoe Shop".
    pub name: String,
    /// Parent node; `None` for level-1 roots.
    pub parent: Option<CategoryId>,
    /// 1-based level: 1 for roots, `max_level()` for the deepest leaves.
    pub level: u8,
}

/// An arena-backed category hierarchy.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CategoryHierarchy {
    nodes: Vec<CategoryNode>,
    children: Vec<Vec<CategoryId>>,
    max_level: u8,
}

impl CategoryHierarchy {
    /// Creates an empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a level-1 root category and returns its id.
    pub fn add_root(&mut self, name: impl Into<String>) -> CategoryId {
        self.push(CategoryNode {
            name: name.into(),
            parent: None,
            level: 1,
        })
    }

    /// Adds a child of `parent` and returns its id.
    ///
    /// Panics if `parent` is out of bounds.
    pub fn add_child(&mut self, parent: CategoryId, name: impl Into<String>) -> CategoryId {
        let level = self.nodes[parent.index()].level + 1;
        self.push(CategoryNode {
            name: name.into(),
            parent: Some(parent),
            level,
        })
    }

    fn push(&mut self, node: CategoryNode) -> CategoryId {
        let id = CategoryId(self.nodes.len() as u32);
        self.max_level = self.max_level.max(node.level);
        if let Some(p) = node.parent {
            self.children[p.index()].push(id);
        }
        self.nodes.push(node);
        self.children.push(Vec::new());
        id
    }

    /// Number of nodes (all levels).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the hierarchy has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Deepest level present (0 for an empty hierarchy).
    #[inline]
    pub fn max_level(&self) -> u8 {
        self.max_level
    }

    /// The node for `id`. Panics if out of bounds.
    #[inline]
    pub fn node(&self, id: CategoryId) -> &CategoryNode {
        &self.nodes[id.index()]
    }

    /// Level of `id` (1-based).
    #[inline]
    pub fn level(&self, id: CategoryId) -> u8 {
        self.nodes[id.index()].level
    }

    /// Parent of `id`, if any.
    #[inline]
    pub fn parent(&self, id: CategoryId) -> Option<CategoryId> {
        self.nodes[id.index()].parent
    }

    /// Direct children of `id`.
    #[inline]
    pub fn children(&self, id: CategoryId) -> &[CategoryId] {
        &self.children[id.index()]
    }

    /// Whether `id` is a leaf (no children).
    #[inline]
    pub fn is_leaf(&self, id: CategoryId) -> bool {
        self.children[id.index()].is_empty()
    }

    /// Iterator over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = CategoryId> {
        (0..self.nodes.len() as u32).map(CategoryId)
    }

    /// All leaf node ids.
    pub fn leaves(&self) -> Vec<CategoryId> {
        self.ids().filter(|&id| self.is_leaf(id)).collect()
    }

    /// All level-1 roots.
    pub fn roots(&self) -> Vec<CategoryId> {
        self.ids().filter(|&id| self.parent(id).is_none()).collect()
    }

    /// The ancestor of `id` at `level`, or `None` if `level` is below the
    /// node's own level. `ancestor_at(id, level(id))` returns `id` itself.
    pub fn ancestor_at(&self, id: CategoryId, level: u8) -> Option<CategoryId> {
        let mut cur = id;
        loop {
            let l = self.level(cur);
            if l == level {
                return Some(cur);
            }
            if l < level {
                return None;
            }
            cur = self.parent(cur)?;
        }
    }

    /// Lowest common ancestor of `a` and `b`, or `None` if they are in
    /// different level-1 subtrees.
    pub fn lca(&self, a: CategoryId, b: CategoryId) -> Option<CategoryId> {
        let (mut a, mut b) = (a, b);
        while self.level(a) > self.level(b) {
            a = self.parent(a)?;
        }
        while self.level(b) > self.level(a) {
            b = self.parent(b)?;
        }
        while a != b {
            a = self.parent(a)?;
            b = self.parent(b)?;
        }
        Some(a)
    }

    /// Full path of names from root to `id`, joined with " / ".
    pub fn path_name(&self, id: CategoryId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            parts.push(self.node(c).name.as_str());
            cur = self.parent(c);
        }
        parts.reverse();
        parts.join(" / ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two roots, each with two level-2 children, each with two leaves.
    fn sample() -> (CategoryHierarchy, Vec<CategoryId>) {
        let mut h = CategoryHierarchy::new();
        let mut ids = Vec::new();
        for r in 0..2 {
            let root = h.add_root(format!("root{r}"));
            ids.push(root);
            for m in 0..2 {
                let mid = h.add_child(root, format!("mid{r}{m}"));
                ids.push(mid);
                for l in 0..2 {
                    ids.push(h.add_child(mid, format!("leaf{r}{m}{l}")));
                }
            }
        }
        (h, ids)
    }

    #[test]
    fn levels_and_counts() {
        let (h, _) = sample();
        assert_eq!(h.len(), 14);
        assert_eq!(h.max_level(), 3);
        assert_eq!(h.roots().len(), 2);
        assert_eq!(h.leaves().len(), 8);
    }

    #[test]
    fn parent_child_links() {
        let (h, ids) = sample();
        let root = ids[0];
        let mid = ids[1];
        assert_eq!(h.parent(mid), Some(root));
        assert!(h.children(root).contains(&mid));
        assert_eq!(h.level(root), 1);
        assert_eq!(h.level(mid), 2);
    }

    #[test]
    fn ancestor_at_levels() {
        let (h, ids) = sample();
        let leaf = ids[2]; // first leaf under root0/mid00
        assert_eq!(h.level(leaf), 3);
        assert_eq!(h.ancestor_at(leaf, 3), Some(leaf));
        assert_eq!(h.ancestor_at(leaf, 2), Some(ids[1]));
        assert_eq!(h.ancestor_at(leaf, 1), Some(ids[0]));
        assert_eq!(h.ancestor_at(ids[0], 2), None);
    }

    #[test]
    fn lca_same_subtree() {
        let (h, ids) = sample();
        // leaves under the same mid -> mid; under different mids -> root.
        assert_eq!(h.lca(ids[2], ids[3]), Some(ids[1]));
        assert_eq!(h.lca(ids[2], ids[5]), Some(ids[0]));
        // node with its own ancestor -> the ancestor.
        assert_eq!(h.lca(ids[2], ids[0]), Some(ids[0]));
        assert_eq!(h.lca(ids[2], ids[2]), Some(ids[2]));
    }

    #[test]
    fn lca_across_roots_is_none() {
        let (h, ids) = sample();
        let left_leaf = ids[2];
        let right_leaf = *ids.last().unwrap();
        assert_eq!(h.lca(left_leaf, right_leaf), None);
    }

    #[test]
    fn path_name_joins_levels() {
        let (h, ids) = sample();
        assert_eq!(h.path_name(ids[2]), "root0 / mid00 / leaf000");
    }
}
