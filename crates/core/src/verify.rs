//! Structural validation and statistics for large objects.
//!
//! [`verify_object_report`] is the exhaustive oracle: it walks the
//! entire tree and checks every invariant the paper states (counts,
//! node fill, level monotonicity, the no-holes rule for segments, and
//! that every page an object references is actually allocated in the
//! buddy maps), collecting *all* violations instead of stopping at the
//! first. [`verify_object`] is a thin pass/fail wrapper over it.
//! [`object_stats`] collects the numbers the experiments report —
//! segment counts, page counts, tree height and storage utilization.

use crate::error::{Error, Result};
use crate::node::{node_min, Node};
use crate::object::LargeObject;
use crate::store::ObjectStore;

/// Structural statistics of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectStats {
    /// Object size in bytes.
    pub size: u64,
    /// Number of leaf segments.
    pub segments: u64,
    /// Pages occupied by leaf segments.
    pub leaf_pages: u64,
    /// Index pages (excluding the client-held root).
    pub index_pages: u64,
    /// Tree height (1 = root points straight at segments).
    pub height: u16,
    /// Pages of the smallest leaf segment.
    pub min_seg_pages: u64,
    /// Pages of the largest leaf segment.
    pub max_seg_pages: u64,
}

impl ObjectStats {
    /// Leaf storage utilization: object bytes over leaf-page bytes.
    pub fn leaf_utilization(&self, page_size: usize) -> f64 {
        if self.leaf_pages == 0 {
            return 1.0;
        }
        self.size as f64 / (self.leaf_pages * page_size as u64) as f64
    }
}

/// One broken structural invariant found while walking an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of entry indices from the root, e.g. `root/2/0`.
    pub location: String,
    /// What invariant is broken, in the paper's terms.
    pub reason: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.location, self.reason)
    }
}

/// Collect [`ObjectStats`] by walking the tree.
pub(crate) fn object_stats(store: &ObjectStore, obj: &LargeObject) -> Result<ObjectStats> {
    let ps = store.ps();
    let mut stats = ObjectStats {
        size: obj.size(),
        segments: 0,
        leaf_pages: 0,
        index_pages: 0,
        height: obj.root.level,
        min_seg_pages: u64::MAX,
        max_seg_pages: 0,
    };
    walk(store, &obj.root, &mut |node| {
        if node.level == 1 {
            for e in &node.entries {
                let pages = e.bytes.div_ceil(ps);
                stats.segments += 1;
                stats.leaf_pages += pages;
                stats.min_seg_pages = stats.min_seg_pages.min(pages);
                stats.max_seg_pages = stats.max_seg_pages.max(pages);
            }
        }
    })?;
    // Count index pages: every node except the root lives on a page.
    let mut index_pages = 0u64;
    walk(store, &obj.root, &mut |node| {
        if node.level > 1 {
            index_pages += node.entries.len() as u64;
        }
    })?;
    stats.index_pages = index_pages;
    if stats.segments == 0 {
        stats.min_seg_pages = 0;
    }
    Ok(stats)
}

fn walk(store: &ObjectStore, node: &Node, f: &mut impl FnMut(&Node)) -> Result<()> {
    f(node);
    if node.level > 1 {
        for e in &node.entries {
            let child = store.read_node(e.ptr)?;
            walk(store, &child, f)?;
        }
    }
    Ok(())
}

/// Exhaustively verify the object's structural invariants, stopping at
/// nothing: every violation in the tree is reported.
pub(crate) fn verify_object_report(store: &ObjectStore, obj: &LargeObject) -> Vec<Violation> {
    let mut out = Vec::new();
    let root_cap = store.root_cap();
    if obj.root.entries.len() > root_cap {
        out.push(Violation {
            location: "root".into(),
            reason: format!(
                "root has {} entries, cap is {root_cap}",
                obj.root.entries.len()
            ),
        });
    }
    if obj.root.level > 1 && obj.root.entries.len() < 2 {
        out.push(Violation {
            location: "root".into(),
            reason: "non-leaf root with fewer than two pairs".into(),
        });
    }
    verify_node(store, &obj.root, NodePos::Root, "root", &mut out);
    out
}

/// Pass/fail wrapper over [`verify_object_report`]: the first violation
/// becomes an [`Error::CorruptObject`].
pub(crate) fn verify_object(store: &ObjectStore, obj: &LargeObject) -> Result<()> {
    match verify_object_report(store, obj).into_iter().next() {
        None => Ok(()),
        Some(v) => Err(Error::CorruptObject {
            reason: v.to_string(),
        }),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum NodePos {
    Root,
    /// Direct child of the root: exempt from the half-full minimum when
    /// the client bounds the root below a full page (§4 footnote 3 —
    /// splitting such a root cannot produce half-full children).
    RootChild,
    Inner,
}

/// Walk `node`, appending every violation to `out`. Returns the actual
/// byte total of the subtree so the parent can check its entry count;
/// an unreadable child absorbs its entry's claimed count so one torn
/// page does not cascade into count mismatches up the whole path.
fn verify_node(
    store: &ObjectStore,
    node: &Node,
    pos: NodePos,
    path: &str,
    out: &mut Vec<Violation>,
) -> u64 {
    let ps = store.ps();
    let cap = store.node_cap();
    let min = node_min(store.page_size());
    if pos != NodePos::Root {
        if node.entries.len() > cap {
            out.push(Violation {
                location: path.into(),
                reason: format!("node with {} entries over cap {cap}", node.entries.len()),
            });
        }
        let exempt = pos == NodePos::RootChild && store.root_cap() < cap;
        if node.entries.len() < min && !exempt {
            out.push(Violation {
                location: path.into(),
                reason: format!(
                    "node with {} entries below half-full minimum {min}",
                    node.entries.len()
                ),
            });
        }
    }
    let mut total = 0u64;
    for (i, e) in node.entries.iter().enumerate() {
        let epath = format!("{path}/{i}");
        if e.bytes == 0 {
            out.push(Violation {
                location: epath.clone(),
                reason: "zero-byte entry".into(),
            });
        }
        if node.level == 1 {
            // Leaf segment: every page must be allocated in the buddy
            // maps; the page count is ⌈bytes/PS⌉ by the no-holes rule.
            let pages = e.bytes.div_ceil(ps);
            check_allocated(store, e.ptr, pages, &epath, out);
        } else {
            match store.read_node(e.ptr) {
                Ok(child) => {
                    if child.level != node.level - 1 {
                        out.push(Violation {
                            location: epath.clone(),
                            reason: format!(
                                "level skew: child {} under node {}",
                                child.level, node.level
                            ),
                        });
                    }
                    check_allocated(store, e.ptr, 1, &epath, out);
                    let child_pos = if pos == NodePos::Root {
                        NodePos::RootChild
                    } else {
                        NodePos::Inner
                    };
                    let child_total = verify_node(store, &child, child_pos, &epath, out);
                    if child_total != e.bytes {
                        out.push(Violation {
                            location: epath,
                            reason: format!(
                                "count mismatch: entry says {}, subtree holds {child_total}",
                                e.bytes
                            ),
                        });
                    }
                }
                Err(err) => {
                    out.push(Violation {
                        location: epath,
                        reason: format!("unreadable index page {}: {err}", e.ptr),
                    });
                }
            }
        }
        total += e.bytes;
    }
    total
}

/// Check that `pages` pages from `start` are marked allocated,
/// reporting every free or out-of-space page.
fn check_allocated(
    store: &ObjectStore,
    start: u64,
    pages: u64,
    path: &str,
    out: &mut Vec<Violation>,
) {
    for space_idx in 0..store.buddy().num_spaces() {
        let space = store.buddy().space(space_idx);
        let base = space.data_base();
        let end = base + space.dir().data_pages();
        if start >= base && start < end {
            if start + pages > end {
                out.push(Violation {
                    location: path.into(),
                    reason: format!("extent [{start},+{pages}) crosses a space boundary"),
                });
            }
            for p in start..(start + pages).min(end) {
                if !space.dir().amap().page_allocated(p - base) {
                    out.push(Violation {
                        location: path.into(),
                        reason: format!("page {p} referenced but free in the buddy map"),
                    });
                }
            }
            return;
        }
    }
    out.push(Violation {
        location: path.into(),
        reason: format!("page {start} outside every buddy space"),
    });
}

/// Every page extent `(start_page, pages)` the object references —
/// index pages (one-page extents) and leaf segments. Tolerant of torn
/// index pages: an unreadable subtree contributes only the extent of
/// the page that failed to parse.
pub(crate) fn object_page_extents(store: &ObjectStore, obj: &LargeObject) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    collect_extents(store, &obj.root, &mut out);
    out
}

fn collect_extents(store: &ObjectStore, node: &Node, out: &mut Vec<(u64, u64)>) {
    let ps = store.ps();
    for e in &node.entries {
        if node.level == 1 {
            let pages = e.bytes.div_ceil(ps);
            if pages > 0 {
                out.push((e.ptr, pages));
            }
        } else {
            out.push((e.ptr, 1));
            if let Ok(child) = store.read_node(e.ptr) {
                collect_extents(store, &child, out);
            }
        }
    }
}
