//! KG-integrity rules (`KG0xx`).

use crate::bundle::CheckBundle;
use crate::diagnostic::{Diagnostic, Severity, Subject};
use crate::rules::Rule;
use kgrec_graph::EntityId;

/// `KG001`: every triple's head, relation, and tail id must be in range.
///
/// The CSR builder cannot produce these, but graphs assembled through
/// [`kgrec_graph::KnowledgeGraph::from_parts`] (loaders, external dumps)
/// can carry dangling tail or relation ids, which index out of bounds the
/// first time a model walks the edge.
pub(crate) struct DanglingIds;

impl Rule for DanglingIds {
    fn code(&self) -> &'static str {
        "KG001"
    }

    fn summary(&self) -> &'static str {
        "triples reference entity/relation ids that exist in the graph"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let g = &bundle.dataset.graph;
        let (ne, nr) = (g.num_entities(), g.num_relations());
        let mut out = Vec::new();
        for (i, t) in g.iter_triples().enumerate() {
            if t.head.index() >= ne {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Triple(i),
                    format!("head entity {} out of range ({} entities)", t.head.0, ne),
                ));
            }
            if t.tail.index() >= ne {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Triple(i),
                    format!("tail entity {} out of range ({} entities)", t.tail.0, ne),
                ));
            }
            if t.rel.index() >= nr {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Triple(i),
                    format!("relation {} out of range ({} relations)", t.rel.0, nr),
                ));
            }
        }
        out
    }
}

/// `KG002`: no duplicate triples.
///
/// [`kgrec_graph::KgBuilder`] deduplicates, but `from_parts` does not;
/// duplicates silently double edge weights in every propagation model.
pub(crate) struct DuplicateTriples;

impl Rule for DuplicateTriples {
    fn code(&self) -> &'static str {
        "KG002"
    }

    fn summary(&self) -> &'static str {
        "the triple store contains no duplicate facts"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        // Triples iterate sorted head-major, so duplicates are adjacent.
        let g = &bundle.dataset.graph;
        (1..g.num_triples())
            .filter(|&i| g.triple_at(i - 1) == g.triple_at(i))
            .map(|i| {
                let t = g.triple_at(i);
                Diagnostic::new(
                    self.code(),
                    Severity::Warning,
                    Subject::Triple(i),
                    format!(
                        "duplicate fact <{}, {}, {}>; edge weight is silently doubled",
                        t.head.0, t.rel.0, t.tail.0
                    ),
                )
            })
            .collect()
    }
}

/// `KG003`: the item↔entity alignment is a well-formed injection.
///
/// Checks length (one entity per item), range, and injectivity — two
/// items aligned to one entity make `item_of` ambiguous and silently
/// merge their KG neighborhoods.
pub(crate) struct Alignment;

impl Rule for Alignment {
    fn code(&self) -> &'static str {
        "KG003"
    }

    fn summary(&self) -> &'static str {
        "the item-entity alignment is complete, in range, and injective"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let ds = bundle.dataset;
        let n_items = ds.interactions.num_items();
        let n_entities = ds.graph.num_entities();
        let mut out = Vec::new();
        if ds.item_entities.len() != n_items {
            out.push(Diagnostic::new(
                self.code(),
                Severity::Error,
                Subject::Dataset,
                format!(
                    "alignment covers {} items but the matrix has {n_items}",
                    ds.item_entities.len()
                ),
            ));
        }
        let mut owner: Vec<Option<u32>> = vec![None; n_entities];
        for (j, e) in ds.item_entities.iter().enumerate() {
            if e.index() >= n_entities {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Item(j as u32),
                    format!("aligned entity {} out of range ({n_entities} entities)", e.0),
                ));
            } else if let Some(prev) = owner[e.index()] {
                out.push(Diagnostic::new(
                    self.code(),
                    Severity::Error,
                    Subject::Item(j as u32),
                    format!("aligned to entity {} already claimed by item {prev}", e.0),
                ));
            } else {
                owner[e.index()] = Some(j as u32);
            }
        }
        out
    }
}

/// `KG004`: every item's entity participates in at least one triple.
///
/// An item with no KG edges gets zero side information — every KG-aware
/// model silently degrades to collaborative filtering for it. One or two
/// are survivable; systematic occurrence usually means the alignment is
/// wrong.
pub(crate) struct IsolatedItems;

impl Rule for IsolatedItems {
    fn code(&self) -> &'static str {
        "KG004"
    }

    fn summary(&self) -> &'static str {
        "every item's aligned entity has at least one KG edge"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let ds = bundle.dataset;
        let g = &ds.graph;
        let mut in_degree = vec![0usize; g.num_entities()];
        for t in g.iter_triples() {
            if t.tail.index() < in_degree.len() {
                in_degree[t.tail.index()] += 1;
            }
        }
        ds.item_entities
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.index() < g.num_entities() && g.degree(**e) == 0 && in_degree[e.index()] == 0
            })
            .map(|(j, e)| {
                Diagnostic::new(
                    self.code(),
                    Severity::Warning,
                    Subject::Item(j as u32),
                    format!(
                        "entity {} ('{}') has no KG edges; the item gets no side information",
                        e.0,
                        g.entity_name(*e)
                    ),
                )
            })
            .collect()
    }
}

/// `KG005`: entities unreachable from every item within the hop budget.
///
/// Propagation models expand at most `max_hops` hops from item entities;
/// anything beyond that radius is dead weight in the embedding tables.
/// Unused attribute values are normal in generated and real KGs alike, so
/// this reports one aggregate `Info` diagnostic rather than flooding.
pub(crate) struct UnreachableEntities;

impl Rule for UnreachableEntities {
    fn code(&self) -> &'static str {
        "KG005"
    }

    fn summary(&self) -> &'static str {
        "entities are reachable from some item within the hop budget"
    }

    fn check(&self, bundle: &CheckBundle<'_>) -> Vec<Diagnostic> {
        let ds = bundle.dataset;
        let g = &ds.graph;
        if g.num_entities() == 0 {
            return Vec::new();
        }
        let mut depth = vec![usize::MAX; g.num_entities()];
        let mut frontier: Vec<EntityId> = Vec::new();
        for e in &ds.item_entities {
            if e.index() < g.num_entities() && depth[e.index()] == usize::MAX {
                depth[e.index()] = 0;
                frontier.push(*e);
            }
        }
        for d in 1..=bundle.max_hops {
            let mut next = Vec::new();
            for &e in &frontier {
                for (_, t) in g.neighbors(e) {
                    if t.index() < depth.len() && depth[t.index()] == usize::MAX {
                        depth[t.index()] = d;
                        next.push(t);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        let unreachable: Vec<u32> =
            (0..g.num_entities()).filter(|&i| depth[i] == usize::MAX).map(|i| i as u32).collect();
        if unreachable.is_empty() {
            return Vec::new();
        }
        let sample: Vec<String> = unreachable
            .iter()
            .take(5)
            .map(|&e| format!("{} ('{}')", e, g.entity_name(EntityId(e))))
            .collect();
        vec![Diagnostic::new(
            self.code(),
            Severity::Info,
            Subject::Graph,
            format!(
                "{} of {} entities unreachable from any item within {} hops \
                 (dead weight for propagation models); e.g. {}",
                unreachable.len(),
                g.num_entities(),
                bundle.max_hops,
                sample.join(", ")
            ),
        )]
    }
}
