//! PathSim meta-path similarity (Sun et al., survey Eq. 12).
//!
//! `s(x, y) = 2·|p_{x⇝y}| / (|p_{x⇝x}| + |p_{y⇝y}|)` where the paths follow
//! a *symmetric* meta-path (one ending at the type it starts from, e.g.
//! movie → genre → movie). The path-based recommenders use PathSim both as
//! a regularizer (Hete-MF/Hete-CF) and to diffuse the interaction matrix
//! (HeteRec).

use crate::graph::KnowledgeGraph;
use crate::ids::{id32, EntityId};
use crate::metapath::MetaPath;

/// A sparse, row-indexed similarity matrix over a fixed entity list.
///
/// `rows[i]` holds `(j, sim)` pairs — positions refer to the entity list
/// the matrix was computed over, not global entity ids, so the matrix can
/// be used directly to index item latent-factor tables.
#[derive(Debug, Clone)]
pub struct SimilarityMatrix {
    rows: Vec<Vec<(u32, f32)>>,
}

impl SimilarityMatrix {
    /// Number of rows (== entities).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sparse row `i`: `(column, similarity)` pairs sorted by column.
    pub fn row(&self, i: usize) -> &[(u32, f32)] {
        &self.rows[i]
    }

    /// Similarity between positions `i` and `j` (0.0 when absent).
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.rows[i].binary_search_by_key(&id32(j), |&(c, _)| c).map_or(0.0, |k| self.rows[i][k].1)
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Keeps only the `k` strongest similarities per row (ties toward
    /// smaller column indices), preserving the sorted-by-column layout.
    pub fn truncate_rows(&mut self, k: usize) {
        for row in &mut self.rows {
            if row.len() <= k {
                continue;
            }
            row.sort_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
            });
            row.truncate(k);
            row.sort_by_key(|&(c, _)| c);
        }
    }
}

/// Computes the PathSim matrix over `entities` for a symmetric `metapath`.
///
/// Self-similarities (`s(x,x) = 1` by construction) are *not* stored.
/// Pairs with zero connecting paths are not stored either. Entities with no
/// self-walks (unreachable under the meta-path) get empty rows.
pub fn pathsim_matrix(
    graph: &KnowledgeGraph,
    entities: &[EntityId],
    metapath: &MetaPath,
) -> SimilarityMatrix {
    // Position lookup: global entity id -> position in `entities`.
    let mut pos = vec![u32::MAX; graph.num_entities()];
    for (i, e) in entities.iter().enumerate() {
        pos[e.index()] = id32(i);
    }
    // Walk counts from every listed entity.
    let counts: Vec<Vec<(EntityId, f64)>> =
        entities.iter().map(|&e| metapath.walk_counts(graph, e)).collect();
    // Self-counts |p_{x⇝x}|.
    let self_counts: Vec<f64> = entities
        .iter()
        .zip(counts.iter())
        .map(|(&e, row)| row.binary_search_by_key(&e.0, |&(t, _)| t.0).map_or(0.0, |k| row[k].1))
        .collect();
    let mut rows = Vec::with_capacity(entities.len());
    for (i, row) in counts.iter().enumerate() {
        let mut out = Vec::new();
        for &(t, c) in row {
            let j = pos[t.index()];
            if j == u32::MAX || j as usize == i {
                continue;
            }
            let denom = self_counts[i] + self_counts[j as usize];
            if denom > 0.0 && c > 0.0 {
                out.push((j, (2.0 * c / denom) as f32));
            }
        }
        out.sort_by_key(|&(c, _)| c);
        rows.push(out);
    }
    SimilarityMatrix { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KgBuilder;

    /// PathSim between two specific entities under `metapath`: survey
    /// Eq. 12 per pair, the oracle the batch matrix is checked against.
    fn pathsim_pair(graph: &KnowledgeGraph, x: EntityId, y: EntityId, metapath: &MetaPath) -> f32 {
        let cx = metapath.walk_counts(graph, x);
        let get = |row: &[(EntityId, f64)], e: EntityId| {
            row.binary_search_by_key(&e.0, |&(t, _)| t.0).map_or(0.0, |k| row[k].1)
        };
        let xy = get(&cx, y);
        if xy == 0.0 {
            return 0.0;
        }
        let xx = get(&cx, x);
        let cy = metapath.walk_counts(graph, y);
        let yy = get(&cy, y);
        let denom = xx + yy;
        if denom == 0.0 {
            0.0
        } else {
            (2.0 * xy / denom) as f32
        }
    }

    /// m1,m2 share genre g1; m3 has g2; m4 shares both g1 and g2 with none.
    fn toy() -> (KnowledgeGraph, Vec<EntityId>) {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("movie");
        let tg = b.entity_type("genre");
        let m1 = b.entity("m1", tm);
        let m2 = b.entity("m2", tm);
        let m3 = b.entity("m3", tm);
        let g1 = b.entity("g1", tg);
        let g2 = b.entity("g2", tg);
        let r = b.relation("genre");
        b.triple(m1, r, g1);
        b.triple(m2, r, g1);
        b.triple(m2, r, g2);
        b.triple(m3, r, g2);
        let g = b.build(true);
        let movies = vec![m1, m2, m3];
        (g, movies)
    }

    fn mgm(g: &KnowledgeGraph) -> MetaPath {
        MetaPath::from_names(g, &["genre", "genre_inv"]).unwrap()
    }

    #[test]
    fn pathsim_symmetric() {
        let (g, movies) = toy();
        let m = pathsim_matrix(&g, &movies, &mgm(&g));
        for i in 0..movies.len() {
            for j in 0..movies.len() {
                assert!((m.get(i, j) - m.get(j, i)).abs() < 1e-6, "i={i} j={j}");
            }
        }
    }

    #[test]
    fn pathsim_in_unit_interval() {
        let (g, movies) = toy();
        let m = pathsim_matrix(&g, &movies, &mgm(&g));
        for i in 0..m.len() {
            for &(_, s) in m.row(i) {
                assert!((0.0..=1.0).contains(&s), "s={s}");
            }
        }
    }

    #[test]
    fn pathsim_known_values() {
        let (g, movies) = toy();
        let m = pathsim_matrix(&g, &movies, &mgm(&g));
        // m1: self-count 1; m2: self-count 2 (two genres); shared paths m1-m2: 1.
        // s(m1,m2) = 2*1/(1+2) = 2/3.
        assert!((m.get(0, 1) - 2.0 / 3.0).abs() < 1e-6);
        // m1 and m3 share nothing.
        assert_eq!(m.get(0, 2), 0.0);
        // m2 and m3 share g2: s = 2*1/(2+1) = 2/3.
        assert!((m.get(1, 2) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn pathsim_pair_matches_matrix() {
        let (g, movies) = toy();
        let m = pathsim_matrix(&g, &movies, &mgm(&g));
        let p = mgm(&g);
        for i in 0..movies.len() {
            for j in 0..movies.len() {
                if i == j {
                    continue;
                }
                let pair = pathsim_pair(&g, movies[i], movies[j], &p);
                assert!((pair - m.get(i, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn self_similarity_not_stored() {
        let (g, movies) = toy();
        let m = pathsim_matrix(&g, &movies, &mgm(&g));
        for i in 0..m.len() {
            assert!(m.row(i).iter().all(|&(j, _)| j as usize != i));
        }
    }

    #[test]
    fn isolated_entity_empty_row() {
        let mut b = KgBuilder::new();
        let tm = b.entity_type("movie");
        let tg = b.entity_type("genre");
        let m1 = b.entity("m1", tm);
        let m2 = b.entity("m2", tm);
        let g1 = b.entity("g1", tg);
        let r = b.relation("genre");
        b.triple(m1, r, g1);
        let g = b.build(true);
        let p = MetaPath::from_names(&g, &["genre", "genre_inv"]).unwrap();
        let m = pathsim_matrix(&g, &[m1, m2], &p);
        assert!(m.row(1).is_empty());
        assert_eq!(m.nnz(), 0);
    }
}
