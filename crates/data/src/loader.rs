//! Tab-separated loaders for real interaction and triple dumps.
//!
//! The synthetic generators cover the offline reproduction; these loaders
//! make the library usable with the real corpora of Table 4 when a user
//! has them on disk:
//!
//! * interactions: `user \t item [\t rating]` with string ids, densified;
//! * triples: `head \t relation \t tail` with string names.

use crate::dataset::KgDataset;
use crate::ids::{ItemId, UserId};
use crate::{Interaction, InteractionMatrix};
use kgrec_graph::{id32, EntityId, KgBuilder};
use std::collections::HashMap;
use std::fmt;

/// Errors produced by the loaders.
#[derive(Debug)]
pub enum LoadError {
    /// A line did not have the expected number of fields.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A rating field failed to parse as a finite float.
    BadRating {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
            LoadError::BadRating { line, field } => {
                write!(f, "line {line}: rating {field:?} is not a finite number")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Parsed interaction data with the string→dense id maps retained.
#[derive(Debug, Clone)]
pub struct LoadedInteractions {
    /// The densified matrix.
    pub matrix: InteractionMatrix,
    /// Original user keys in id order.
    pub user_keys: Vec<String>,
    /// Original item keys in id order.
    pub item_keys: Vec<String>,
}

/// Parses `user \t item [\t rating]` lines. Blank lines and lines starting
/// with `#` are skipped. Ids are assigned densely in first-seen order.
pub fn parse_interactions(text: &str) -> Result<LoadedInteractions, LoadError> {
    let mut user_index: HashMap<String, UserId> = HashMap::new();
    let mut item_index: HashMap<String, ItemId> = HashMap::new();
    let mut user_keys = Vec::new();
    let mut item_keys = Vec::new();
    let mut interactions = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() < 2 || fields.len() > 3 {
            return Err(LoadError::Malformed {
                line: lineno + 1,
                message: format!("expected 2 or 3 tab-separated fields, got {}", fields.len()),
            });
        }
        let user = *user_index.entry(fields[0].to_owned()).or_insert_with(|| {
            user_keys.push(fields[0].to_owned());
            UserId(id32(user_keys.len() - 1))
        });
        let item = *item_index.entry(fields[1].to_owned()).or_insert_with(|| {
            item_keys.push(fields[1].to_owned());
            ItemId(id32(item_keys.len() - 1))
        });
        let rating = if fields.len() == 3 {
            // `NaN` would read back as the implicit sentinel and `inf` as
            // a rating, so a non-finite parse is as bad as no parse.
            let rating = fields[2].parse::<f32>().ok().filter(|r| r.is_finite());
            Some(rating.ok_or_else(|| LoadError::BadRating {
                line: lineno + 1,
                field: fields[2].to_owned(),
            })?)
        } else {
            None
        };
        interactions.push(Interaction { user, item, rating, timestamp: None });
    }
    let matrix =
        InteractionMatrix::from_interactions(user_keys.len(), item_keys.len(), &interactions);
    Ok(LoadedInteractions { matrix, user_keys, item_keys })
}

/// Parses `head \t relation \t tail` triple lines into a [`KgDataset`],
/// aligning items by name: an item key of the interaction data that
/// appears as an entity name in the triples is linked to that entity;
/// items never mentioned in the KG get a fresh isolated entity (the
/// cold-KG case every model must tolerate).
pub fn parse_dataset(
    interactions: &LoadedInteractions,
    triples_text: &str,
) -> Result<KgDataset, LoadError> {
    let mut b = KgBuilder::new();
    let ty = b.entity_type("entity");
    for (lineno, line) in triples_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 3 {
            return Err(LoadError::Malformed {
                line: lineno + 1,
                message: format!("expected 3 tab-separated fields, got {}", fields.len()),
            });
        }
        let h = b.entity(fields[0], ty);
        let r = b.relation(fields[1]);
        let t = b.entity(fields[2], ty);
        b.triple(h, r, t);
    }
    // Ensure every item has an entity.
    let item_entities: Vec<EntityId> =
        interactions.item_keys.iter().map(|k| b.entity(k, ty)).collect();
    let graph = b.build(true);
    Ok(KgDataset::new(interactions.matrix.clone(), graph, item_entities))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_implicit_and_rated() {
        let li = parse_interactions("alice\tdune\nbob\tdune\t4.5\n\n# comment\n").unwrap();
        assert_eq!(li.matrix.num_users(), 2);
        assert_eq!(li.matrix.num_items(), 1);
        assert_eq!(li.matrix.num_interactions(), 2);
        assert_eq!(li.user_keys, vec!["alice", "bob"]);
        let r = li.matrix.ratings_of(UserId(1));
        assert_eq!(r[0], 4.5);
    }

    #[test]
    fn malformed_line_reported_with_number() {
        let err = parse_interactions("a\tb\nbroken line without tab\n").unwrap_err();
        match err {
            LoadError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_rating_reported() {
        let err = parse_interactions("a\tb\tnot_a_number\n").unwrap_err();
        assert!(matches!(err, LoadError::BadRating { line: 1, .. }));
    }

    #[test]
    fn non_finite_ratings_rejected() {
        for field in ["NaN", "nan", "inf", "-inf", "infinity", "1e40"] {
            let err = parse_interactions(&format!("a\tb\t4\nc\td\t{field}\n")).unwrap_err();
            match err {
                LoadError::BadRating { line, field: got } => {
                    assert_eq!((line, got.as_str()), (2, field));
                }
                other => panic!("{field}: unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn dataset_aligns_items_by_name() {
        let li = parse_interactions("alice\tdune\nalice\tsolaris\n").unwrap();
        let ds = parse_dataset(&li, "dune\tauthor\therbert\nsolaris\tauthor\tlem\n").unwrap();
        assert_eq!(ds.item_entities.len(), 2);
        let e = ds.entity_of(ItemId(0));
        assert_eq!(ds.graph.entity_name(e), "dune");
        // dune has an author edge (plus inverse).
        assert!(ds.graph.degree(e) >= 1);
    }

    #[test]
    fn items_missing_from_kg_get_isolated_entities() {
        let li = parse_interactions("alice\tdune\nalice\tobscure\n").unwrap();
        let ds = parse_dataset(&li, "dune\tauthor\therbert\n").unwrap();
        let e = ds.entity_of(ItemId(1));
        assert_eq!(ds.graph.entity_name(e), "obscure");
        assert_eq!(ds.graph.degree(e), 0);
    }

    #[test]
    fn triple_parse_error_propagates() {
        let li = parse_interactions("a\tb\n").unwrap();
        let err = parse_dataset(&li, "only\ttwo\n").unwrap_err();
        assert!(matches!(err, LoadError::Malformed { line: 1, .. }));
    }
}
