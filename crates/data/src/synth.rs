//! Synthetic dataset generators standing in for the corpora of Table 4.
//!
//! The real datasets (MovieLens, Book-Crossing, Last.FM, Amazon, Yelp,
//! Bing-News, Weibo) are not available offline, so each scenario is
//! simulated by a generator with a **planted topic model**:
//!
//! 1. every attribute value (genre, director, author, brand, …) is
//!    assigned a latent *topic*;
//! 2. every item draws a primary topic and picks attribute values mostly
//!    from that topic (`attribute_coherence` controls how strongly);
//! 3. every user draws a preference mixture over topics;
//! 4. interactions are sampled with probability increasing in the
//!    user-topic/item-topic match plus a Zipf popularity bias and noise.
//!
//! Consequently the generated knowledge graph *genuinely* carries the
//! signal the surveyed methods exploit: items sharing attribute values
//! share topics, and users prefer topically matching items. That is the
//! property required for the survey's qualitative claims (KG side
//! information helps, especially under sparsity) to be reproducible; see
//! `DESIGN.md` §2 for the substitution argument.
//!
//! All generators are deterministic given `(config, seed)`.

use crate::columnar::ColumnarBuilder;
use crate::dataset::KgDataset;
use crate::ids::{ItemId, UserId};
use crate::{Interaction, InteractionMatrix};
use kgrec_graph::{id32, EntityId, KgBuilder};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Specification of one attribute relation of the generated item KG.
#[derive(Debug, Clone)]
pub struct RelationSpec {
    /// Relation name (e.g. `"genre"`).
    pub name: String,
    /// Number of distinct attribute values (ignored for item–item
    /// relations).
    pub num_values: usize,
    /// Inclusive range of values attached per item.
    pub values_per_item: (usize, usize),
    /// When true the relation links items to *items* of the same topic
    /// (`also_bought` / `similar_to` style edges).
    pub item_item: bool,
}

impl RelationSpec {
    /// An item→attribute relation.
    pub(crate) fn attribute(name: &str, num_values: usize, min: usize, max: usize) -> Self {
        assert!(min <= max && max > 0, "RelationSpec: bad values_per_item range");
        Self { name: name.to_owned(), num_values, values_per_item: (min, max), item_item: false }
    }

    /// An item→item relation.
    pub(crate) fn item_item(name: &str, min: usize, max: usize) -> Self {
        assert!(min <= max && max > 0, "RelationSpec: bad values_per_item range");
        Self { name: name.to_owned(), num_values: 0, values_per_item: (min, max), item_item: true }
    }
}

/// Configuration of one synthetic scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Scenario name (matches a Table 4 row).
    pub name: String,
    /// Number of users `m`.
    pub num_users: usize,
    /// Number of items `n`.
    pub num_items: usize,
    /// Number of latent topics.
    pub num_topics: usize,
    /// Attribute / item-item relations of the item KG.
    pub relations: Vec<RelationSpec>,
    /// Mean interactions per user.
    pub mean_interactions_per_user: f64,
    /// Probability that an item attribute is drawn from the item's own
    /// topic rather than uniformly (the KG signal strength).
    pub attribute_coherence: f64,
    /// Weight of the topic match in the interaction probability (higher =
    /// preferences dominate popularity).
    pub preference_sharpness: f64,
    /// Zipf exponent of the item popularity bias (0 disables it).
    pub popularity_zipf: f64,
    /// Fraction of interactions that are uniformly random noise.
    pub noise: f64,
    /// Generate explicit 1–5 ratings (MovieLens style) when true.
    pub explicit_ratings: bool,
    /// Generate per-item token lists (news titles) with this many tokens
    /// per item when set.
    pub words_per_item: Option<usize>,
    /// Social links generated per user (0 = none). Friendships are biased
    /// (80%) toward users sharing the primary preference topic — the
    /// homophily the survey's §6 user-side-information direction relies
    /// on.
    pub social_links_per_user: usize,
}

/// The generated bundle: the dataset plus the planted ground truth, which
/// the test suites use to verify that the generator actually planted
/// signal.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Interactions + item KG + alignment.
    pub dataset: KgDataset,
    /// Planted primary topic of each item.
    pub item_topics: Vec<usize>,
    /// Planted preference mixture of each user (length `num_topics`,
    /// sums to 1).
    pub user_topic_weights: Vec<Vec<f32>>,
    /// The configuration that produced this dataset.
    pub config: ScenarioConfig,
}

/// Tokens per topic in generated vocabularies (news scenario).
const WORDS_PER_TOPIC: usize = 40;
/// Extra topic-neutral tokens (stopword stand-ins).
const SHARED_WORDS: usize = 60;

/// Generates a scenario deterministically from `(config, seed)`.
///
/// ```
/// use kgrec_data::synth::{generate, ScenarioConfig};
///
/// let synth = generate(&ScenarioConfig::tiny(), 42);
/// assert_eq!(synth.dataset.interactions.num_users(), 40);
/// assert!(synth.dataset.graph.num_triples() > 0);
/// // Same seed, same data.
/// let again = generate(&ScenarioConfig::tiny(), 42);
/// assert_eq!(synth.item_topics, again.item_topics);
/// ```
///
/// # Panics
/// Panics on degenerate configurations (zero users/items/topics).
pub fn generate(config: &ScenarioConfig, seed: u64) -> SyntheticDataset {
    assert!(config.num_users > 0, "generate: num_users must be positive");
    assert!(config.num_items > 0, "generate: num_items must be positive");
    assert!(config.num_topics > 0, "generate: num_topics must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let t = config.num_topics;

    // 1. Topic of every attribute value, per relation.
    let value_topics: Vec<Vec<usize>> = config
        .relations
        .iter()
        .map(|spec| {
            if spec.item_item {
                Vec::new()
            } else {
                (0..spec.num_values).map(|_| rng.gen_range(0..t)).collect()
            }
        })
        .collect();

    // 2. Item topics and attribute assignments.
    let item_topics: Vec<usize> = (0..config.num_items).map(|_| rng.gen_range(0..t)).collect();
    // Per relation, values grouped by topic for coherent sampling.
    let values_by_topic: Vec<Vec<Vec<usize>>> = value_topics
        .iter()
        .map(|vt| {
            let mut groups = vec![Vec::new(); t];
            for (v, &topic) in vt.iter().enumerate() {
                groups[topic].push(v);
            }
            groups
        })
        .collect();
    // Items grouped by topic (for item-item relations).
    let mut items_by_topic = vec![Vec::new(); t];
    for (j, &topic) in item_topics.iter().enumerate() {
        items_by_topic[topic].push(j);
    }

    // item_attrs[rel][item] = chosen value (or item) indices.
    let mut item_attrs: Vec<Vec<Vec<usize>>> =
        vec![vec![Vec::new(); config.num_items]; config.relations.len()];
    for (ri, spec) in config.relations.iter().enumerate() {
        for j in 0..config.num_items {
            let topic = item_topics[j];
            let k = rng.gen_range(spec.values_per_item.0..=spec.values_per_item.1);
            let mut chosen = Vec::with_capacity(k);
            for _ in 0..k {
                let coherent = rng.gen_bool(config.attribute_coherence);
                let v = if spec.item_item {
                    let pool: &[usize] = if coherent && items_by_topic[topic].len() > 1 {
                        &items_by_topic[topic]
                    } else {
                        &[]
                    };
                    let cand = if pool.is_empty() {
                        rng.gen_range(0..config.num_items)
                    } else {
                        pool[rng.gen_range(0..pool.len())]
                    };
                    if cand == j {
                        continue; // no self-loops
                    }
                    cand
                } else {
                    let pool = &values_by_topic[ri][topic];
                    if coherent && !pool.is_empty() {
                        pool[rng.gen_range(0..pool.len())]
                    } else if spec.num_values > 0 {
                        rng.gen_range(0..spec.num_values)
                    } else {
                        continue;
                    }
                };
                if !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            item_attrs[ri][j] = chosen;
        }
    }

    // 3. User preference mixtures: one or two dominant topics.
    let user_topic_weights: Vec<Vec<f32>> = (0..config.num_users)
        .map(|_| {
            let mut w = vec![0.05f32 / t as f32; t];
            let primary = rng.gen_range(0..t);
            w[primary] += 0.7;
            if t > 1 && rng.gen_bool(0.5) {
                let mut secondary = rng.gen_range(0..t);
                while secondary == primary {
                    secondary = rng.gen_range(0..t);
                }
                w[secondary] += 0.25;
            } else {
                w[primary] += 0.25;
            }
            let s: f32 = w.iter().sum();
            w.iter().map(|x| x / s).collect()
        })
        .collect();

    // 4. Popularity bias: Zipf over a random permutation of items.
    let mut pop_rank: Vec<usize> = (0..config.num_items).collect();
    for i in (1..pop_rank.len()).rev() {
        let j = rng.gen_range(0..=i);
        pop_rank.swap(i, j);
    }
    let mut popularity = vec![0.0f64; config.num_items];
    for (rank, &item) in pop_rank.iter().enumerate() {
        popularity[item] = 1.0 / ((rank + 1) as f64).powf(config.popularity_zipf);
    }
    let pop_max = popularity.iter().copied().fold(f64::MIN, f64::max);

    // 5. Interactions: weighted sampling without replacement per user.
    let mut interactions = Vec::new();
    let mut weights = vec![0.0f64; config.num_items];
    for u in 0..config.num_users {
        let n_target = {
            let jitter = 0.5 + rng.gen::<f64>();
            ((config.mean_interactions_per_user * jitter).round() as usize)
                .clamp(1, config.num_items.saturating_sub(1).max(1))
        };
        for (j, w) in weights.iter_mut().enumerate() {
            let affinity = f64::from(user_topic_weights[u][item_topics[j]]);
            let pop = if pop_max > 0.0 { popularity[j] / pop_max } else { 0.0 };
            *w = (config.preference_sharpness * affinity + pop).exp();
        }
        let mut total: f64 = weights.iter().sum();
        for _ in 0..n_target {
            let pick = if rng.gen_bool(config.noise) {
                // Uniform noise pick among remaining items.
                let mut k = rng.gen_range(0..config.num_items);
                let mut guard = 0;
                while weights[k] == 0.0 && guard < config.num_items {
                    k = (k + 1) % config.num_items;
                    guard += 1;
                }
                if weights[k] == 0.0 {
                    break;
                }
                k
            } else {
                if total <= 0.0 {
                    break;
                }
                let mut target = rng.gen::<f64>() * total;
                let mut k = 0;
                for (j, &w) in weights.iter().enumerate() {
                    target -= w;
                    if target <= 0.0 {
                        k = j;
                        break;
                    }
                    k = j;
                }
                k
            };
            total -= weights[pick];
            weights[pick] = 0.0;
            let user = UserId(id32(u));
            let item = ItemId(id32(pick));
            if config.explicit_ratings {
                let affinity = user_topic_weights[u][item_topics[pick]];
                let base = 2.5 + 3.0 * affinity + 0.5 * (rng.gen::<f32>() - 0.5);
                let rating = base.round().clamp(1.0, 5.0);
                interactions.push(Interaction::rated(user, item, rating));
            } else {
                interactions.push(Interaction::implicit(user, item));
            }
        }
    }
    let matrix =
        InteractionMatrix::from_interactions(config.num_users, config.num_items, &interactions);

    // 6. Knowledge graph.
    let mut b = KgBuilder::new();
    let item_ty = b.entity_type("item");
    let item_entities: Vec<EntityId> =
        (0..config.num_items).map(|j| b.entity(&format!("item:{j}"), item_ty)).collect();
    for (ri, spec) in config.relations.iter().enumerate() {
        let rel = b.relation(&spec.name);
        if spec.item_item {
            for j in 0..config.num_items {
                for &other in &item_attrs[ri][j] {
                    b.triple(item_entities[j], rel, item_entities[other]);
                }
            }
        } else {
            let val_ty = b.entity_type(&spec.name);
            let value_entities: Vec<EntityId> = (0..spec.num_values)
                .map(|v| b.entity(&format!("{}:{v}", spec.name), val_ty))
                .collect();
            for j in 0..config.num_items {
                for &v in &item_attrs[ri][j] {
                    b.triple(item_entities[j], rel, value_entities[v]);
                }
            }
        }
    }
    let graph = b.build(true);

    let mut dataset = KgDataset::new(matrix, graph, item_entities);

    // 7. Optional token lists (news titles).
    if let Some(words) = config.words_per_item {
        let vocab = t * WORDS_PER_TOPIC + SHARED_WORDS;
        let lists: Vec<Vec<u32>> = (0..config.num_items)
            .map(|j| {
                let topic = item_topics[j];
                (0..words)
                    .map(|_| {
                        if rng.gen_bool(0.6) {
                            id32(topic * WORDS_PER_TOPIC + rng.gen_range(0..WORDS_PER_TOPIC))
                        } else {
                            id32(t * WORDS_PER_TOPIC + rng.gen_range(0..SHARED_WORDS))
                        }
                    })
                    .collect()
            })
            .collect();
        dataset = dataset.with_item_words(lists, vocab);
    }

    // 8. Optional social links (survey §6 extension).
    if config.social_links_per_user > 0 {
        let primary: Vec<usize> = user_topic_weights
            .iter()
            .map(|w| {
                w.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map_or(0, |(i, _)| i)
            })
            .collect();
        let mut users_by_topic = vec![Vec::new(); t];
        for (u, &p) in primary.iter().enumerate() {
            users_by_topic[p].push(u);
        }
        let mut links = Vec::new();
        for u in 0..config.num_users {
            for _ in 0..config.social_links_per_user {
                let friend = if rng.gen_bool(0.8) && users_by_topic[primary[u]].len() > 1 {
                    let pool = &users_by_topic[primary[u]];
                    pool[rng.gen_range(0..pool.len())]
                } else {
                    rng.gen_range(0..config.num_users)
                };
                if friend != u {
                    links.push((UserId(id32(u)), UserId(id32(friend))));
                }
            }
        }
        dataset = dataset.with_social_links(links);
    }

    SyntheticDataset { dataset, item_topics, user_topic_weights, config: config.clone() }
}

/// Streamed variant of [`generate`] for the scale scenarios (`huge` and
/// its smoke reduction): interactions are pushed straight into a
/// `ColumnarBuilder` — no intermediate [`Interaction`] list — and each
/// user's sampling work is `O(history)` instead of the dense generator's
/// `O(num_items)` weight scan, so a million-user scenario generates in
/// seconds within a bounded memory envelope.
///
/// The planted topic model is the same in spirit (coherent item
/// attributes, users preferring one or two topics, Zipf popularity bias,
/// uniform noise), but the sampling scheme differs from [`generate`], so
/// the two generators are **not** interchangeable for a fixed seed — the
/// regular scenarios keep using [`generate`] and their golden transcripts.
/// Per-user preference mixtures are derived on the fly and not stored:
/// `user_topic_weights` comes back empty. `words_per_item` and
/// `social_links_per_user` are not supported at scale and must be unset.
///
/// Every interaction carries a monotone synthetic timestamp (its global
/// emission index), exercising the timestamp column end-to-end.
///
/// # Panics
/// Panics on degenerate configurations or when word/social generation is
/// requested.
pub fn generate_streaming(config: &ScenarioConfig, seed: u64) -> SyntheticDataset {
    assert!(config.num_users > 0, "generate_streaming: num_users must be positive");
    assert!(config.num_items > 0, "generate_streaming: num_items must be positive");
    assert!(config.num_topics > 0, "generate_streaming: num_topics must be positive");
    assert!(
        config.words_per_item.is_none() && config.social_links_per_user == 0,
        "generate_streaming: words/social are not supported at scale"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let t = config.num_topics;

    // 1–2. Attribute-value and item topics, exactly like `generate`.
    let value_topics: Vec<Vec<usize>> = config
        .relations
        .iter()
        .map(|spec| {
            if spec.item_item {
                Vec::new()
            } else {
                (0..spec.num_values).map(|_| rng.gen_range(0..t)).collect()
            }
        })
        .collect();
    let item_topics: Vec<usize> = (0..config.num_items).map(|_| rng.gen_range(0..t)).collect();
    let values_by_topic: Vec<Vec<Vec<usize>>> = value_topics
        .iter()
        .map(|vt| {
            let mut groups = vec![Vec::new(); t];
            for (v, &topic) in vt.iter().enumerate() {
                groups[topic].push(v);
            }
            groups
        })
        .collect();
    let mut items_by_topic = vec![Vec::new(); t];
    for (j, &topic) in item_topics.iter().enumerate() {
        items_by_topic[topic].push(j);
    }

    // 3. Popularity: Zipf rank over a random permutation, then each topic
    // pool sorted most-popular-first so a power-law index draw inside the
    // pool reproduces the bias without per-item weights.
    let mut pop_rank = vec![0usize; config.num_items];
    {
        let mut perm: Vec<usize> = (0..config.num_items).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for (rank, &item) in perm.iter().enumerate() {
            pop_rank[item] = rank;
        }
    }
    for pool in &mut items_by_topic {
        pool.sort_by_key(|&j| pop_rank[j]);
    }

    // 4. Interactions, streamed user-major into the columnar builder.
    let mut builder = ColumnarBuilder::new(config.num_users, config.num_items);
    builder.reserve((config.mean_interactions_per_user * config.num_users as f64) as usize);
    // Power-law index exponent: larger Zipf ⇒ draws concentrate at the
    // popular head of each pool.
    let bias = 1.0 + config.popularity_zipf;
    let mut emitted = 0u64;
    let mut history: Vec<usize> = Vec::new();
    for u in 0..config.num_users {
        let primary = rng.gen_range(0..t);
        let secondary = if t > 1 && rng.gen_bool(0.5) {
            let mut s = rng.gen_range(0..t);
            while s == primary {
                s = rng.gen_range(0..t);
            }
            Some(s)
        } else {
            None
        };
        let n_target = {
            let jitter = 0.5 + rng.gen::<f64>();
            ((config.mean_interactions_per_user * jitter).round() as usize)
                .clamp(1, config.num_items.saturating_sub(1).max(1))
        };
        history.clear();
        let mut attempts = 0usize;
        let cap = n_target * 10 + 20;
        while history.len() < n_target && attempts < cap {
            attempts += 1;
            let pick = if rng.gen_bool(config.noise) {
                rng.gen_range(0..config.num_items)
            } else {
                // 70% primary topic, 25% secondary (primary when absent),
                // 5% uniform topic — mirroring the dense mixture weights.
                let roll: f64 = rng.gen();
                let topic = if roll < 0.70 {
                    primary
                } else if roll < 0.95 {
                    secondary.unwrap_or(primary)
                } else {
                    rng.gen_range(0..t)
                };
                let pool = &items_by_topic[topic];
                if pool.is_empty() {
                    rng.gen_range(0..config.num_items)
                } else {
                    let r: f64 = rng.gen();
                    pool[((pool.len() as f64 * r.powf(bias)) as usize).min(pool.len() - 1)]
                }
            };
            if !history.contains(&pick) {
                history.push(pick);
            }
        }
        history.sort_unstable();
        for &j in &history {
            let rating = if config.explicit_ratings {
                let affinity: f32 = if item_topics[j] == primary {
                    0.75
                } else if Some(item_topics[j]) == secondary {
                    0.25
                } else {
                    0.05
                };
                let base = 2.5 + 3.0 * affinity + 0.5 * (rng.gen::<f32>() - 0.5);
                Some(base.round().clamp(1.0, 5.0))
            } else {
                None
            };
            builder.push(UserId(id32(u)), ItemId(id32(j)), rating, Some(emitted));
            emitted += 1;
        }
    }
    let matrix = builder.finish();

    // 5. Knowledge graph: same planted-attribute scheme as `generate`,
    // with attributes drawn per item on the fly.
    let mut b = KgBuilder::new();
    let item_ty = b.entity_type("item");
    let item_entities: Vec<EntityId> =
        (0..config.num_items).map(|j| b.entity(&format!("item:{j}"), item_ty)).collect();
    for (ri, spec) in config.relations.iter().enumerate() {
        let rel = b.relation(&spec.name);
        let value_entities: Vec<EntityId> = if spec.item_item {
            Vec::new()
        } else {
            let val_ty = b.entity_type(&spec.name);
            (0..spec.num_values).map(|v| b.entity(&format!("{}:{v}", spec.name), val_ty)).collect()
        };
        for j in 0..config.num_items {
            let topic = item_topics[j];
            let k = rng.gen_range(spec.values_per_item.0..=spec.values_per_item.1);
            let mut chosen: Vec<usize> = Vec::with_capacity(k);
            for _ in 0..k {
                let coherent = rng.gen_bool(config.attribute_coherence);
                let v = if spec.item_item {
                    let pool: &[usize] = if coherent && items_by_topic[topic].len() > 1 {
                        &items_by_topic[topic]
                    } else {
                        &[]
                    };
                    let cand = if pool.is_empty() {
                        rng.gen_range(0..config.num_items)
                    } else {
                        pool[rng.gen_range(0..pool.len())]
                    };
                    if cand == j {
                        continue; // no self-loops
                    }
                    cand
                } else {
                    let pool = &values_by_topic[ri][topic];
                    if coherent && !pool.is_empty() {
                        pool[rng.gen_range(0..pool.len())]
                    } else if spec.num_values > 0 {
                        rng.gen_range(0..spec.num_values)
                    } else {
                        continue;
                    }
                };
                if !chosen.contains(&v) {
                    chosen.push(v);
                }
            }
            for &v in &chosen {
                let tail = if spec.item_item { item_entities[v] } else { value_entities[v] };
                b.triple(item_entities[j], rel, tail);
            }
        }
    }
    let graph = b.build(true);
    let dataset = KgDataset::new(matrix, graph, item_entities);

    SyntheticDataset {
        dataset,
        item_topics,
        user_topic_weights: Vec::new(),
        config: config.clone(),
    }
}

impl ScenarioConfig {
    /// Returns a copy that also generates `n` homophilous social links
    /// per user (survey §6: user side information).
    pub fn with_social_links(&self, n: usize) -> Self {
        let mut c = self.clone();
        c.social_links_per_user = n;
        c.name = format!("{}+social", self.name);
        c
    }

    /// Returns a copy with the mean interaction count scaled by `factor`
    /// (the sparsity knob used by the evaluation suite).
    pub fn with_sparsity_factor(&self, factor: f64) -> Self {
        let mut c = self.clone();
        c.mean_interactions_per_user = (self.mean_interactions_per_user * factor).max(1.0);
        c.name = format!("{}(x{:.2})", self.name, factor);
        c
    }

    /// MovieLens-100K-like: dense explicit-rating movie data. Scaled to
    /// laptop size (~1/3 of the users, ~1/3 of the items; same density
    /// regime).
    pub fn movielens_100k_like() -> Self {
        Self {
            name: "movielens-100k-like".into(),
            num_users: 300,
            num_items: 500,
            num_topics: 10,
            relations: vec![
                RelationSpec::attribute("genre", 18, 1, 3),
                RelationSpec::attribute("director", 170, 1, 1),
                RelationSpec::attribute("actor", 300, 2, 3),
                RelationSpec::attribute("decade", 10, 1, 1),
            ],
            mean_interactions_per_user: 40.0,
            attribute_coherence: 0.8,
            preference_sharpness: 6.0,
            popularity_zipf: 0.8,
            noise: 0.1,
            explicit_ratings: true,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// MovieLens-1M-like: the same regime, larger.
    pub fn movielens_1m_like() -> Self {
        let mut c = Self::movielens_100k_like();
        c.name = "movielens-1m-like".into();
        c.num_users = 800;
        c.num_items = 1200;
        c.mean_interactions_per_user = 60.0;
        c.relations = vec![
            RelationSpec::attribute("genre", 18, 1, 3),
            RelationSpec::attribute("director", 400, 1, 1),
            RelationSpec::attribute("actor", 700, 2, 3),
            RelationSpec::attribute("decade", 10, 1, 1),
        ];
        c
    }

    /// Book-Crossing-like: very sparse implicit book feedback.
    pub fn book_crossing_like() -> Self {
        Self {
            name: "book-crossing-like".into(),
            num_users: 400,
            num_items: 800,
            num_topics: 12,
            relations: vec![
                RelationSpec::attribute("author", 400, 1, 1),
                RelationSpec::attribute("publisher", 80, 1, 1),
                RelationSpec::attribute("genre", 12, 1, 2),
            ],
            mean_interactions_per_user: 8.0,
            attribute_coherence: 0.85,
            preference_sharpness: 6.0,
            popularity_zipf: 1.0,
            noise: 0.15,
            explicit_ratings: false,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// Last.FM-like: music listening with artist-artist similarity edges.
    pub fn lastfm_like() -> Self {
        Self {
            name: "lastfm-like".into(),
            num_users: 300,
            num_items: 600,
            num_topics: 15,
            relations: vec![
                RelationSpec::attribute("genre", 15, 1, 2),
                RelationSpec::attribute("country", 20, 1, 1),
                RelationSpec::item_item("similar_artist", 1, 3),
            ],
            mean_interactions_per_user: 25.0,
            attribute_coherence: 0.8,
            preference_sharpness: 6.0,
            popularity_zipf: 1.1,
            noise: 0.1,
            explicit_ratings: false,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// Amazon-product-like: e-commerce with co-purchase edges.
    pub fn amazon_product_like() -> Self {
        Self {
            name: "amazon-product-like".into(),
            num_users: 500,
            num_items: 1000,
            num_topics: 20,
            relations: vec![
                RelationSpec::attribute("brand", 200, 1, 1),
                RelationSpec::attribute("category", 25, 1, 2),
                RelationSpec::item_item("also_bought", 1, 4),
            ],
            mean_interactions_per_user: 12.0,
            attribute_coherence: 0.85,
            preference_sharpness: 6.0,
            popularity_zipf: 1.0,
            noise: 0.12,
            explicit_ratings: false,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// Yelp-like: POI check-ins.
    pub fn yelp_like() -> Self {
        Self {
            name: "yelp-like".into(),
            num_users: 400,
            num_items: 700,
            num_topics: 14,
            relations: vec![
                RelationSpec::attribute("city", 30, 1, 1),
                RelationSpec::attribute("category", 40, 1, 3),
            ],
            mean_interactions_per_user: 15.0,
            attribute_coherence: 0.8,
            preference_sharpness: 5.0,
            popularity_zipf: 0.9,
            noise: 0.15,
            explicit_ratings: false,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// Bing-News-like: news clicks with entity mentions and token titles.
    pub fn bing_news_like() -> Self {
        Self {
            name: "bing-news-like".into(),
            num_users: 300,
            num_items: 800,
            num_topics: 12,
            relations: vec![RelationSpec::attribute("mentions", 240, 1, 4)],
            mean_interactions_per_user: 20.0,
            attribute_coherence: 0.85,
            preference_sharpness: 6.0,
            popularity_zipf: 1.2,
            noise: 0.1,
            explicit_ratings: false,
            words_per_item: Some(8),
            social_links_per_user: 0,
        }
    }

    /// Weibo-like: celebrity following on a social platform.
    pub fn weibo_like() -> Self {
        Self {
            name: "weibo-like".into(),
            num_users: 200,
            num_items: 300,
            num_topics: 8,
            relations: vec![
                RelationSpec::attribute("occupation", 20, 1, 1),
                RelationSpec::attribute("organization", 50, 1, 1),
            ],
            mean_interactions_per_user: 10.0,
            attribute_coherence: 0.8,
            preference_sharpness: 5.0,
            popularity_zipf: 1.3,
            noise: 0.1,
            explicit_ratings: false,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// A miniature configuration for unit tests: fast to generate and
    /// train against.
    pub fn tiny() -> Self {
        Self {
            name: "tiny".into(),
            num_users: 40,
            num_items: 60,
            num_topics: 4,
            relations: vec![
                RelationSpec::attribute("genre", 8, 1, 2),
                RelationSpec::attribute("maker", 20, 1, 1),
            ],
            mean_interactions_per_user: 10.0,
            attribute_coherence: 0.9,
            preference_sharpness: 7.0,
            popularity_zipf: 0.8,
            noise: 0.05,
            explicit_ratings: false,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// The million-user scale scenario: 1M users, 100K items, ~10M
    /// interactions, a ~100K-entity item KG. Only valid with
    /// [`generate_streaming`] — the dense generator's per-user item scan
    /// would take `O(users × items)` time and its interaction list alone
    /// would dwarf the columnar store. Exercised by `scale_bench`, which
    /// also states and enforces the memory budget (see `DESIGN.md` §13).
    pub fn huge() -> Self {
        Self {
            name: "huge".into(),
            num_users: 1_000_000,
            num_items: 100_000,
            num_topics: 32,
            relations: vec![
                RelationSpec::attribute("genre", 64, 1, 2),
                RelationSpec::attribute("brand", 2000, 1, 1),
                RelationSpec::attribute("category", 128, 1, 1),
            ],
            mean_interactions_per_user: 10.0,
            attribute_coherence: 0.85,
            preference_sharpness: 6.0,
            popularity_zipf: 1.0,
            noise: 0.05,
            explicit_ratings: false,
            words_per_item: None,
            social_links_per_user: 0,
        }
    }

    /// CI-sized reduction of [`Self::huge`] (50× fewer users, 20× fewer
    /// items, same density regime and relation shape) so every push can
    /// run the scale drill in seconds; the full configuration stays
    /// behind the nightly flag.
    pub fn huge_smoke() -> Self {
        let mut c = Self::huge();
        c.name = "huge-smoke".into();
        c.num_users = 20_000;
        c.num_items = 5_000;
        c.relations = vec![
            RelationSpec::attribute("genre", 64, 1, 2),
            RelationSpec::attribute("brand", 200, 1, 1),
            RelationSpec::attribute("category", 64, 1, 1),
        ];
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = ScenarioConfig::tiny();
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a.item_topics, b.item_topics);
        assert_eq!(
            a.dataset.interactions.num_interactions(),
            b.dataset.interactions.num_interactions()
        );
        let ia: Vec<_> = a.dataset.interactions.iter().map(|(u, i, _)| (u, i)).collect();
        let ib: Vec<_> = b.dataset.interactions.iter().map(|(u, i, _)| (u, i)).collect();
        assert_eq!(ia, ib);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ScenarioConfig::tiny();
        let a = generate(&cfg, 1);
        let b = generate(&cfg, 2);
        let ia: Vec<_> = a.dataset.interactions.iter().map(|(u, i, _)| (u, i)).collect();
        let ib: Vec<_> = b.dataset.interactions.iter().map(|(u, i, _)| (u, i)).collect();
        assert_ne!(ia, ib);
    }

    #[test]
    fn every_user_has_history() {
        let d = generate(&ScenarioConfig::tiny(), 3);
        for u in 0..d.config.num_users {
            assert!(d.dataset.interactions.user_degree(UserId(u as u32)) >= 1, "user {u}");
        }
    }

    #[test]
    fn graph_aligns_items() {
        let d = generate(&ScenarioConfig::tiny(), 4);
        assert_eq!(d.dataset.item_entities.len(), d.config.num_items);
        // Each item entity has at least one attribute edge (>= 1 genre).
        let g = &d.dataset.graph;
        for &e in &d.dataset.item_entities {
            assert!(g.degree(e) >= 1, "item entity {e} isolated");
        }
    }

    #[test]
    fn planted_signal_users_prefer_their_topics() {
        // The average planted affinity of interacted items must clearly
        // beat the affinity of random items — otherwise no recommender
        // could learn anything from this generator.
        let d = generate(&ScenarioConfig::tiny(), 5);
        let m = &d.dataset.interactions;
        let mut hit = 0.0f64;
        let mut count = 0usize;
        for u in 0..d.config.num_users {
            for &item in m.items_of(UserId(u as u32)) {
                hit += f64::from(d.user_topic_weights[u][d.item_topics[item.index()]]);
                count += 1;
            }
        }
        let mean_hit = hit / count as f64;
        // Baseline: expected affinity of a random item = mean weight = 1/T.
        let baseline = 1.0 / d.config.num_topics as f64;
        assert!(
            mean_hit > 2.0 * baseline,
            "planted signal too weak: {mean_hit} vs baseline {baseline}"
        );
    }

    #[test]
    fn explicit_ratings_in_range() {
        let d = generate(&ScenarioConfig::movielens_100k_like(), 6);
        for (_, _, r) in d.dataset.interactions.iter() {
            assert!((1.0..=5.0).contains(&r), "rating {r}");
        }
    }

    #[test]
    fn news_scenario_generates_words() {
        let d = generate(&ScenarioConfig::bing_news_like(), 7);
        let words = d.dataset.item_words.as_ref().expect("news has words");
        assert_eq!(words.len(), d.config.num_items);
        assert!(d.dataset.vocab_size > 0);
        for list in words {
            assert!(list.iter().all(|&w| (w as usize) < d.dataset.vocab_size));
        }
    }

    #[test]
    fn item_item_relations_have_no_self_loops() {
        let d = generate(&ScenarioConfig::lastfm_like(), 8);
        let g = &d.dataset.graph;
        let rel = g.relation_by_name("similar_artist").unwrap();
        for t in g.iter_triples() {
            if t.rel == rel {
                assert_ne!(t.head, t.tail);
            }
        }
    }

    #[test]
    fn streaming_generator_is_deterministic_and_sound() {
        let cfg = ScenarioConfig::tiny();
        let a = generate_streaming(&cfg, 42);
        let b = generate_streaming(&cfg, 42);
        assert_eq!(a.dataset.interactions.digest(), b.dataset.interactions.digest());
        assert_eq!(a.item_topics, b.item_topics);
        assert!(a.dataset.interactions.validate().is_empty());
        assert!(a.user_topic_weights.is_empty(), "mixtures are not stored at scale");
        let c = generate_streaming(&cfg, 43);
        assert_ne!(a.dataset.interactions.digest(), c.dataset.interactions.digest());
    }

    #[test]
    fn streaming_generator_covers_users_and_stamps_rows() {
        let d = generate_streaming(&ScenarioConfig::tiny(), 7);
        let m = &d.dataset.interactions;
        let mut last_stamp = None;
        for u in 0..d.config.num_users {
            let user = UserId(u as u32);
            assert!(m.user_degree(user) >= 1, "user {u} has no history");
            let stamps = m.timestamps_of(user);
            for ts in stamps.iter() {
                assert_ne!(ts, crate::columnar::NO_TIMESTAMP);
            }
            // User-major emission: stamps grow across the store when read
            // user by user (within-user order is by item, so only the
            // per-user minimum is compared across users).
            let lo = stamps.iter().min().expect("nonempty history");
            if let Some(prev) = last_stamp {
                assert!(lo > prev);
            }
            last_stamp = stamps.iter().max();
        }
        // KG aligned and attribute-bearing, like the dense generator.
        assert_eq!(d.dataset.item_entities.len(), d.config.num_items);
        for &e in &d.dataset.item_entities {
            assert!(d.dataset.graph.degree(e) >= 1, "item entity {e} isolated");
        }
    }

    #[test]
    fn streaming_generator_plants_popularity_skew() {
        // With Zipf bias the most popular decile must absorb well more
        // than a uniform share of interactions.
        let d = generate_streaming(&ScenarioConfig::tiny(), 11);
        let pop = d.dataset.interactions.item_popularity();
        let mut sorted = pop.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = sorted.iter().sum();
        let head: usize = sorted.iter().take(sorted.len() / 10).sum();
        assert!(
            head as f64 > 0.2 * total as f64,
            "top decile only got {head}/{total} interactions"
        );
    }

    #[test]
    fn sparsity_factor_scales_interactions() {
        let cfg = ScenarioConfig::tiny();
        let dense = generate(&cfg, 9);
        let sparse = generate(&cfg.with_sparsity_factor(0.3), 9);
        assert!(
            sparse.dataset.interactions.num_interactions()
                < dense.dataset.interactions.num_interactions() / 2
        );
    }

    #[test]
    fn social_links_are_homophilous() {
        let cfg = ScenarioConfig::tiny().with_social_links(3);
        let d = generate(&cfg, 12);
        let links = d.dataset.social_links.as_ref().expect("links generated");
        assert!(!links.is_empty());
        let primary = |u: UserId| {
            d.user_topic_weights[u.index()]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap()
        };
        let same = links.iter().filter(|&&(a, b)| primary(a) == primary(b)).count();
        // 80% homophily bias: well over half the links share a topic.
        assert!(same * 2 > links.len(), "only {same}/{} links homophilous", links.len());
        // No self-links.
        assert!(links.iter().all(|&(a, b)| a != b));
    }

    #[test]
    fn presets_all_generate() {
        for cfg in [
            ScenarioConfig::book_crossing_like(),
            ScenarioConfig::yelp_like(),
            ScenarioConfig::weibo_like(),
        ] {
            let d = generate(&cfg, 10);
            assert!(d.dataset.interactions.num_interactions() > 0);
            assert!(d.dataset.graph.num_triples() > 0);
        }
    }
}
