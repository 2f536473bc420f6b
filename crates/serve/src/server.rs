//! The long-running serving state: live data, live model, cache, and the
//! mutation protocols (ingest, hot reload) that keep them coherent.

use crate::cache::TopKCache;
use crate::index::ServeIndex;
use crate::pipeline::{candidates_for, rank_candidates, serve_score};
use crate::scratch::ServeScratch;
use kgrec_core::supervisor::probe_grid;
use kgrec_core::FitStatus;
use kgrec_data::{Interaction, InteractionMatrix, KgDataset, UserId};
use kgrec_kge::KgeModel;
use kgrec_store::{CheckpointStore, Persistable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A model that can be served: scorable as a KGE backend and restorable
/// from a [`CheckpointStore`] snapshot.
///
/// The explicit accessor methods stand in for trait upcasting so a
/// `Box<dyn ServedModel>` can be handed to both the scoring pipeline
/// (`&dyn KgeModel`) and the store (`&mut dyn Persistable`).
pub trait ServedModel: Send + Sync {
    /// The model as a scoring backend.
    fn as_kge(&self) -> &dyn KgeModel;
    /// The model as a snapshot target.
    fn as_persistable(&self) -> &dyn Persistable;
    /// Mutable snapshot target, for restore-into loading.
    fn as_persistable_mut(&mut self) -> &mut dyn Persistable;
}

impl<T: KgeModel + Persistable + Send + Sync> ServedModel for T {
    fn as_kge(&self) -> &dyn KgeModel {
        self
    }
    fn as_persistable(&self) -> &dyn Persistable {
        self
    }
    fn as_persistable_mut(&mut self) -> &mut dyn Persistable {
        self
    }
}

/// Serving configuration: result size, retrieval caps, cache shape, and
/// reload-probe grid.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Results returned per request.
    pub k: usize,
    /// History window used for expansion and profile building: the
    /// `max_history` highest item ids of the user's history (histories
    /// are kept sorted by item id, so this is not a recency window).
    pub max_history: usize,
    /// Items taken per shared-attribute entity in stage 1.
    pub max_attr_items: usize,
    /// Co-visiting users examined per history item.
    pub max_covisit_users: usize,
    /// Items taken per co-visiting user.
    pub max_covisit_items: usize,
    /// Stage-1 candidate budget (stage-2 work is bounded by this).
    pub max_candidates: usize,
    /// Total cached users (0 disables the cache).
    pub cache_capacity: usize,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Users in the reload validation probe grid.
    pub probe_users: usize,
    /// Items in the reload validation probe grid.
    pub probe_items: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            k: 10,
            max_history: 16,
            max_attr_items: 32,
            max_covisit_users: 8,
            max_covisit_items: 16,
            max_candidates: 256,
            cache_capacity: 4096,
            cache_shards: 16,
            probe_users: 8,
            probe_items: 16,
        }
    }
}

/// What a [`Server::reload`] attempt did, in the training supervisor's
/// vocabulary: `Ok` — newest generation loaded, probed finite, swapped
/// in; `Retried` — same, but the store fell back past unusable
/// generations first; `Degraded` — the candidate was rejected (load
/// error, a dimension other than the serving model's, fewer entities
/// than the graph, non-finite probe score, or a panic while probing) and
/// the previous model kept serving.
#[derive(Debug)]
pub struct ReloadOutcome {
    /// Supervisor-style status label for reports.
    pub status: FitStatus,
    /// Checkpoint generation now serving (`None` when rejected).
    pub generation: Option<u64>,
    /// Generations the store skipped as unusable before succeeding.
    pub skipped: usize,
    /// Human-readable rejection/fallback detail.
    pub reason: Option<String>,
}

/// Live interaction-side state, swapped wholesale by [`Server::ingest`].
#[derive(Debug)]
struct LiveData {
    interactions: Arc<InteractionMatrix>,
    /// Item ids, most popular first (count desc, id asc) — the stage-1
    /// fill order.
    pop_order: Arc<Vec<u32>>,
}

/// The served model plus the checkpoint generation it came from.
struct ModelState {
    model: Box<dyn ServedModel>,
    generation: u64,
}

/// The online serving engine. See the crate docs for the architecture.
///
/// All methods take `&self`: requests run concurrently from many worker
/// threads; [`Server::ingest`] and [`Server::reload`] are internally
/// serialized and publish their changes with a swap-then-bump protocol
/// (install the new state, then release-bump the generation counters),
/// so readers that observe a bumped counter are guaranteed to observe
/// the new state too.
pub struct Server {
    index: ServeIndex,
    live: RwLock<LiveData>,
    model: RwLock<Arc<ModelState>>,
    cache: TopKCache,
    /// Per-user data generation; bumped by `ingest` for touched users.
    user_gens: Vec<AtomicU64>,
    /// Global model generation; bumped by every successful `reload`.
    model_gen: AtomicU64,
    /// Serializes ingests (append is read-copy-update, not commutative).
    ingest_lock: Mutex<()>,
    config: ServeConfig,
}

impl Server {
    /// Builds a server from a dataset and an initial model. The live
    /// store's item-major index is built here, so stage 1 never builds it.
    ///
    /// # Panics
    /// If `config.k` is 0 or exceeds 255, or if the model's entity space
    /// is smaller than the dataset's graph.
    pub fn new(dataset: KgDataset, model: Box<dyn ServedModel>, config: ServeConfig) -> Self {
        let KgDataset { interactions, graph, item_entities, .. } = dataset;
        assert!(
            model.as_kge().num_entities() >= graph.num_entities(),
            "model covers {} entities, graph has {}",
            model.as_kge().num_entities(),
            graph.num_entities()
        );
        let num_users = interactions.num_users();
        interactions.build_item_index();
        let pop_order = popularity_order(&interactions);
        let index = ServeIndex::build(graph, item_entities);
        let cache = TopKCache::new(config.cache_capacity, config.cache_shards, config.k);
        let mut user_gens = Vec::with_capacity(num_users);
        user_gens.resize_with(num_users, || AtomicU64::new(0));
        Self {
            index,
            live: RwLock::new(LiveData {
                interactions: Arc::new(interactions),
                pop_order: Arc::new(pop_order),
            }),
            model: RwLock::new(Arc::new(ModelState { model, generation: 0 })),
            cache,
            user_gens,
            model_gen: AtomicU64::new(0),
            ingest_lock: Mutex::new(()),
            config,
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The static retrieval index.
    pub fn index(&self) -> &ServeIndex {
        &self.index
    }

    /// Users the server was sized for.
    pub fn num_users(&self) -> usize {
        self.user_gens.len()
    }

    /// A scratch arena sized for this server's current model and caps.
    pub fn make_scratch(&self) -> ServeScratch {
        let dim = self.model.read().expect("model lock poisoned").model.as_kge().dim();
        ServeScratch::new(self.index.num_items(), dim, self.config.max_candidates, self.config.k)
    }

    /// A snapshot of the live interaction matrix (tests and benches).
    pub fn interactions(&self) -> Arc<InteractionMatrix> {
        Arc::clone(&self.live.read().expect("live lock poisoned").interactions)
    }

    /// Checkpoint generation of the model currently serving.
    pub fn model_generation(&self) -> u64 {
        self.model.read().expect("model lock poisoned").generation
    }

    /// Answers one request: the ranked top-K lands in `scratch`
    /// ([`ServeScratch::top_k`]). Returns `true` on a cache hit.
    ///
    /// Request path (SA008): allocation-free after scratch warm-up.
    pub fn serve(&self, user: UserId, scratch: &mut ServeScratch) -> bool {
        let user_gen = self.user_gens[user.index()].load(Ordering::Acquire);
        let model_gen = self.model_gen.load(Ordering::Acquire);
        if self.cache.lookup(user, user_gen, model_gen, &mut scratch.out) {
            return true;
        }
        self.compute_fresh(user, scratch);
        self.cache.insert(user, user_gen, model_gen, &scratch.out);
        false
    }

    /// Runs the full two-stage pipeline, bypassing the cache entirely
    /// (no lookup, no fill). The uncached baseline for benches and the
    /// reference for staleness tests.
    pub fn compute_fresh(&self, user: UserId, scratch: &mut ServeScratch) {
        let (interactions, pop_order) = {
            let live = self.live.read().expect("live lock poisoned");
            (Arc::clone(&live.interactions), Arc::clone(&live.pop_order))
        };
        let state = Arc::clone(&self.model.read().expect("model lock poisoned"));
        candidates_for(&self.index, &interactions, &pop_order, user, &self.config, scratch);
        rank_candidates(
            &self.index,
            state.model.as_kge(),
            &interactions,
            user,
            &self.config,
            scratch,
        );
    }

    /// Appends an interaction batch to the live matrix and invalidates
    /// the touched users' cache entries. The new matrix's item-major index
    /// is built before it is published.
    ///
    /// Publication order is the staleness-safety invariant: the new
    /// matrix (and its popularity order) is installed *first*, then each
    /// touched user's generation is release-bumped — a reader that
    /// observes the bumped generation therefore observes the appended
    /// data, so it can never cache a stale result under a current stamp.
    ///
    /// # Panics
    /// If the batch references users or items outside the matrix's id
    /// space (the columnar store's `append` contract).
    pub fn ingest(&self, batch: &[Interaction]) {
        if batch.is_empty() {
            return;
        }
        let _serialize = self.ingest_lock.lock().expect("ingest lock poisoned");
        let current = Arc::clone(&self.live.read().expect("live lock poisoned").interactions);
        let appended = current.append(batch);
        appended.build_item_index();
        let pop_order = Arc::new(popularity_order(&appended));
        {
            let mut live = self.live.write().expect("live lock poisoned");
            live.interactions = Arc::new(appended);
            live.pop_order = pop_order;
        }
        for interaction in batch {
            self.user_gens[interaction.user.index()].fetch_add(1, Ordering::Release);
        }
    }

    /// Hot-reloads the served model from `store` without stopping
    /// serving.
    ///
    /// `fresh` must be a factory-fresh model of the expected shape (the
    /// restore-into contract); the store's recovery chain picks the
    /// newest usable generation. Before the swap the candidate must have
    /// the serving model's dimension and a row for every graph entity,
    /// and is then validated through the *serving* scorer on a deterministic
    /// `probe_users × probe_items` grid under panic isolation — the same
    /// degraded/failed semantics the training supervisor applies after
    /// `fit`. Any rejection leaves the previous model serving and the
    /// cache untouched; a successful swap release-bumps the model
    /// generation, invalidating every cached entry at once.
    pub fn reload(
        &self,
        store: &CheckpointStore,
        mut fresh: Box<dyn ServedModel>,
    ) -> ReloadOutcome {
        let recovery = match store.load_into(fresh.as_persistable_mut()) {
            Ok(r) => r,
            Err(e) => {
                return ReloadOutcome {
                    status: FitStatus::Degraded,
                    generation: None,
                    skipped: 0,
                    reason: Some(format!("reload rejected: {e}")),
                }
            }
        };
        // Worker scratches are sized for the serving model's dimension, and
        // every graph entity must have a row: the probe grid alone need
        // not reach either mismatch, but every later miss would panic.
        let serving_dim = self.model.read().expect("model lock poisoned").model.as_kge().dim();
        let (dim, entities) = (fresh.as_kge().dim(), fresh.as_kge().num_entities());
        let shape_error = if dim != serving_dim {
            Some(format!("dimension {dim} differs from the serving dimension {serving_dim}"))
        } else if entities < self.index.graph().num_entities() {
            Some(format!(
                "{entities} entities cannot cover the graph's {}",
                self.index.graph().num_entities()
            ))
        } else {
            None
        };
        if let Some(e) = shape_error {
            return ReloadOutcome {
                status: FitStatus::Degraded,
                generation: None,
                skipped: recovery.skipped.len(),
                reason: Some(format!("generation {} rejected: {e}", recovery.generation)),
            };
        }
        let interactions = self.interactions();
        let mut profile = vec![0.0f32; dim];
        let users = self.num_users().min(self.config.probe_users);
        let items = self.index.num_items().min(self.config.probe_items);
        let probed = probe_grid(users, items, |u, i| {
            serve_score(
                &self.index,
                fresh.as_kge(),
                &interactions,
                UserId(u as u32),
                kgrec_data::ItemId(i as u32),
                &mut profile,
                self.config.max_history,
            )
        });
        if let Err(e) = probed {
            return ReloadOutcome {
                status: FitStatus::Degraded,
                generation: None,
                skipped: recovery.skipped.len(),
                reason: Some(format!(
                    "generation {} rejected by serve probe: {e}",
                    recovery.generation
                )),
            };
        }
        {
            let mut state = self.model.write().expect("model lock poisoned");
            *state = Arc::new(ModelState { model: fresh, generation: recovery.generation });
        }
        self.model_gen.fetch_add(1, Ordering::Release);
        let skipped = recovery.skipped.len();
        ReloadOutcome {
            status: if skipped == 0 { FitStatus::Ok } else { FitStatus::Retried },
            generation: Some(recovery.generation),
            skipped,
            reason: (skipped > 0)
                .then(|| format!("fell back past {skipped} unusable generation(s)")),
        }
    }
}

/// Items ordered most popular first (interaction count descending, item
/// id ascending on ties).
pub(crate) fn popularity_order(interactions: &InteractionMatrix) -> Vec<u32> {
    let counts = interactions.item_popularity();
    let mut order: Vec<u32> = (0..counts.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::synth::{generate, ScenarioConfig};
    use kgrec_data::ItemId;
    use kgrec_kge::TransE;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fresh_model(dataset: &KgDataset, seed: u64) -> Box<dyn ServedModel> {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(TransE::new(
            &mut rng,
            dataset.graph.num_entities(),
            dataset.graph.num_relations(),
            8,
            1.0,
        ))
    }

    fn tiny_server(seed: u64, config: ServeConfig) -> Server {
        let synth = generate(&ScenarioConfig::tiny(), seed);
        let model = fresh_model(&synth.dataset, seed.wrapping_add(1));
        Server::new(synth.dataset, model, config)
    }

    #[test]
    fn serve_matches_fresh_compute_and_second_hit() {
        let server = tiny_server(3, ServeConfig::default());
        let mut a = server.make_scratch();
        let mut b = server.make_scratch();
        for u in 0..server.num_users() as u32 {
            let hit = server.serve(UserId(u), &mut a);
            assert!(!hit, "first request for u{u} must miss");
            server.compute_fresh(UserId(u), &mut b);
            assert_eq!(a.top_k(), b.top_k(), "u{u}");
            assert!(server.serve(UserId(u), &mut b), "second request for u{u} must hit");
            assert_eq!(a.top_k(), b.top_k(), "cached result diverges for u{u}");
        }
    }

    #[test]
    fn results_never_contain_history_and_respect_k() {
        let server = tiny_server(5, ServeConfig::default());
        let mut s = server.make_scratch();
        let interactions = server.interactions();
        for u in 0..server.num_users() as u32 {
            server.serve(UserId(u), &mut s);
            assert!(s.top_k().len() <= server.config().k);
            assert!(!s.top_k().is_empty(), "u{u} got an empty slate");
            for &v in s.top_k() {
                assert!(!interactions.contains(UserId(u), v), "u{u} served seen item {v}");
            }
        }
    }

    #[test]
    fn ingest_invalidates_only_touched_users() {
        let server = tiny_server(7, ServeConfig::default());
        let mut s = server.make_scratch();
        let touched = UserId(0);
        let untouched = UserId(1);
        server.serve(touched, &mut s);
        server.serve(untouched, &mut s);
        // Give user 0 a new interaction on an item they haven't seen.
        let interactions = server.interactions();
        let item = (0..interactions.num_items() as u32)
            .map(ItemId)
            .find(|&v| !interactions.contains(touched, v))
            .expect("tiny user 0 has an unseen item");
        server.ingest(&[Interaction::implicit(touched, item)]);
        assert!(!server.serve(touched, &mut s), "touched user must recompute");
        for &v in s.top_k() {
            assert_ne!(v, item, "freshly interacted item served back");
        }
        assert!(server.serve(untouched, &mut s), "untouched user must still hit");
    }

    #[test]
    fn reload_good_generation_swaps_and_invalidates() {
        let synth = generate(&ScenarioConfig::tiny(), 11);
        let dir =
            std::env::temp_dir().join(format!("kgrec_serve_reload_ok_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        // Generation 1: a model with different weights than the initial.
        let mut rng = StdRng::seed_from_u64(99);
        let better = TransE::new(
            &mut rng,
            synth.dataset.graph.num_entities(),
            synth.dataset.graph.num_relations(),
            8,
            1.0,
        );
        let generation = store.save(&better, "retrained").expect("save");
        let model = fresh_model(&synth.dataset, 12);
        let graph_shape = (synth.dataset.graph.num_entities(), synth.dataset.graph.num_relations());
        let server = Server::new(synth.dataset, model, ServeConfig::default());
        let mut s = server.make_scratch();
        server.serve(UserId(0), &mut s);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = server
            .reload(&store, Box::new(TransE::new(&mut rng, graph_shape.0, graph_shape.1, 8, 1.0)));
        assert!(matches!(outcome.status, FitStatus::Ok), "{outcome:?}");
        assert_eq!(outcome.generation, Some(generation));
        assert_eq!(server.model_generation(), generation);
        assert!(!server.serve(UserId(0), &mut s), "reload must invalidate the cache");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_nan_generation_is_rejected_and_serving_survives() {
        let synth = generate(&ScenarioConfig::tiny(), 13);
        let dir =
            std::env::temp_dir().join(format!("kgrec_serve_reload_nan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        let (ne, nr) = (synth.dataset.graph.num_entities(), synth.dataset.graph.num_relations());
        // A snapshot that loads cleanly but scores NaN.
        let mut rng = StdRng::seed_from_u64(2);
        let mut poisoned = TransE::new(&mut rng, ne, nr, 8, 1.0);
        let nan_row = [f32::NAN; 8];
        for e in 0..ne {
            poisoned.entity_row_add(kgrec_graph::EntityId(e as u32), &nan_row);
        }
        store.save(&poisoned, "poisoned").expect("save");
        let server =
            Server::new(synth.dataset, fresh_model_shape(ne, nr, 14), ServeConfig::default());
        let mut s = server.make_scratch();
        server.serve(UserId(0), &mut s);
        let before = s.top_k().to_vec();
        let outcome = server.reload(&store, fresh_model_shape(ne, nr, 15));
        assert!(matches!(outcome.status, FitStatus::Degraded), "{outcome:?}");
        assert!(outcome.reason.as_deref().is_some_and(|r| r.contains("probe")));
        assert_eq!(server.model_generation(), 0, "old model must keep serving");
        assert!(server.serve(UserId(0), &mut s), "cache must survive a rejected reload");
        assert_eq!(s.top_k(), &before[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Saves a TransE of dimension `dim` with `missing` fewer entities
    /// than the graph as the store's newest generation, serves user 0
    /// once from a dimension-8 model, reloads into a fresh model of the
    /// saved shape, and asserts that the reload was rejected with
    /// `reason_part` while the old model keeps serving every user.
    fn assert_reload_rejected(tag: &str, dim: usize, missing: usize, reason_part: &str) {
        let synth = generate(&ScenarioConfig::tiny(), 41);
        let (ne, nr) = (synth.dataset.graph.num_entities(), synth.dataset.graph.num_relations());
        let shaped = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            TransE::new(&mut rng, ne - missing, nr, dim, 1.0)
        };
        let dir =
            std::env::temp_dir().join(format!("kgrec_serve_reload_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open store");
        store.save(&shaped(43), tag).expect("save");
        let model = fresh_model(&synth.dataset, 42);
        let server = Server::new(synth.dataset, model, ServeConfig::default());
        let mut s = server.make_scratch();
        server.serve(UserId(0), &mut s);
        let before = s.top_k().to_vec();
        let outcome = server.reload(&store, Box::new(shaped(44)));
        assert!(matches!(outcome.status, FitStatus::Degraded), "{outcome:?}");
        assert_eq!(outcome.generation, None);
        assert!(outcome.reason.as_deref().is_some_and(|r| r.contains(reason_part)), "{outcome:?}");
        assert_eq!(server.model_generation(), 0, "old model must keep serving");
        assert!(server.serve(UserId(0), &mut s), "cache must survive a rejected reload");
        assert_eq!(s.top_k(), &before[..]);
        for u in 0..server.num_users() as u32 {
            server.compute_fresh(UserId(u), &mut s);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_with_another_dimension_is_rejected_and_serving_survives() {
        assert_reload_rejected("dim", 16, 0, "dimension 16");
    }

    #[test]
    fn reload_with_too_few_entities_is_rejected_and_serving_survives() {
        assert_reload_rejected("entities", 8, 1, "entities cannot cover");
    }

    /// The slate `compute_fresh` must produce for `user`, given the
    /// candidate set it left in `s`: candidates sorted by `serve_score`
    /// descending (NaN as `-inf`), then by position, cut at `k`.
    fn oracle_slate(server: &Server, user: UserId, s: &ServeScratch) -> Vec<ItemId> {
        let state = Arc::clone(&server.model.read().unwrap());
        let model = state.model.as_kge();
        let interactions = server.interactions();
        let mut profile = vec![0.0f32; model.dim()];
        let mut scored: Vec<(f32, usize)> = (s.cand.iter().enumerate())
            .map(|(pos, &v)| {
                let score = serve_score(
                    server.index(),
                    model,
                    &interactions,
                    user,
                    ItemId(v),
                    &mut profile,
                    server.config().max_history,
                );
                (if score.is_nan() { f32::NEG_INFINITY } else { score }, pos)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        scored.iter().take(server.config().k).map(|&(_, pos)| ItemId(s.cand[pos])).collect()
    }

    #[test]
    fn fresh_slate_equals_serve_score_oracle_for_every_user() {
        let server = tiny_server(19, ServeConfig::default());
        let mut s = server.make_scratch();
        for u in 0..server.num_users() as u32 {
            server.compute_fresh(UserId(u), &mut s);
            assert_eq!(s.top_k(), &oracle_slate(&server, UserId(u), &s)[..], "u{u}");
        }
    }

    #[test]
    fn nan_item_never_displaces_a_finite_candidate() {
        // tiny has 60 items, so every unseen item is a candidate: k = 60
        // puts the NaN item on every slate, k = 10 gives it finite
        // competition to lose to.
        for k in [10, 60] {
            let synth = generate(&ScenarioConfig::tiny(), 23);
            let (ne, nr) =
                (synth.dataset.graph.num_entities(), synth.dataset.graph.num_relations());
            // Poison the most popular item: users holding it in their
            // history never see it as a candidate.
            let hot = ItemId(popularity_order(&synth.dataset.interactions)[0]);
            let mut rng = StdRng::seed_from_u64(24);
            let mut model = TransE::new(&mut rng, ne, nr, 8, 1.0);
            model.entity_row_add(synth.dataset.item_entities[hot.index()], &[f32::NAN; 8]);
            let config = ServeConfig { k, ..ServeConfig::default() };
            let server = Server::new(synth.dataset, Box::new(model), config);
            let interactions = server.interactions();
            let mut s = server.make_scratch();
            let mut ranked_against_finite = 0;
            for u in 0..server.num_users() as u32 {
                let user = UserId(u);
                server.compute_fresh(user, &mut s);
                assert_eq!(s.top_k(), &oracle_slate(&server, user, &s)[..], "u{u}");
                if interactions.contains(user, hot) || !s.cand.contains(&hot.0) {
                    continue;
                }
                ranked_against_finite += 1;
                // Every finite candidate the slate has room for is on it,
                // ahead of the NaN item.
                let finite = s.cand.len() - 1;
                let slate = s.top_k();
                assert_eq!(slate.len(), s.cand.len().min(server.config().k), "u{u}");
                match slate.iter().position(|&v| v == hot) {
                    Some(at) => assert_eq!(at, finite, "u{u}: NaN item ranked above a finite one"),
                    None => assert!(finite >= slate.len(), "u{u}: NaN item dropped for nothing"),
                }
            }
            assert!(ranked_against_finite > 0, "no user ranked the NaN item");
        }
    }

    fn fresh_model_shape(ne: usize, nr: usize, seed: u64) -> Box<dyn ServedModel> {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(TransE::new(&mut rng, ne, nr, 8, 1.0))
    }

    #[test]
    fn live_store_index_is_built_by_new_and_every_ingest() {
        let server = tiny_server(29, ServeConfig::default());
        assert!(server.interactions().has_item_index(), "after new");
        let mut s = server.make_scratch();
        for round in 0..3u32 {
            let before = server.interactions();
            let user = UserId(round);
            let item = (0..before.num_items() as u32)
                .map(ItemId)
                .find(|&v| !before.contains(user, v))
                .expect("tiny users have unseen items");
            server.ingest(&[Interaction::implicit(user, item)]);
            let after = server.interactions();
            assert!(!Arc::ptr_eq(&before, &after), "ingest {round} published no new store");
            assert!(after.has_item_index(), "after ingest {round}");
            server.serve(user, &mut s);
        }
    }

    #[test]
    fn popularity_order_is_count_desc_id_asc() {
        let synth = generate(&ScenarioConfig::tiny(), 17);
        let interactions = synth.dataset.interactions;
        let counts = interactions.item_popularity();
        let order = popularity_order(&interactions);
        assert_eq!(order.len(), counts.len());
        for w in order.windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            assert!(
                counts[a] > counts[b] || (counts[a] == counts[b] && a < b),
                "order violated at {a},{b}"
            );
        }
    }
}
