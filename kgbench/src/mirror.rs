//! The traced serving path.
//!
//! `Server::serve` does not expose its stages, so the traced run rebuilds
//! the request from the public pieces: a `TopKCache` of the same shape,
//! `candidates_for` and `rank_candidates` over the server's index and
//! live interactions, a popularity order computed the way `Server`
//! computes it, and the same served model. Timers sit between the calls.
//! On sampled requests the result is compared with the server's own.

use crate::trace::{since, Recorder, Span, SPAN_EVERY};
use kgrec_data::{Interaction, InteractionMatrix, ItemId, UserId};
use kgrec_kge::KgeModel;
use kgrec_serve::{candidates_for, rank_candidates, ServeScratch, Server, TopKCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Items most popular first (count descending, id ascending) — the rule
/// `Server` fills stage 1 with.
pub fn popularity_order(interactions: &InteractionMatrix) -> Vec<u32> {
    let counts = interactions.item_popularity();
    let mut order: Vec<u32> = (0..counts.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]).then(a.cmp(&b)));
    order
}

type Live = (Arc<InteractionMatrix>, Arc<Vec<u32>>);

/// A second serving front over a server's index and data, with its own
/// cache and stamps.
pub struct Mirror<'a> {
    server: &'a Server,
    model: &'a (dyn KgeModel + Sync),
    cache: TopKCache,
    live: RwLock<Live>,
    user_gens: Vec<AtomicU64>,
}

impl<'a> Mirror<'a> {
    /// A mirror of `server`, which must be serving `model`.
    pub fn new(server: &'a Server, model: &'a (dyn KgeModel + Sync)) -> Self {
        let config = server.config();
        let interactions = server.interactions();
        let pop = Arc::new(popularity_order(&interactions));
        let mut user_gens = Vec::with_capacity(server.num_users());
        user_gens.resize_with(server.num_users(), || AtomicU64::new(0));
        Self {
            server,
            model,
            cache: TopKCache::new(config.cache_capacity, config.cache_shards, config.k),
            live: RwLock::new((interactions, pop)),
            user_gens,
        }
    }

    /// Follows an ingest the server has already applied: installs the
    /// server's new data, then bumps the touched users' stamps — the same
    /// publication order `Server::ingest` uses.
    pub fn publish(&self, batch: &[Interaction]) {
        let interactions = self.server.interactions();
        let pop = Arc::new(popularity_order(&interactions));
        *self.live.write().expect("mirror live lock poisoned") = (interactions, pop);
        for row in batch {
            self.user_gens[row.user.index()].fetch_add(1, Ordering::Release);
        }
    }

    /// Whether the mirror currently serves exactly `data`.
    pub fn serves(&self, data: &Arc<InteractionMatrix>) -> bool {
        Arc::ptr_eq(&self.live.read().expect("mirror live lock poisoned").0, data)
    }

    /// Answers one request into `out`, recording each stage's duration
    /// and, for every [`SPAN_EVERY`]-th request id, its spans. Returns
    /// `true` on a cache hit.
    pub fn serve(
        &self,
        user: UserId,
        scratch: &mut ServeScratch,
        out: &mut Vec<ItemId>,
        rec: &mut Recorder,
        req: u64,
        origin: Instant,
    ) -> bool {
        let t0 = Instant::now();
        let user_gen = self.user_gens[user.index()].load(Ordering::Acquire);
        let t1 = Instant::now();
        let hit = self.cache.lookup(user, user_gen, 0, out);
        let t2 = Instant::now();
        let lookup = since(t1, t2);
        rec.lookup.record(lookup);
        let mut stages = [(t1, t2, "cache.lookup"); 4];
        let end = if hit {
            rec.hits += 1;
            t2
        } else {
            let (interactions, pop) = {
                let live = self.live.read().expect("mirror live lock poisoned");
                (Arc::clone(&live.0), Arc::clone(&live.1))
            };
            let config = self.server.config();
            let index = self.server.index();
            let t3 = Instant::now();
            candidates_for(index, &interactions, &pop, user, config, scratch);
            let t4 = Instant::now();
            rank_candidates(index, self.model, &interactions, user, config, scratch);
            let t5 = Instant::now();
            self.cache.insert(user, user_gen, 0, scratch.top_k());
            let t6 = Instant::now();
            out.clear();
            out.extend_from_slice(scratch.top_k());
            rec.stage1.record(since(t3, t4));
            rec.stage2.record(since(t4, t5));
            rec.insert.record(since(t5, t6));
            stages[1] = (t3, t4, "stage1");
            stages[2] = (t4, t5, "stage2");
            stages[3] = (t5, t6, "cache.insert");
            t6
        };
        let total = since(t0, end);
        let children: u64 =
            if hit { lookup } else { stages.iter().map(|&(a, b, _)| since(a, b)).sum() };
        rec.request.record(total);
        rec.self_ns.record(total.saturating_sub(children));
        if req.is_multiple_of(SPAN_EVERY) {
            let parent = rec.spans.len();
            rec.spans.push(Span {
                name: "request",
                detail: String::new(),
                start_ns: since(origin, t0),
                end_ns: since(origin, end),
                parent: None,
                req,
            });
            let taken = if hit { 1 } else { 4 };
            for &(a, b, name) in &stages[..taken] {
                rec.spans.push(Span {
                    name,
                    detail: String::new(),
                    start_ns: since(origin, a),
                    end_ns: since(origin, b),
                    parent: Some(parent),
                    req,
                });
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_data::synth::{generate, ScenarioConfig};
    use kgrec_kge::TransE;
    use kgrec_serve::ServeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn traced_path_equals_server_serve_on_tiny() {
        let synth = generate(&ScenarioConfig::tiny(), 5);
        let (entities, relations) =
            (synth.dataset.graph.num_entities(), synth.dataset.graph.num_relations());
        let model = || TransE::new(&mut StdRng::seed_from_u64(9), entities, relations, 8, 1.0);
        let twin = model();
        // A small cache, so colliding users evict each other too.
        let config = ServeConfig { cache_capacity: 16, cache_shards: 4, ..ServeConfig::default() };
        let server = Server::new(synth.dataset, Box::new(model()), config);
        let mirror = Mirror::new(&server, &twin);
        let (mut a, mut b) = (server.make_scratch(), server.make_scratch());
        let (mut out, mut rec) = (Vec::new(), Recorder::default());
        let origin = Instant::now();
        let users = server.num_users() as u32;
        let mut server_hits = 0;
        let order = (0..3u32).flat_map(|pass| (0..users).map(move |u| (u * (pass + 1)) % users));
        for (req, u) in order.enumerate() {
            server_hits += u64::from(server.serve(UserId(u), &mut a));
            mirror.serve(UserId(u), &mut b, &mut out, &mut rec, req as u64, origin);
            assert_eq!(out, a.top_k(), "user {u}, request {req}");
        }
        assert!(server_hits > 0);
        assert_eq!(rec.hits, server_hits);
        assert_eq!(rec.request.len(), 3 * u64::from(users));
        assert!(rec.spans.iter().any(|s| s.name == "stage2" && s.parent.is_some()));
        // After an ingest both fronts miss and agree again.
        let user = UserId(0);
        let seen = server.interactions();
        let item = (0..seen.num_items() as u32)
            .map(ItemId)
            .find(|&v| !seen.contains(user, v))
            .expect("an unseen item");
        let batch = [Interaction::implicit(user, item)];
        server.ingest(&batch);
        mirror.publish(&batch);
        assert!(!server.serve(user, &mut a));
        assert!(!mirror.serve(user, &mut b, &mut out, &mut rec, 0, origin));
        assert_eq!(out, a.top_k());
        assert!(!out.contains(&item));
    }
}
