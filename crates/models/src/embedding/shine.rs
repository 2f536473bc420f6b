//! SHINE-lite (Wang et al. 2018): signed heterogeneous information
//! network embedding via autoencoders.
//!
//! SHINE targets celebrity recommendation on a social platform: it embeds
//! three networks with autoencoders — the *sentiment* network (user–item
//! interactions), the user *social* network, and the item *profile*
//! network (attributes) — aggregates the encodings, and predicts the
//! user→item link from the embedding pair.
//!
//! Implementation: each network contributes one dense encoder over the
//! corresponding adjacency row (the autoencoder's reconstruction arm is a
//! tied decoder trained jointly); user embedding = enc(sentiment row) +
//! enc(social row), item embedding = enc(audience row) + enc(profile
//! row); score = `σ(h_uᵀ·h_v)` trained with BCE. Datasets without social
//! links simply skip the social channel.
//!
//! **Encoder cache invariant.** Each per-sample step encodes every
//! channel once (`train_encode`), then pushes the BCE gradient back
//! through the same encoders (`apply_hidden_grad`). `train_encode` always
//! ends on a `forward_sparse` of the channel's input row under the
//! encoder's current weights, and nothing touches that encoder until its
//! `apply_hidden_grad` — each channel owns its encoder, and the other
//! channels' steps in between only touch their own. So the cached
//! activations are exactly what a fresh forward pass would produce, and
//! the backward step consumes them directly. Any change that updates an
//! encoder between the two calls must re-run the forward first.

use crate::common::{sample_observed, taxonomy_of};
use kgrec_core::{CoreError, Recommender, Taxonomy, TrainContext};
use kgrec_data::negative::sample_negative;
use kgrec_data::{ItemId, UserId};
use kgrec_linalg::{par, vector, Activation, Dense};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Samples whose gradients share one frozen parameter snapshot.
const CHUNK: usize = 64;
/// Samples replayed by one worker-local replica. Fixed — never derived
/// from the worker count — so the delta merge order is identical at any
/// thread count.
const SUB: usize = 32;

/// SHINE-lite hyper-parameters.
#[derive(Debug, Clone)]
pub(crate) struct ShineConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// Weight of the autoencoder reconstruction losses.
    pub recon_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ShineConfig {
    fn default() -> Self {
        Self { dim: 16, epochs: 20, learning_rate: 0.05, recon_weight: 0.3, seed: 109 }
    }
}

/// One autoencoder channel: encoder + tied-structure decoder.
///
/// Adjacency rows are binary and extremely sparse (a user touches a
/// handful of items, not all `n`), so each row is stored as the ascending
/// list of its non-zero coordinates and every encoder pass uses the
/// sparse `Dense` kernels — bit-identical to the dense 0/1 passes (the
/// skipped terms are exact multiplications by zero) at a fraction of the
/// work.
///
/// `Clone` is cheap on the input side: worker replicas in the batched fit
/// clone the weights but share the immutable adjacency rows through the
/// `Arc`.
#[derive(Debug, Clone)]
struct Channel {
    encoder: Dense,
    decoder: Dense,
    /// Ascending non-zero coordinates of each binary input row.
    inputs: Arc<Vec<Vec<usize>>>,
}

/// Sorts and dedups a sparse binary row (graph neighbor lists may repeat
/// a tail entity; the dense rows this replaces wrote `1.0` idempotently).
fn sparse_row(mut idx: Vec<usize>) -> Vec<usize> {
    idx.sort_unstable();
    idx.dedup();
    idx
}

impl Channel {
    /// `row_len` is the dense length of every input row (the sparse lists
    /// only carry the non-zero coordinates).
    fn new(rng: &mut StdRng, inputs: Vec<Vec<usize>>, row_len: usize, dim: usize) -> Self {
        // Mirrors the dense-era sizing rule (`first row's length, min 1`)
        // so the seeded init consumes an identical RNG stream.
        let in_dim = if inputs.is_empty() { 1 } else { row_len.max(1) };
        Self {
            encoder: Dense::new(rng, in_dim, dim, Activation::Tanh),
            decoder: Dense::new(rng, dim, in_dim, Activation::Sigmoid),
            inputs: Arc::new(inputs),
        }
    }

    fn encode(&self, idx: usize) -> Vec<f32> {
        self.encoder.infer_sparse(&self.inputs[idx])
    }

    /// Encoder forward (cached) + one reconstruction step; returns the
    /// hidden code. `recon_lr = 0` skips the decoder update.
    fn train_encode(&mut self, idx: usize, recon_lr: f32) -> Vec<f32> {
        let h = self.encoder.forward_sparse(&self.inputs[idx]);
        if recon_lr > 0.0 {
            let active = &self.inputs[idx];
            let xhat = self.decoder.forward(&h);
            // Squared reconstruction error against the binary target: a
            // cursor over `active` substitutes the 1.0 entries without
            // materialising the dense row.
            let mut dl = Vec::with_capacity(xhat.len());
            let mut cursor = 0usize;
            for (j, &a) in xhat.iter().enumerate() {
                let b = if cursor < active.len() && active[cursor] == j {
                    cursor += 1;
                    1.0f32
                } else {
                    0.0
                };
                dl.push(2.0 * (a - b));
            }
            // Fused backward + step: the decoder gradient matrix is never
            // materialised (it would be cleared right back to zero).
            let dh = self.decoder.backward_step_sgd(&dl, recon_lr, 0.0);
            self.encoder.backward_sparse(&dh);
            // L2-free step: inactive columns carry exact-zero gradients,
            // so touching only the active ones is bitwise the same update.
            self.encoder.step_sgd_sparse(recon_lr, active);
            // Re-run the forward so the caller's cache matches updated
            // weights.
            return self.encoder.forward_sparse(&self.inputs[idx]);
        }
        h
    }

    /// Applies a gradient on the hidden code back through the encoder.
    ///
    /// Consumes the encoder cache [`Self::train_encode`] left for the same
    /// `idx` (see the module docs for the invariant) instead of re-running
    /// the identical forward pass.
    fn apply_hidden_grad(&mut self, dh: &[f32], lr: f32) {
        // Weight decay touches every parameter; the fused kernel applies
        // the sparse gradient and the dense decay in one weight sweep.
        self.encoder.backward_sparse_step_sgd(dh, lr, 1e-5);
    }
}

/// Adds `replica − base` into `dst`, parameter by parameter.
fn merge_dense(dst: &mut Dense, replica: &Dense, base: &Dense) {
    let d = dst.weights_mut().data_mut();
    let r = replica.weights().data();
    let b = base.weights().data();
    for i in 0..d.len() {
        d[i] += r[i] - b[i];
    }
    let d = dst.bias_mut();
    let r = replica.bias();
    let b = base.bias();
    for i in 0..d.len() {
        d[i] += r[i] - b[i];
    }
}

/// [`merge_dense`] over a channel's encoder and decoder.
fn merge_channel(dst: &mut Channel, replica: &Channel, base: &Channel) {
    merge_dense(&mut dst.encoder, &replica.encoder, &base.encoder);
    merge_dense(&mut dst.decoder, &replica.decoder, &base.decoder);
}

/// The mutable training state of a fit: all channels together, so worker
/// replicas can replay samples on a private copy.
#[derive(Debug, Clone)]
struct ChannelSet {
    sentiment_user: Channel,
    sentiment_item: Channel,
    social: Option<Channel>,
    profile: Option<Channel>,
}

impl ChannelSet {
    /// Replays one labeled example in place — the per-sample step of the
    /// original sequential loop, verbatim.
    fn train_one(&mut self, user: UserId, item: ItemId, label: f32, lr: f32, recon_lr: f32) {
        // Forward through channels (with reconstruction).
        let mut hu = self.sentiment_user.train_encode(user.index(), recon_lr);
        if let Some(social) = self.social.as_mut() {
            let hs = social.train_encode(user.index(), recon_lr);
            vector::axpy(1.0, &hs, &mut hu);
        }
        let mut hv = self.sentiment_item.train_encode(item.index(), recon_lr);
        if let Some(profile) = self.profile.as_mut() {
            let hp = profile.train_encode(item.index(), recon_lr);
            vector::axpy(1.0, &hp, &mut hv);
        }
        let z = vector::dot(&hu, &hv);
        let dz = vector::sigmoid(z) - label;
        let dhu: Vec<f32> = hv.iter().map(|x| dz * x).collect();
        let dhv: Vec<f32> = hu.iter().map(|x| dz * x).collect();
        self.sentiment_user.apply_hidden_grad(&dhu, lr);
        if let Some(social) = self.social.as_mut() {
            social.apply_hidden_grad(&dhu, lr);
        }
        self.sentiment_item.apply_hidden_grad(&dhv, lr);
        if let Some(profile) = self.profile.as_mut() {
            profile.apply_hidden_grad(&dhv, lr);
        }
    }

    /// Adds one worker replica's parameter delta (`replica − base`) into
    /// `self`. Called in sub-batch index order, this is the fixed-order
    /// reduction that keeps the merged parameters bit-identical at any
    /// thread count.
    fn merge_delta(&mut self, replica: &Self, base: &Self) {
        merge_channel(&mut self.sentiment_user, &replica.sentiment_user, &base.sentiment_user);
        merge_channel(&mut self.sentiment_item, &replica.sentiment_item, &base.sentiment_item);
        if let (Some(d), Some(r), Some(b)) =
            (self.social.as_mut(), replica.social.as_ref(), base.social.as_ref())
        {
            merge_channel(d, r, b);
        }
        if let (Some(d), Some(r), Some(b)) =
            (self.profile.as_mut(), replica.profile.as_ref(), base.profile.as_ref())
        {
            merge_channel(d, r, b);
        }
    }
}

/// The SHINE-lite model.
#[derive(Debug)]
pub(crate) struct Shine {
    /// Hyper-parameters.
    pub config: ShineConfig,
    sentiment_user: Option<Channel>,
    sentiment_item: Option<Channel>,
    social: Option<Channel>,
    profile: Option<Channel>,
    num_items: usize,
}

impl Shine {
    /// Creates an unfitted model.
    pub(crate) fn new(config: ShineConfig) -> Self {
        Self {
            config,
            sentiment_user: None,
            sentiment_item: None,
            social: None,
            profile: None,
            num_items: 0,
        }
    }

    /// Creates a model with default hyper-parameters.
    pub(crate) fn default_config() -> Self {
        Self::new(ShineConfig::default())
    }

    fn user_vec(&self, user: UserId) -> Vec<f32> {
        let mut h =
            self.sentiment_user.as_ref().expect("Shine: fit before score").encode(user.index());
        if let Some(social) = &self.social {
            vector::axpy(1.0, &social.encode(user.index()), &mut h);
        }
        h
    }

    fn item_vec(&self, item: ItemId) -> Vec<f32> {
        let mut h =
            self.sentiment_item.as_ref().expect("Shine: fit before score").encode(item.index());
        if let Some(profile) = &self.profile {
            vector::axpy(1.0, &profile.encode(item.index()), &mut h);
        }
        h
    }
}

impl Recommender for Shine {
    fn name(&self) -> &'static str {
        "SHINE"
    }

    fn taxonomy(&self) -> Taxonomy {
        taxonomy_of("SHINE")
    }

    fn fit(&mut self, ctx: &TrainContext<'_>) -> Result<(), CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let m = ctx.num_users();
        let n = ctx.num_items();
        self.num_items = n;
        // Sentiment network rows (binary interaction vectors, stored
        // sparse as ascending index lists).
        let user_rows: Vec<Vec<usize>> = (0..m)
            .map(|u| {
                sparse_row(ctx.train.items_of(UserId(u as u32)).iter().map(|i| i.index()).collect())
            })
            .collect();
        let item_rows: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                sparse_row(ctx.train.users_of(ItemId(i as u32)).iter().map(|u| u.index()).collect())
            })
            .collect();
        // Social network rows (optional).
        let social_rows = ctx.dataset.social_links.as_ref().map(|links| {
            let mut rows = vec![Vec::new(); m];
            for &(a, b) in links {
                rows[a.index()].push(b.index());
                rows[b.index()].push(a.index());
            }
            rows.into_iter().map(sparse_row).collect::<Vec<_>>()
        });
        // Profile network rows: one-hot over attribute entities.
        let graph = &ctx.dataset.graph;
        let attr_count = graph.num_entities();
        let profile_rows: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                sparse_row(
                    graph.neighbors(ctx.dataset.item_entities[i]).map(|(_, t)| t.index()).collect(),
                )
            })
            .collect();
        let dim = self.config.dim;
        // Construction order matters: each Channel consumes the same RNG
        // stream positions as before the batched rewrite.
        let mut set = ChannelSet {
            sentiment_user: Channel::new(&mut rng, user_rows, n, dim),
            sentiment_item: Channel::new(&mut rng, item_rows, m, dim),
            social: social_rows.map(|rows| Channel::new(&mut rng, rows, m, dim)),
            profile: Some(Channel::new(&mut rng, profile_rows, attr_count, dim)),
        };

        let lr = self.config.learning_rate;
        let recon_lr = lr * self.config.recon_weight;
        let threads = par::resolve_threads(None);
        // Deterministic batched SGD: samples are pre-drawn per chunk (the
        // RNG stream is identical to the per-sample loop because training
        // never touches the RNG), worker replicas replay fixed sub-batches
        // on private copies of the chunk-start weights, and the parameter
        // deltas merge in sub-batch index order — bit-identical weights at
        // any thread count.
        let mut samples: Vec<(UserId, ItemId, f32)> = Vec::with_capacity(2 * CHUNK);
        for _ in 0..self.config.epochs {
            let mut remaining = ctx.train.num_interactions();
            'epoch: while remaining > 0 {
                samples.clear();
                while remaining > 0 && samples.len() < 2 * CHUNK {
                    let Some((u, pos)) = sample_observed(ctx.train, &mut rng) else {
                        break 'epoch;
                    };
                    samples.push((u, pos, 1.0));
                    if let Some(neg) = sample_negative(ctx.train, u, &mut rng) {
                        samples.push((u, neg, 0.0));
                    }
                    remaining -= 1;
                }
                let subs: Vec<&[(UserId, ItemId, f32)]> = samples.chunks(SUB).collect();
                let base = set.clone();
                let replicas = par::par_map(&subs, threads, |_, sub| {
                    let mut replica = base.clone();
                    for &(u, it, y) in *sub {
                        replica.train_one(u, it, y, lr, recon_lr);
                    }
                    replica
                });
                for replica in &replicas {
                    set.merge_delta(replica, &base);
                }
            }
        }
        self.sentiment_user = Some(set.sentiment_user);
        self.sentiment_item = Some(set.sentiment_item);
        self.social = set.social;
        self.profile = set.profile;
        Ok(())
    }

    fn score(&self, user: UserId, item: ItemId) -> f32 {
        vector::dot(&self.user_vec(user), &self.item_vec(item))
    }

    fn num_items(&self) -> usize {
        self.num_items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgrec_core::protocol::evaluate_ctr;
    use kgrec_data::negative::labeled_eval_set;
    use kgrec_data::split::ratio_split;
    use kgrec_data::synth::{generate, ScenarioConfig};

    #[test]
    fn beats_chance_on_planted_data() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Shine::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = labeled_eval_set(&split.train, &split.test, 4, &mut rng);
        let rep = evaluate_ctr(&m, &pairs);
        assert!(rep.auc > 0.6, "AUC {}", rep.auc);
    }

    #[test]
    fn social_channel_engaged_when_links_present() {
        let cfg = ScenarioConfig::weibo_like().with_social_links(3);
        let mut small = cfg.clone();
        small.num_users = 30;
        small.num_items = 40;
        let synth = generate(&small, 8);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Shine::new(ShineConfig { epochs: 2, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        assert!(m.social.is_some());
        assert!(m.score(UserId(0), ItemId(0)).is_finite());
    }

    /// FNV-1a over the bits of every user × item score of a SHINE fit on
    /// `tiny`. Pins the training kernels bit for bit: any drift in the
    /// `Dense` forward/backward sweeps moves this digest.
    #[test]
    fn score_checksum_is_pinned() {
        let synth = generate(&ScenarioConfig::tiny(), 42);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Shine::default_config();
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for u in 0..split.train.num_users() {
            for i in 0..m.num_items() {
                for b in m.score(UserId(u as u32), ItemId(i as u32)).to_bits().to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0xb2fd_82d5_5c7e_ce6f, "SHINE score digest drifted: {h:#018x}");
    }

    #[test]
    fn works_without_social_links() {
        let synth = generate(&ScenarioConfig::tiny(), 9);
        let split = ratio_split(&synth.dataset.interactions, 0.2, 1);
        let mut m = Shine::new(ShineConfig { epochs: 2, ..Default::default() });
        m.fit(&TrainContext::new(&synth.dataset, &split.train)).unwrap();
        assert!(m.social.is_none());
        assert!(m.score(UserId(0), ItemId(0)).is_finite());
    }
}
