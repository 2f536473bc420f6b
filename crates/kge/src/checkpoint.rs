//! The epoch-checkpoint snapshot format used by
//! [`crate::trainer::train_guarded`] when it is given a
//! [`kgrec_store::CheckpointStore`].
//!
//! Each checkpoint snapshot carries, alongside the model's own sections, a
//! `trainer` section with the number of completed epochs and a fingerprint
//! of the training configuration (seed, learning rate, epoch target,
//! triple count). A generation is only resumed under the configuration
//! that wrote it; the resume, per-epoch save and disk-fallback policy live
//! in the trainer.

use crate::trainer::TrainConfig;
use kgrec_graph::KnowledgeGraph;
use kgrec_store::{config_hash, Persistable, Section, SnapshotReader, SnapshotWriter, StoreError};

/// Fingerprint of everything that determines the training trajectory: a
/// checkpoint is only resumable under the configuration that produced it.
#[must_use]
pub(crate) fn train_fingerprint(config: &TrainConfig, graph: &KnowledgeGraph) -> u64 {
    let seed = format!("seed={}", config.seed);
    let lr = format!("lr={:08x}", config.learning_rate.to_bits());
    let epochs = format!("epochs={}", config.epochs);
    let triples = format!("triples={}", graph.num_triples());
    config_hash(&[&seed, &lr, &epochs, &triples])
}

/// A model plus its training progress, persisted as one snapshot.
///
/// Restoring rejects snapshots whose trainer fingerprint differs before
/// touching the model, so a checkpoint from another configuration can
/// never contaminate a resume.
pub(crate) struct TrainerSnapshot<'a, M: Persistable> {
    pub(crate) model: &'a mut M,
    pub(crate) epochs_done: u64,
    pub(crate) fingerprint: u64,
    pub(crate) seed: u64,
}

impl<M: Persistable> Persistable for TrainerSnapshot<'_, M> {
    fn snapshot_id(&self) -> &'static str {
        self.model.snapshot_id()
    }

    fn config_hash(&self) -> u64 {
        self.model.config_hash()
    }

    fn snapshot_seed(&self) -> u64 {
        self.seed
    }

    fn write_state(&self, writer: &mut SnapshotWriter) -> Result<(), StoreError> {
        self.model.write_state(writer)?;
        let mut s = Section::new();
        s.put_u64(self.epochs_done);
        s.put_u64(self.fingerprint);
        writer.add("trainer", s)
    }

    fn read_state(&mut self, reader: &SnapshotReader) -> Result<(), StoreError> {
        let mut c = reader.section("trainer")?;
        let done = c.take_u64()?;
        let fingerprint = c.take_u64()?;
        if fingerprint != self.fingerprint {
            return Err(StoreError::ModelMismatch {
                detail: format!(
                    "trainer fingerprint {fingerprint:016x} differs from live {:016x} \
                     (other seed/lr/epochs/graph)",
                    self.fingerprint
                ),
            });
        }
        self.model.read_state(reader)?;
        self.epochs_done = done;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{train_guarded, train_with_from, TrainControl};
    use crate::transe::TransE;
    use kgrec_graph::KgBuilder;
    use kgrec_linalg::stability::DivergencePolicy;
    use kgrec_store::CheckpointStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    fn toy_graph() -> KnowledgeGraph {
        let mut b = KgBuilder::new();
        let ty = b.entity_type("t");
        let es: Vec<_> = (0..8).map(|i| b.entity(&format!("e{i}"), ty)).collect();
        let r = b.relation("r");
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    b.triple(es[i], r, es[j]);
                }
            }
        }
        for i in 4..8 {
            for j in 4..8 {
                if i != j {
                    b.triple(es[i], r, es[j]);
                }
            }
        }
        b.build(false)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kgrec_kge_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(epochs: usize) -> TrainConfig {
        TrainConfig { epochs, learning_rate: 0.05, seed: 21, threads: Some(1) }
    }

    #[test]
    fn cold_start_trains_and_checkpoints_every_epoch() {
        let g = toy_graph();
        let dir = scratch("cold");
        let store = CheckpointStore::open(&dir).expect("open").with_retention(3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let report = train_guarded(&mut m, &g, &cfg(5), DivergencePolicy::default(), Some(&store));
        assert!(report.usable());
        assert_eq!(report.start_epoch, 0);
        assert_eq!(report.saved, 5);
        assert_eq!(report.save_errors, 0);
        assert_eq!(store.generations().len(), 3, "retention keeps 3");
        assert_eq!(store.last_good(), Some(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_run_is_bit_identical_to_uninterrupted() {
        let g = toy_graph();
        // Uninterrupted reference: 8 epochs straight.
        let mut rng = StdRng::seed_from_u64(2);
        let mut reference = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let dir_a = scratch("ref");
        let store_a = CheckpointStore::open(&dir_a).expect("open");
        let ra =
            train_guarded(&mut reference, &g, &cfg(8), DivergencePolicy::default(), Some(&store_a));
        assert!(ra.usable());

        // Interrupted run: 3 epochs (simulated crash), then resume to 8.
        // The epoch target is part of the fingerprint, so the "crash" is a
        // full 8-epoch run whose checkpoints stop after epoch 3.
        let dir_b = scratch("resume");
        let store_b = CheckpointStore::open(&dir_b).expect("open").with_retention(10);
        let mut rng = StdRng::seed_from_u64(2);
        let mut crashed = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let fingerprint = train_fingerprint(&cfg(8), &g);
        let mut stop_after = 0;
        train_with_from(&mut crashed, &g, &cfg(8), 0, |m, stats| {
            let view = TrainerSnapshot {
                model: &mut *m,
                epochs_done: (stats.epoch + 1) as u64,
                fingerprint,
                seed: cfg(8).seed,
            };
            store_b.save(&view, "pre-crash").expect("save");
            stop_after += 1;
            if stop_after >= 3 {
                TrainControl::Stop
            } else {
                TrainControl::Continue
            }
        });

        // "Restart the process": fresh init, resume from the store.
        let mut rng = StdRng::seed_from_u64(999); // different init — must not matter
        let mut resumed = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let rb =
            train_guarded(&mut resumed, &g, &cfg(8), DivergencePolicy::default(), Some(&store_b));
        assert_eq!(rb.start_epoch, 3);
        assert_eq!(rb.resumed_from, Some(3));
        assert!(rb.usable());

        for (a, b) in reference.entities().data().iter().zip(resumed.entities().data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "resumed parameters must be bit-identical");
        }
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn foreign_fingerprint_is_not_resumed() {
        let g = toy_graph();
        let dir = scratch("foreign");
        let store = CheckpointStore::open(&dir).expect("open");
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        train_guarded(&mut m, &g, &cfg(3), DivergencePolicy::default(), Some(&store));

        // Same store, different seed: every generation's fingerprint
        // mismatches, so this is a cold start, not a resume.
        let mut other_cfg = cfg(3);
        other_cfg.seed = 77;
        let mut rng = StdRng::seed_from_u64(4);
        let mut m2 = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let report =
            train_guarded(&mut m2, &g, &other_cfg, DivergencePolicy::default(), Some(&store));
        assert_eq!(report.resumed_from, None);
        assert_eq!(report.start_epoch, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_checkpoint_short_circuits_training() {
        let g = toy_graph();
        let dir = scratch("done");
        let store = CheckpointStore::open(&dir).expect("open");
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let first = train_guarded(&mut m, &g, &cfg(4), DivergencePolicy::default(), Some(&store));
        assert!(first.usable());

        let mut rng = StdRng::seed_from_u64(6);
        let mut m2 = TransE::new(&mut rng, g.num_entities(), g.num_relations(), 8, 1.0);
        let second = train_guarded(&mut m2, &g, &cfg(4), DivergencePolicy::default(), Some(&store));
        assert_eq!(second.start_epoch, 4, "nothing left to train");
        assert!(second.curve.is_empty());
        assert!(second.usable());
        for (a, b) in m.entities().data().iter().zip(m2.entities().data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
