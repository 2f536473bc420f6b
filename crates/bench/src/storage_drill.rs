//! The end-to-end checkpoint-recovery drill behind
//! `eval_suite --inject-fault=<storage-fault>` and the `crash_drill`
//! binary: train → checkpoint every epoch → corrupt the store the way a
//! crashing process or failing disk would → "restart" with a fresh model
//! → assert the resume degrades gracefully (previous good generation, or
//! fresh training) and finishes with parameters bit-identical to an
//! uninterrupted run. A panic anywhere in recovery fails the drill.

use kgrec_core::panic_message;
use kgrec_graph::{KgBuilder, KnowledgeGraph};
use kgrec_kge::{train_guarded, TrainConfig, TransE};
use kgrec_linalg::DivergencePolicy;
use kgrec_store::{inject_storage, CheckpointStore, StorageFault};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

const DIM: usize = 8;
const EPOCHS: usize = 6;

/// What one storage-fault drill observed.
#[derive(Debug, Clone)]
pub struct DrillOutcome {
    /// The fault that was injected.
    pub fault: StorageFault,
    /// Generation the restarted run resumed from (`None` = cold start).
    pub resumed_from: Option<u64>,
    /// Epoch the restarted run resumed at.
    pub start_epoch: usize,
    /// Whether the restarted run ended with a usable model.
    pub usable: bool,
    /// Whether the recovered parameters are bit-identical to the
    /// uninterrupted run's.
    pub bit_identical: bool,
    /// Panic message, if recovery panicked (an automatic drill failure).
    pub panicked: Option<String>,
}

impl DrillOutcome {
    /// Whether the drill passed: no panic, a usable model, and parameters
    /// bit-identical to the uninterrupted run.
    pub fn passed(&self) -> bool {
        self.panicked.is_none() && self.usable && self.bit_identical
    }

    /// One status line for drill reports.
    pub fn describe(&self) -> String {
        let recovery = match (&self.panicked, self.resumed_from) {
            (Some(msg), _) => format!("PANICKED: {msg}"),
            (None, Some(generation)) => {
                format!("resumed from generation {generation} at epoch {}", self.start_epoch)
            }
            (None, None) => "cold start (retrained from scratch)".to_string(),
        };
        format!(
            "{:<22} {} | usable={} bit-identical={} -> {}",
            self.fault.label(),
            recovery,
            self.usable,
            self.bit_identical,
            if self.passed() { "ok" } else { "FAILED" }
        )
    }
}

/// A small two-cluster graph, deterministic and fast to train on.
fn drill_graph() -> KnowledgeGraph {
    let mut b = KgBuilder::new();
    let ty = b.entity_type("node");
    let es: Vec<_> = (0..10).map(|i| b.entity(&format!("n{i}"), ty)).collect();
    let r = b.relation("linked");
    for cluster in [0..5usize, 5..10] {
        for i in cluster.clone() {
            for j in cluster.clone() {
                if i != j {
                    b.triple(es[i], r, es[j]);
                }
            }
        }
    }
    b.build(false)
}

fn drill_config() -> TrainConfig {
    TrainConfig { epochs: EPOCHS, learning_rate: 0.05, seed: 33, threads: Some(1) }
}

/// Runs one storage-fault drill in `dir` (wiped first).
///
/// The sequence: a full checkpointed training run populates `dir` with
/// one generation per epoch; `fault` is injected; a fresh model (with a
/// *different* init seed, which a correct resume must ignore) restarts
/// `train_guarded` against the damaged store. The drill passes when
/// recovery neither panics nor loads garbage: the restarted run must end
/// bit-identical to the uninterrupted one.
pub fn run_storage_drill(fault: StorageFault, dir: &Path) -> DrillOutcome {
    let _ = std::fs::remove_dir_all(dir);
    let graph = drill_graph();
    let config = drill_config();

    // Keep every generation so corrupting the newest still leaves
    // predecessors to fall back to.
    let store = match CheckpointStore::open(dir) {
        Ok(s) => s.with_retention(EPOCHS + 2),
        Err(e) => {
            return DrillOutcome {
                fault,
                resumed_from: None,
                start_epoch: 0,
                usable: false,
                bit_identical: false,
                panicked: Some(format!("opening store: {e}")),
            }
        }
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut reference =
        TransE::new(&mut rng, graph.num_entities(), graph.num_relations(), DIM, 1.0);
    train_guarded(&mut reference, &graph, &config, DivergencePolicy::default(), Some(&store));

    if let Err(e) = inject_storage(&store, fault) {
        return DrillOutcome {
            fault,
            resumed_from: None,
            start_epoch: 0,
            usable: false,
            bit_identical: false,
            panicked: Some(format!("injecting fault: {e}")),
        };
    }

    // "Restart the process": fresh init from a different seed — only the
    // checkpoint (or a full retrain) can reproduce the reference bits.
    let graph2 = graph;
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = StdRng::seed_from_u64(4242);
        let mut resumed =
            TransE::new(&mut rng, graph2.num_entities(), graph2.num_relations(), DIM, 1.0);
        let policy = DivergencePolicy::default();
        let report = train_guarded(&mut resumed, &graph2, &config, policy, Some(&store));
        (resumed, report)
    }));
    match caught {
        Ok((resumed, report)) => {
            let bit_identical = reference
                .entities()
                .data()
                .iter()
                .zip(resumed.entities().data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            DrillOutcome {
                fault,
                resumed_from: report.resumed_from,
                start_epoch: report.start_epoch,
                usable: report.usable(),
                bit_identical,
                panicked: None,
            }
        }
        Err(payload) => DrillOutcome {
            fault,
            resumed_from: None,
            start_epoch: 0,
            usable: false,
            bit_identical: false,
            panicked: Some(panic_message(payload.as_ref())),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_storage_fault_drill_passes() {
        let root = std::env::temp_dir().join(format!("kgrec_bench_drill_{}", std::process::id()));
        for fault in StorageFault::all() {
            let outcome = run_storage_drill(fault, &root.join(fault.label()));
            assert!(outcome.passed(), "{}", outcome.describe());
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
