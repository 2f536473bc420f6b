//! The full model zoo on one dataset: every implemented method of the
//! survey's taxonomy trained and evaluated side by side.
//!
//! ```bash
//! cargo run --release -p kgrec-bench --example model_zoo
//! ```

use kgrec_bench::{evaluate_model_supervised, par, print_eval_table, standard_split};
use kgrec_core::SupervisorConfig;
use kgrec_data::synth::{generate, ScenarioConfig};
use kgrec_models::registry::all_models;

fn main() {
    let synth = generate(&ScenarioConfig::tiny(), 2024);
    let split = standard_split(&synth, 7);
    let threads = par::resolve_threads(None);
    let config = SupervisorConfig::default();
    let mut rows = Vec::new();
    for mut model in all_models(false) {
        print!("training {:<12}\r", model.name());
        let report =
            evaluate_model_supervised(model.as_mut(), &synth, &split, 11, &config, threads, None);
        rows.extend(report.row);
    }
    rows.sort_by(|a, b| b.auc.partial_cmp(&a.auc).unwrap_or(std::cmp::Ordering::Equal));
    print_eval_table("model zoo (tiny synthetic scenario, sorted by AUC)", &rows, true);
}
