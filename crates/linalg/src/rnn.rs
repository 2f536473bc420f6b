//! Vanilla recurrent cell with back-propagation through time.
//!
//! The path-based recommenders of the survey (RKGE, KPRN, EIUM) encode
//! entity/relation sequences with recurrent networks. The original papers
//! use GRUs or LSTMs; this crate implements a tanh RNN —
//! `h_t = tanh(W_x·x_t + W_h·h_{t−1} + b)` — which preserves what the
//! taxonomy cares about (sequential path encoding with shared weights)
//! while keeping the hand-derived BPTT tractable and testable. The
//! substitution is recorded in `DESIGN.md` §2.

use crate::init;
use crate::matrix::Matrix;
use crate::vector;
use rand::Rng;

/// A tanh recurrent cell over sequences of fixed-dimension inputs.
#[derive(Debug, Clone)]
pub struct RnnCell {
    wx: Matrix,
    wh: Matrix,
    b: Vec<f32>,
    gwx: Matrix,
    gwh: Matrix,
    gb: Vec<f32>,
}

/// Cached state of one forward run, consumed by [`RnnCell::backward`].
#[derive(Debug, Clone)]
pub struct RnnTrace {
    /// The input sequence that was fed forward.
    inputs: Vec<Vec<f32>>,
    /// Hidden states `h_0 (zeros), h_1, …, h_T`.
    hidden: Vec<Vec<f32>>,
}

impl RnnTrace {
    /// The final hidden state `h_T` (zeros for an empty sequence).
    pub fn final_hidden(&self) -> &[f32] {
        self.hidden.last().expect("RnnTrace always contains h_0")
    }
}

impl RnnCell {
    /// Creates a cell mapping `input_dim`-vectors to `hidden_dim` state.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input_dim: usize, hidden_dim: usize) -> Self {
        let mut wx = Matrix::zeros(hidden_dim, input_dim);
        let mut wh = Matrix::zeros(hidden_dim, hidden_dim);
        init::xavier_uniform(rng, wx.data_mut(), input_dim, hidden_dim);
        init::xavier_uniform(rng, wh.data_mut(), hidden_dim, hidden_dim);
        Self {
            gwx: Matrix::zeros(hidden_dim, input_dim),
            gwh: Matrix::zeros(hidden_dim, hidden_dim),
            gb: vec![0.0; hidden_dim],
            b: vec![0.0; hidden_dim],
            wx,
            wh,
        }
    }

    /// Hidden dimension.
    pub(crate) fn hidden_dim(&self) -> usize {
        self.wh.rows()
    }

    /// Input dimension.
    pub(crate) fn input_dim(&self) -> usize {
        self.wx.cols()
    }

    /// Runs the cell over `inputs`, returning the trace needed for BPTT.
    pub fn forward(&self, inputs: &[Vec<f32>]) -> RnnTrace {
        let h_dim = self.hidden_dim();
        let mut hidden = Vec::with_capacity(inputs.len() + 1);
        hidden.push(vec![0.0f32; h_dim]);
        for x in inputs {
            assert_eq!(x.len(), self.input_dim(), "RnnCell: input dim mismatch");
            let mut pre = self.wx.matvec(x);
            let rec = self.wh.matvec(hidden.last().expect("nonempty"));
            vector::axpy(1.0, &rec, &mut pre);
            vector::axpy(1.0, &self.b, &mut pre);
            for v in pre.iter_mut() {
                *v = v.tanh();
            }
            hidden.push(pre);
        }
        RnnTrace { inputs: inputs.to_vec(), hidden }
    }

    /// Back-propagates a gradient `dl_dh_final` on the final hidden state
    /// through time, accumulating parameter gradients and returning the
    /// gradients with respect to each input vector (same order as inputs).
    pub fn backward(&mut self, trace: &RnnTrace, dl_dh_final: &[f32]) -> Vec<Vec<f32>> {
        assert_eq!(dl_dh_final.len(), self.hidden_dim(), "RnnCell: grad dim mismatch");
        let t_len = trace.inputs.len();
        let mut dinputs = vec![vec![0.0f32; self.input_dim()]; t_len];
        if t_len == 0 {
            return dinputs;
        }
        let mut dh = dl_dh_final.to_vec();
        for t in (0..t_len).rev() {
            let h_t = &trace.hidden[t + 1];
            let h_prev = &trace.hidden[t];
            // dl/dpre = dh * (1 - h²)
            let mut dpre = vec![0.0f32; dh.len()];
            for i in 0..dh.len() {
                dpre[i] = dh[i] * (1.0 - h_t[i] * h_t[i]);
            }
            self.gwx.rank1_update(1.0, &dpre, &trace.inputs[t]);
            self.gwh.rank1_update(1.0, &dpre, h_prev);
            vector::axpy(1.0, &dpre, &mut self.gb);
            dinputs[t] = self.wx.matvec_t(&dpre);
            dh = self.wh.matvec_t(&dpre);
        }
        dinputs
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gwx.fill_zero();
        self.gwh.fill_zero();
        self.gb.fill(0.0);
    }

    /// SGD step with gradient clipping at `clip` (ℓ∞), then clears grads.
    ///
    /// Clipping keeps BPTT stable for the longer meta-paths.
    pub fn step_sgd(&mut self, lr: f32, clip: f32) {
        let clamp = |g: f32| g.clamp(-clip, clip);
        let gwx = self.gwx.data().to_vec();
        for (p, g) in self.wx.data_mut().iter_mut().zip(gwx.iter()) {
            *p -= lr * clamp(*g);
        }
        let gwh = self.gwh.data().to_vec();
        for (p, g) in self.wh.data_mut().iter_mut().zip(gwh.iter()) {
            *p -= lr * clamp(*g);
        }
        for (p, g) in self.b.iter_mut().zip(self.gb.iter()) {
            *p -= lr * clamp(*g);
        }
        self.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_sequence_final_hidden_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let cell = RnnCell::new(&mut rng, 3, 4);
        let trace = cell.forward(&[]);
        assert_eq!(trace.final_hidden(), &[0.0; 4]);
        assert_eq!(trace.hidden.len(), 1, "only h_0");
    }

    #[test]
    fn hidden_values_bounded_by_tanh() {
        let mut rng = StdRng::seed_from_u64(2);
        let cell = RnnCell::new(&mut rng, 2, 3);
        let seq: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32, -(i as f32)]).collect();
        let trace = cell.forward(&seq);
        for h in &trace.hidden[1..] {
            assert!(h.iter().all(|v| v.abs() <= 1.0));
        }
        assert_eq!(trace.hidden.len() - 1, 5);
    }

    #[test]
    fn bptt_input_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cell = RnnCell::new(&mut rng, 2, 3);
        let seq = vec![vec![0.3f32, -0.7], vec![0.5, 0.1], vec![-0.2, 0.9]];
        let trace = cell.forward(&seq);
        // Loss = sum of final hidden.
        let dl = vec![1.0f32; 3];
        let dinputs = cell.backward(&trace, &dl);
        let eps = 1e-3;
        for t in 0..seq.len() {
            for i in 0..2 {
                let mut sp = seq.clone();
                sp[t][i] += eps;
                let mut sm = seq.clone();
                sm[t][i] -= eps;
                let lp: f32 = cell.forward(&sp).final_hidden().iter().sum();
                let lm: f32 = cell.forward(&sm).final_hidden().iter().sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (dinputs[t][i] - fd).abs() < 1e-2,
                    "t={t} i={i} an={} fd={fd}",
                    dinputs[t][i]
                );
            }
        }
    }

    #[test]
    fn bptt_weight_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut cell = RnnCell::new(&mut rng, 2, 2);
        let seq = vec![vec![0.4f32, -0.3], vec![-0.8, 0.6]];
        let trace = cell.forward(&seq);
        let _ = cell.backward(&trace, &[1.0, 1.0]);
        let gwh = cell.gwh.clone();
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..2 {
                let orig = cell.wh.get(r, c);
                cell.wh.set(r, c, orig + eps);
                let lp: f32 = cell.forward(&seq).final_hidden().iter().sum();
                cell.wh.set(r, c, orig - eps);
                let lm: f32 = cell.forward(&seq).final_hidden().iter().sum();
                cell.wh.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!((gwh.get(r, c) - fd).abs() < 1e-2, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn rnn_learns_to_separate_sequences() {
        // Distinguish an increasing sequence from a decreasing one via a
        // linear readout on the final state trained jointly.
        let mut rng = StdRng::seed_from_u64(7);
        let mut cell = RnnCell::new(&mut rng, 1, 4);
        let mut readout = vec![0.1f32; 4];
        let pos: Vec<Vec<f32>> = vec![vec![-1.0], vec![0.0], vec![1.0]];
        let neg: Vec<Vec<f32>> = vec![vec![1.0], vec![0.0], vec![-1.0]];
        for _ in 0..400 {
            for (seq, target) in [(&pos, 1.0f32), (&neg, 0.0f32)] {
                cell.zero_grad();
                let trace = cell.forward(seq);
                let z = vector::dot(&readout, trace.final_hidden());
                let y = vector::sigmoid(z);
                let dz = y - target; // BCE gradient through sigmoid
                                     // dl/dh = dz * readout; dl/dreadout = dz * h
                let dh: Vec<f32> = readout.iter().map(|r| dz * r).collect();
                let h = trace.final_hidden().to_vec();
                let _ = cell.backward(&trace, &dh);
                for (r, hv) in readout.iter_mut().zip(h.iter()) {
                    *r -= 0.2 * dz * hv;
                }
                cell.step_sgd(0.2, 5.0);
            }
        }
        let yp = vector::sigmoid(vector::dot(&readout, cell.forward(&pos).final_hidden()));
        let yn = vector::sigmoid(vector::dot(&readout, cell.forward(&neg).final_hidden()));
        assert!(yp > 0.8, "yp={yp}");
        assert!(yn < 0.2, "yn={yn}");
    }
}
