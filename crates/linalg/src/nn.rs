//! Dense neural layers with hand-written backward passes.
//!
//! A handful of surveyed models wrap their scoring functions in small MLPs
//! (DKN's scorer, MKR's towers, MCRec's co-attention). [`Dense`] implements
//! one affine-plus-activation layer; [`Mlp`] chains them. Both accumulate
//! parameter gradients internally — the training loop is:
//!
//! ```text
//! mlp.zero_grad();
//! let y = mlp.forward(&x);            // caches activations
//! let dx = mlp.backward(&dl_dy);      // accumulates dW, db, returns dL/dx
//! mlp.step_sgd(lr, l2);
//! ```
//!
//! Layers deliberately cache the *last* forward pass only: the models train
//! one example at a time (matching the original SGD formulations), and the
//! gradient-check tests validate each layer against finite differences.

use crate::init;
use crate::matrix::Matrix;
use crate::vector;
use rand::Rng;

/// Element-wise activation functions used across the models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `f(x) = x`.
    Identity,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// `log(1 + eˣ)`.
    Softplus,
}

impl Activation {
    /// Applies the activation to one value.
    #[inline]
    pub(crate) fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Sigmoid => vector::sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Relu => x.max(0.0),
            Activation::Softplus => vector::softplus(x),
        }
    }

    /// Derivative `f'(x)` given both the pre-activation `x` and the output
    /// `y = f(x)` (whichever is cheaper is used).
    #[inline]
    pub(crate) fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Tanh => 1.0 - y * y,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Softplus => vector::sigmoid(x),
        }
    }

    /// Applies the activation element-wise in place.
    pub(crate) fn apply_slice(self, xs: &mut [f32]) {
        for v in xs.iter_mut() {
            *v = self.apply(*v);
        }
    }
}

/// One dense layer `y = f(W·x + b)` with gradient accumulation.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
    act: Activation,
    // Cached forward state (input, pre-activation, output). Exactly one of
    // `last_x` / `last_active` is non-empty after a forward pass; the other
    // is cleared so a dense backward cannot consume a sparse cache.
    last_x: Vec<f32>,
    last_active: Vec<usize>,
    last_pre: Vec<f32>,
    last_y: Vec<f32>,
    // Reused scratch of the fused backward kernels: `dL/dpre` per output,
    // and one row's active weights saved before the decay sweep.
    dpre: Vec<f32>,
    saved: Vec<f32>,
}

impl Dense {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, input: usize, output: usize, act: Activation) -> Self {
        let mut w = Matrix::zeros(output, input);
        init::xavier_uniform(rng, w.data_mut(), input, output);
        Self {
            gw: Matrix::zeros(output, input),
            gb: vec![0.0; output],
            b: vec![0.0; output],
            w,
            act,
            last_x: Vec::new(),
            last_active: Vec::new(),
            last_pre: Vec::new(),
            last_y: Vec::new(),
            dpre: Vec::new(),
            saved: Vec::new(),
        }
    }

    /// Immutable weight matrix view.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Mutable weight matrix view (for custom initialization in tests).
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.w
    }

    /// Immutable bias view.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Mutable bias view (for delta-merging replicated layers).
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.b
    }

    /// Runs the layer forward, caching the activations for `backward`.
    ///
    /// The pre-activation and output are written straight into the cached
    /// buffers (reused across calls); only the returned copy allocates.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.w.cols(), "Dense::forward: input dim mismatch");
        self.last_pre.resize(self.w.rows(), 0.0);
        self.w.matvec_into(x, &mut self.last_pre);
        vector::axpy(1.0, &self.b, &mut self.last_pre);
        self.cache_output();
        self.last_x.clear();
        self.last_x.extend_from_slice(x);
        self.last_active.clear();
        self.last_y.clone()
    }

    /// Forward pass for a *binary* input vector given as the ascending list
    /// of its non-zero (`= 1.0`) coordinates. Skipped terms are exact
    /// multiplications by `0.0`, so the result matches `forward` on the
    /// equivalent dense 0/1 vector. Caches state for [`Self::backward_sparse`].
    pub fn forward_sparse(&mut self, active: &[usize]) -> Vec<f32> {
        self.last_pre.clear();
        for (k, &b) in self.b.iter().enumerate() {
            let row = self.w.row(k);
            let mut acc = 0.0f32;
            for &j in active {
                acc += row[j];
            }
            self.last_pre.push(acc + b);
        }
        self.cache_output();
        self.last_x.clear();
        self.last_active.clear();
        self.last_active.extend_from_slice(active);
        self.last_y.clone()
    }

    /// `last_y = f(last_pre)`, reusing the cached buffer.
    fn cache_output(&mut self) {
        self.last_y.clear();
        self.last_y.extend_from_slice(&self.last_pre);
        self.act.apply_slice(&mut self.last_y);
    }

    /// Pure sparse inference: `infer` on a binary vector with the given
    /// non-zero coordinates, without touching the cache.
    pub fn infer_sparse(&self, active: &[usize]) -> Vec<f32> {
        let mut pre = vec![0.0f32; self.w.rows()];
        for (k, p) in pre.iter_mut().enumerate() {
            let row = self.w.row(k);
            let mut acc = 0.0f32;
            for &j in active {
                acc += row[j];
            }
            *p = acc + self.b[k];
        }
        self.act.apply_slice(&mut pre);
        pre
    }

    /// Pure inference forward pass: no caching, usable through `&self`.
    pub(crate) fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut pre = self.w.matvec(x);
        vector::axpy(1.0, &self.b, &mut pre);
        self.act.apply_slice(&mut pre);
        pre
    }

    /// Back-propagates `dl_dy` through the cached forward pass, accumulating
    /// parameter gradients, and returns `dl_dx`.
    ///
    /// # Panics
    /// Panics if `forward` has not been called or dimensions disagree.
    pub fn backward(&mut self, dl_dy: &[f32]) -> Vec<f32> {
        assert_eq!(dl_dy.len(), self.w.rows(), "Dense::backward: output dim mismatch");
        assert_eq!(self.last_x.len(), self.w.cols(), "Dense::backward: forward not cached");
        // dl/dpre = dl/dy * f'(pre)
        let mut dpre = vec![0.0f32; dl_dy.len()];
        for i in 0..dl_dy.len() {
            dpre[i] = dl_dy[i] * self.act.derivative(self.last_pre[i], self.last_y[i]);
        }
        // dW += dpre · xᵀ ; db += dpre
        self.gw.rank1_update(1.0, &dpre, &self.last_x);
        vector::axpy(1.0, &dpre, &mut self.gb);
        // dl/dx = Wᵀ · dpre
        self.w.matvec_t(&dpre)
    }

    /// Fused [`Self::backward`] + [`Self::step_sgd`]: back-propagates
    /// `dl_dy` through the cached dense forward pass and applies the SGD
    /// step in one sweep of the weights, never materialising the gradient
    /// matrix. Returns `dl_dx`, computed against the pre-step weights
    /// exactly as the unfused pair does.
    ///
    /// `Wᵀ·dpre` is folded into the same sweep: row `r` first adds
    /// `dpre[r]·w[r][j]` into `dl_dx[j]` with the weight it had *before*
    /// the step, then steps it. Rows ascend, so every `dl_dx[j]` sums its
    /// terms in [`Matrix::matvec_t_into`]'s order and the weights are read
    /// once instead of twice.
    ///
    /// Bit-identical to `backward` followed by `step_sgd` *only* from the
    /// cleared-gradient state every `step_sgd`/`zero_grad` leaves behind:
    /// the per-weight update replays the accumulate-then-step arithmetic
    /// (`g = 0.0 + dpre·x`, then `w -= lr·(g + l2·w)`) term for term —
    /// the leading `0.0 +` keeps the `-0.0` gradients the accumulator
    /// would have canonicalised.
    ///
    /// # Panics
    /// Panics if `forward` has not been called or dimensions disagree.
    pub fn backward_step_sgd(&mut self, dl_dy: &[f32], lr: f32, l2: f32) -> Vec<f32> {
        assert_eq!(dl_dy.len(), self.w.rows(), "Dense::backward: output dim mismatch");
        assert_eq!(self.last_x.len(), self.w.cols(), "Dense::backward: forward not cached");
        debug_assert!(
            self.gw.data().iter().chain(self.gb.iter()).all(|&g| g == 0.0 && g.is_sign_positive()),
            "Dense::backward_step_sgd: accumulated gradients must be clear"
        );
        self.fill_dpre(dl_dy);
        let cols = self.w.cols();
        let mut dl_dx = vec![0.0f32; cols];
        // `max(1)`: a zero-input layer has no weight rows, only a bias.
        for (wrow, &d) in self.w.data_mut().chunks_exact_mut(cols.max(1)).zip(&self.dpre) {
            for ((wj, gx), &xj) in wrow.iter_mut().zip(dl_dx.iter_mut()).zip(&self.last_x) {
                *gx += d * *wj;
                *wj -= lr * ((0.0 + d * xj) + l2 * *wj);
            }
        }
        for (b, &d) in self.b.iter_mut().zip(&self.dpre) {
            *b -= lr * (0.0 + d);
        }
        dl_dx
    }

    /// Fused [`Self::backward_sparse`] + [`Self::step_sgd`]: applies the
    /// sparse-input gradient (active columns only) and the dense L2 decay
    /// (every column) without touching the gradient matrix. Bit-identical
    /// to the unfused pair from the cleared-gradient state.
    ///
    /// Each row takes a branch-free decay sweep and a short fix-up: the
    /// active weights are saved first, every column then takes the
    /// zero-gradient update `w -= lr·(0.0 + l2·w)` (a loop the compiler
    /// vectorises), and each active column is rewritten from its saved
    /// value `s` as `s - lr·((0.0 + dpre) + l2·s)` — the exact value the
    /// per-element update would have produced. The literal `0.0 +` terms
    /// replay the accumulator's `±0.0` canonicalisation. The cached active
    /// list must be strictly ascending, as [`Self::forward_sparse`]
    /// requires.
    ///
    /// # Panics
    /// Panics if `forward_sparse` has not been called or dimensions disagree.
    pub fn backward_sparse_step_sgd(&mut self, dl_dy: &[f32], lr: f32, l2: f32) {
        assert_eq!(dl_dy.len(), self.w.rows(), "Dense::backward: output dim mismatch");
        assert_eq!(self.last_pre.len(), self.w.rows(), "Dense::backward: forward not cached");
        assert!(self.last_x.is_empty(), "Dense::backward_sparse: last forward pass was dense");
        debug_assert!(
            self.gw.data().iter().chain(self.gb.iter()).all(|&g| g == 0.0 && g.is_sign_positive()),
            "Dense::backward_sparse_step_sgd: accumulated gradients must be clear"
        );
        debug_assert!(
            self.last_active.windows(2).all(|p| p[0] < p[1]),
            "Dense::backward_sparse_step_sgd: active list must be strictly ascending"
        );
        self.fill_dpre(dl_dy);
        let cols = self.w.cols();
        for (wrow, &d) in self.w.data_mut().chunks_exact_mut(cols.max(1)).zip(&self.dpre) {
            self.saved.clear();
            self.saved.extend(self.last_active.iter().map(|&j| wrow[j]));
            for wj in wrow.iter_mut() {
                *wj -= lr * (0.0 + l2 * *wj);
            }
            for (&j, &s) in self.last_active.iter().zip(&self.saved) {
                wrow[j] = s - lr * ((0.0 + d) + l2 * s);
            }
        }
        for (b, &d) in self.b.iter_mut().zip(&self.dpre) {
            *b -= lr * (0.0 + d);
        }
    }

    /// `dpre[i] = dl_dy[i] · f'(pre[i])` into the reused scratch buffer.
    fn fill_dpre(&mut self, dl_dy: &[f32]) {
        let act = self.act;
        self.dpre.clear();
        self.dpre.extend(
            dl_dy
                .iter()
                .zip(self.last_pre.iter().zip(&self.last_y))
                .map(|(&g, (&pre, &y))| g * act.derivative(pre, y)),
        );
    }

    /// Backward pass matching [`Self::forward_sparse`]: accumulates `dW`
    /// only on the active columns (inactive columns would receive exact
    /// `±0.0` contributions) and `db`, without materialising `dL/dx` —
    /// the sparse input layer has nothing upstream to propagate into.
    ///
    /// # Panics
    /// Panics if `forward_sparse` has not been called or dimensions disagree.
    pub fn backward_sparse(&mut self, dl_dy: &[f32]) {
        assert_eq!(dl_dy.len(), self.w.rows(), "Dense::backward: output dim mismatch");
        assert_eq!(self.last_pre.len(), self.w.rows(), "Dense::backward: forward not cached");
        assert!(self.last_x.is_empty(), "Dense::backward_sparse: last forward pass was dense");
        for k in 0..dl_dy.len() {
            let dpre = dl_dy[k] * self.act.derivative(self.last_pre[k], self.last_y[k]);
            let grow = self.gw.row_mut(k);
            for &j in &self.last_active {
                grow[j] += dpre;
            }
            self.gb[k] += dpre;
        }
    }

    /// Zeroes the accumulated gradients.
    pub(crate) fn zero_grad(&mut self) {
        self.gw.fill_zero();
        self.gb.fill(0.0);
    }

    /// Applies one SGD step with learning rate `lr` and L2 coefficient `l2`,
    /// then clears the gradients. Update and clear are fused into a single
    /// pass over each parameter block.
    pub fn step_sgd(&mut self, lr: f32, l2: f32) {
        for (p, g) in self.w.data_mut().iter_mut().zip(self.gw.data_mut().iter_mut()) {
            *p -= lr * (*g + l2 * *p);
            *g = 0.0;
        }
        for (p, g) in self.b.iter_mut().zip(self.gb.iter_mut()) {
            *p -= lr * *g;
            *g = 0.0;
        }
    }

    /// SGD step touching only the active weight columns plus the bias.
    ///
    /// Valid only for the `l2 == 0.0` regime where inactive columns carry an
    /// exact `+0.0` gradient and the dense update would leave them bitwise
    /// unchanged; `active` must cover every column touched since the last
    /// step. Gradients for the touched entries are cleared.
    pub fn step_sgd_sparse(&mut self, lr: f32, active: &[usize]) {
        let cols = self.w.cols();
        for k in 0..self.w.rows() {
            let wrow = &mut self.w.data_mut()[k * cols..(k + 1) * cols];
            let grow = self.gw.row_mut(k);
            for &j in active {
                wrow[j] -= lr * grow[j];
                grow[j] = 0.0;
            }
        }
        for (p, g) in self.b.iter_mut().zip(self.gb.iter_mut()) {
            *p -= lr * *g;
            *g = 0.0;
        }
    }
}

/// A feed-forward stack of [`Dense`] layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes. `sizes = [in, h1, …, out]`;
    /// hidden layers use `hidden_act`, the final layer uses `out_act`.
    ///
    /// # Panics
    /// Panics if fewer than two sizes are given.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        sizes: &[usize],
        hidden_act: Activation,
        out_act: Activation,
    ) -> Self {
        assert!(sizes.len() >= 2, "Mlp: need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let is_last = layers.len() == sizes.len() - 2;
            let act = if is_last { out_act } else { hidden_act };
            layers.push(Dense::new(rng, w[0], w[1], act));
        }
        Self { layers }
    }

    /// Forward pass with caching for `backward`.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Pure inference pass without caching.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.infer(&cur);
        }
        cur
    }

    /// Back-propagates through all layers; returns `dL/dx`.
    pub fn backward(&mut self, dl_dy: &[f32]) -> Vec<f32> {
        let mut grad = dl_dy.to_vec();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// SGD step on every layer, then clears gradients.
    pub fn step_sgd(&mut self, lr: f32, l2: f32) {
        for layer in &mut self.layers {
            layer.step_sgd(lr, l2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn activations_match_derivative_by_finite_difference() {
        let acts = [
            Activation::Identity,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Relu,
            Activation::Softplus,
        ];
        for act in acts {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                let eps = 1e-3;
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let an = act.derivative(x, act.apply(x));
                assert!((fd - an).abs() < 1e-2, "{act:?} x={x} fd={fd} an={an}");
            }
        }
    }

    #[test]
    fn dense_backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Dense::new(&mut rng, 3, 2, Activation::Tanh);
        let x = [0.2f32, -0.4, 0.9];
        // Loss = sum of outputs.
        let y = layer.forward(&x);
        let dl_dy = vec![1.0f32; y.len()];
        let dx = layer.backward(&dl_dy);
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let lp: f32 = layer.infer(&xp).iter().sum();
            let lm: f32 = layer.infer(&xm).iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((dx[i] - fd).abs() < 1e-2, "i={i} dx={} fd={fd}", dx[i]);
        }
    }

    #[test]
    fn dense_weight_grad_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Dense::new(&mut rng, 2, 2, Activation::Sigmoid);
        let x = [0.5f32, -1.0];
        let y = layer.forward(&x);
        let dl_dy = vec![1.0f32; y.len()];
        let _ = layer.backward(&dl_dy);
        let gw = layer.gw.clone();
        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..2 {
                let orig = layer.w.get(r, c);
                layer.w.set(r, c, orig + eps);
                let lp: f32 = layer.infer(&x).iter().sum();
                layer.w.set(r, c, orig - eps);
                let lm: f32 = layer.infer(&x).iter().sum();
                layer.w.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                assert!((gw.get(r, c) - fd).abs() < 1e-2, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut mlp = Mlp::new(&mut rng, &[2, 8, 1], Activation::Tanh, Activation::Sigmoid);
        let data =
            [([0.0f32, 0.0], 0.0f32), ([0.0, 1.0], 1.0), ([1.0, 0.0], 1.0), ([1.0, 1.0], 0.0)];
        for _ in 0..3000 {
            for (x, t) in &data {
                mlp.zero_grad();
                let y = mlp.forward(x)[0];
                // Binary cross-entropy gradient wrt sigmoid output: (y - t)/ (y(1-y))
                // Use squared error for robustness: dl/dy = 2(y - t).
                let _ = mlp.backward(&[2.0 * (y - t)]);
                mlp.step_sgd(0.5, 0.0);
            }
        }
        for (x, t) in &data {
            let y = mlp.infer(x)[0];
            assert!((y - t).abs() < 0.2, "x={x:?} y={y} t={t}");
        }
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng, &[4, 3, 2], Activation::Relu, Activation::Identity);
        let x = [0.1f32, 0.2, 0.3, 0.4];
        let a = mlp.forward(&x);
        let b = mlp.infer(&x);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn forward_checks_dims() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(&mut rng, 3, 2, Activation::Identity);
        let _ = layer.forward(&[1.0]);
    }

    #[test]
    fn sparse_paths_bit_match_dense_on_binary_input() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut dense = Dense::new(&mut rng, 7, 3, Activation::Sigmoid);
        let mut sparse = dense.clone();
        let active = [1usize, 4, 6];
        let mut x = vec![0.0f32; 7];
        for &j in &active {
            x[j] = 1.0;
        }
        let yd = dense.forward(&x);
        let ys = sparse.forward_sparse(&active);
        assert_eq!(yd, ys);
        assert_eq!(sparse.infer_sparse(&active), dense.infer(&x));
        let dl = [0.5f32, -1.0, 0.25];
        let _ = dense.backward(&dl);
        sparse.backward_sparse(&dl);
        dense.step_sgd(0.1, 0.0);
        sparse.step_sgd_sparse(0.1, &active);
        assert_eq!(dense.weights().data(), sparse.weights().data());
        assert_eq!(dense.bias(), sparse.bias());
        // Second round: sparse step must have left gradients fully cleared.
        let yd2 = dense.forward(&x);
        let ys2 = sparse.forward_sparse(&active);
        assert_eq!(yd2, ys2);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_backward_step_matches_unfused() {
        for (seed, l2) in [(21u64, 0.0f32), (22, 1e-5), (23, 0.01)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut unfused = Dense::new(&mut rng, 5, 3, Activation::Tanh);
            let mut fused = unfused.clone();
            let x = [0.6f32, -0.3, 0.0, 1.2, -0.9];
            let y = unfused.forward(&x);
            let _ = fused.forward(&x);
            // A `-0.0` slot exercises the accumulator's sign canonicalisation.
            let dl: Vec<f32> =
                y.iter().enumerate().map(|(i, v)| if i == 0 { -0.0 } else { v - 0.5 }).collect();
            let dx_a = unfused.backward(&dl);
            unfused.step_sgd(0.07, l2);
            let dx_b = fused.backward_step_sgd(&dl, 0.07, l2);
            assert_eq!(bits(&dx_a), bits(&dx_b), "l2={l2}");
            assert_eq!(bits(unfused.weights().data()), bits(fused.weights().data()), "l2={l2}");
            assert_eq!(bits(unfused.bias()), bits(fused.bias()), "l2={l2}");
            // Second round proves the fused step left no stale gradient state.
            let y2 = unfused.forward(&x);
            let _ = fused.forward(&x);
            let dl2: Vec<f32> = y2.iter().map(|v| 0.25 - v).collect();
            let _ = unfused.backward(&dl2);
            unfused.step_sgd(0.07, l2);
            let _ = fused.backward_step_sgd(&dl2, 0.07, l2);
            assert_eq!(bits(unfused.weights().data()), bits(fused.weights().data()), "l2={l2}");
        }
    }

    #[test]
    fn fused_sparse_backward_step_matches_unfused() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut unfused = Dense::new(&mut rng, 7, 3, Activation::Tanh);
        let mut fused = unfused.clone();
        let active = [0usize, 2, 6];
        let y = unfused.forward_sparse(&active);
        let _ = fused.forward_sparse(&active);
        let dl: Vec<f32> = y.iter().map(|v| 0.7 - v).collect();
        unfused.backward_sparse(&dl);
        unfused.step_sgd(0.05, 1e-5);
        fused.backward_sparse_step_sgd(&dl, 0.05, 1e-5);
        assert_eq!(bits(unfused.weights().data()), bits(fused.weights().data()));
        assert_eq!(bits(unfused.bias()), bits(fused.bias()));
    }

    #[test]
    #[should_panic(expected = "last forward pass was dense")]
    fn backward_sparse_rejects_dense_cache() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(&mut rng, 2, 2, Activation::Identity);
        let _ = layer.forward(&[1.0, 0.0]);
        layer.backward_sparse(&[1.0, 1.0]);
    }
}
