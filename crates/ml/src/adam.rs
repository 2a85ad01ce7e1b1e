//! The Adam optimizer (Kingma & Ba), the optimizer named in the paper's
//! training case study ("Our training program uses the AdamOptimizer with
//! a learning rate of 0.001").

use crate::mlp::{Gradients, Mlp};

/// Adam state for a model.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate (paper: 0.001).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the paper's learning rate and the canonical defaults.
    pub fn paper_defaults(model: &Mlp) -> Adam {
        Adam::new(model, 0.001)
    }

    /// Adam with a custom learning rate.
    pub fn new(model: &Mlp, lr: f32) -> Adam {
        let shapes: Vec<usize> = model
            .layers
            .iter()
            .flat_map(|l| [l.w.len(), l.b.len()])
            .collect();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: shapes.iter().map(|&n| vec![0.0; n]).collect(),
            v: shapes.iter().map(|&n| vec![0.0; n]).collect(),
        }
    }

    /// Apply one update to `model` from `grads`.
    pub fn step(&mut self, model: &mut Mlp, grads: &Gradients) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let mut block = 0usize;
        let m = &mut self.m;
        let v = &mut self.v;
        model.for_each_param_block(grads, |params, g| {
            let mb = &mut m[block];
            let vb = &mut v[block];
            for i in 0..params.len() {
                let gi = g[i];
                mb[i] = b1 * mb[i] + (1.0 - b1) * gi;
                vb[i] = b2 * vb[i] + (1.0 - b2) * gi * gi;
                let m_hat = mb[i] / bc1;
                let v_hat = vb[i] / bc2;
                params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            block += 1;
        });
    }
}

/// A trainer bundling a model and its optimizer state.
#[derive(Clone, Debug)]
pub struct Trainer {
    /// The model being trained.
    pub model: Mlp,
    /// Optimizer state.
    pub opt: Adam,
}

impl Trainer {
    /// The paper's setup: its MLP with Adam at lr 0.001.
    pub fn paper_setup(seed: u64) -> Trainer {
        let model = Mlp::paper_model(seed);
        let opt = Adam::paper_defaults(&model);
        Trainer { model, opt }
    }

    /// Build with explicit dims/lr.
    pub fn new(dims: &[usize], lr: f32, seed: u64) -> Trainer {
        let model = Mlp::new(dims, seed);
        let opt = Adam::new(&model, lr);
        Trainer { model, opt }
    }

    /// One optimization step on a batch; returns the pre-step mean loss.
    pub fn train_batch(&mut self, xs: &[crate::sparse::SparseVec], ys: &[f32]) -> f32 {
        let (loss, grads) = self.model.batch_gradients(xs, ys);
        self.opt.step(&mut self.model, &grads);
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVec;

    fn toy_dataset() -> (Vec<SparseVec>, Vec<f32>) {
        // y = 2*x0 - x1 + 1, a few points.
        let points = [
            ([0.0f32, 0.0], 1.0f32),
            ([1.0, 0.0], 3.0),
            ([0.0, 1.0], 0.0),
            ([1.0, 1.0], 2.0),
            ([0.5, 0.25], 1.75),
            ([-1.0, 0.5], -1.5),
        ];
        let xs = points
            .iter()
            .map(|(x, _)| SparseVec::from_pairs(vec![(0, x[0]), (1, x[1])]))
            .collect();
        let ys = points.iter().map(|&(_, y)| y).collect();
        (xs, ys)
    }

    #[test]
    fn adam_reduces_loss_on_toy_problem() {
        let mut t = Trainer::new(&[2, 8, 8, 1], 0.01, 42);
        let (xs, ys) = toy_dataset();
        let first = t.train_batch(&xs, &ys);
        let mut last = first;
        for _ in 0..500 {
            last = t.train_batch(&xs, &ys);
        }
        assert!(
            last < first * 0.05,
            "loss did not drop enough: {first} -> {last}"
        );
        assert_eq!(t.opt.t, 501);
    }

    #[test]
    fn updates_are_finite_even_with_zero_grads() {
        let mut t = Trainer::new(&[2, 4, 1], 0.001, 1);
        // All-zero input => first layer grads zero for weights.
        let xs = vec![SparseVec::new()];
        let ys = vec![0.5];
        for _ in 0..10 {
            t.train_batch(&xs, &ys);
        }
        for layer in &t.model.layers {
            assert!(layer.w.iter().all(|w| w.is_finite()));
            assert!(layer.b.iter().all(|b| b.is_finite()));
        }
    }

    #[test]
    fn paper_setup_shapes() {
        let t = Trainer::paper_setup(3);
        assert_eq!(t.model.param_count(), 68_001);
        assert!((t.opt.lr - 0.001).abs() < 1e-9);
        assert_eq!(t.opt.t, 0);
    }

    #[test]
    fn deterministic_training() {
        let (xs, ys) = toy_dataset();
        let run = |seed| {
            let mut t = Trainer::new(&[2, 4, 1], 0.01, seed);
            for _ in 0..50 {
                t.train_batch(&xs, &ys);
            }
            t.model.layers[1].w.clone()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn step_moves_toward_gradient_descent_direction() {
        let mut t = Trainer::new(&[1, 1], 0.1, 2);
        // Single linear unit: pred = w*x + b; force known gradient sign.
        t.model.layers[0].w = vec![0.0];
        t.model.layers[0].b = vec![0.0];
        let xs = vec![SparseVec::from_pairs(vec![(0, 1.0)])];
        let ys = vec![1.0]; // err = -1 => grad_w = -1 => w must increase
        t.train_batch(&xs, &ys);
        assert!(t.model.layers[0].w[0] > 0.0);
        assert!(t.model.layers[0].b[0] > 0.0);
    }
}
