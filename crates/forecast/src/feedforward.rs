//! A simple feed-forward neural-network estimator.
//!
//! The paper trains GluonTS's *simple feed forward estimator* ("We tried
//! several other estimators but this model achieved highest accuracy",
//! Section 5.1). Architecturally that model maps a context window of recent
//! observations directly to a multi-step prediction window through a small
//! MLP. This module implements that from scratch: dense layers with ReLU
//! activations, mean-squared-error loss, mini-batch Adam, z-score input
//! normalization, and multi-step rollout for horizons longer than the
//! prediction window.

use crate::{check_history, FittedModel, ForecastError, ForecastGrid, Forecaster};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use seagull_linalg::{kernel, scratch};
use seagull_timeseries::TimeSeries;
use serde::{Deserialize, Serialize};

/// Feed-forward network hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeedForwardConfig {
    /// Number of lagged observations fed to the network.
    pub context_len: usize,
    /// Points predicted per forward pass; longer horizons roll out
    /// autoregressively.
    pub prediction_len: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Stride between consecutive training windows (1 = every window).
    pub stride: usize,
    /// RNG seed for weight init and batch shuffling.
    pub seed: u64,
}

impl Default for FeedForwardConfig {
    fn default() -> Self {
        FeedForwardConfig {
            context_len: 48,
            prediction_len: 96,
            hidden: vec![32],
            epochs: 12,
            batch_size: 32,
            learning_rate: 1e-3,
            stride: 2,
            seed: 7,
        }
    }
}

/// The feed-forward forecaster.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedForwardForecaster {
    config: FeedForwardConfig,
}

impl FeedForwardForecaster {
    /// Creates a forecaster with the given configuration.
    pub fn new(config: FeedForwardConfig) -> FeedForwardForecaster {
        FeedForwardForecaster { config }
    }

    /// The configuration.
    pub fn config(&self) -> &FeedForwardConfig {
        &self.config
    }
}

impl Default for FeedForwardForecaster {
    fn default() -> Self {
        FeedForwardForecaster::new(FeedForwardConfig::default())
    }
}

impl Forecaster for FeedForwardForecaster {
    fn name(&self) -> &'static str {
        "feedforward"
    }

    fn fit(&self, history: &TimeSeries) -> Result<Box<dyn FittedModel>, ForecastError> {
        let c = &self.config;
        if c.context_len == 0 || c.prediction_len == 0 || c.stride == 0 || c.batch_size == 0 {
            return Err(ForecastError::Numerical(
                "feed-forward config values must be positive".into(),
            ));
        }
        // Need at least one full (context, target) pair.
        check_history(history, c.context_len + c.prediction_len)?;

        // Z-score normalization over the whole history.
        let mean = history.mean();
        let std = seagull_timeseries::stddev(history.values()).max(1e-6);
        let norm: Vec<f64> = history.values().iter().map(|v| (v - mean) / std).collect();

        // Sliding (context -> target) windows.
        let n_windows = (norm.len() - c.context_len - c.prediction_len) / c.stride + 1;
        let mut order: Vec<usize> = (0..n_windows).map(|w| w * c.stride).collect();

        let mut rng = ChaCha8Rng::seed_from_u64(c.seed);
        let mut net = Mlp::new(c.context_len, &c.hidden, c.prediction_len, &mut rng);
        let mut adam = AdamState::new(&net);
        let mut grads = net.zero_grads();
        let mut ws = TrainScratch::new(&net);

        let mut step = 0usize;
        for _epoch in 0..c.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(c.batch_size) {
                grads.zero();
                for &start in chunk {
                    let x = &norm[start..start + c.context_len];
                    let y = &norm[start + c.context_len..start + c.context_len + c.prediction_len];
                    net.accumulate_gradients(x, y, &mut grads, &mut ws);
                }
                let scale = 1.0 / chunk.len() as f64;
                step += 1;
                adam.apply(&mut net, &grads, scale, c.learning_rate, step);
            }
        }
        ws.recycle();

        Ok(Box::new(FittedFeedForward {
            net,
            mean,
            std,
            context: norm[norm.len() - c.context_len..].to_vec(),
            grid: ForecastGrid::after(history),
            prediction_len: c.prediction_len,
        }))
    }
}

struct FittedFeedForward {
    net: Mlp,
    mean: f64,
    std: f64,
    /// Normalized trailing context at the end of history.
    context: Vec<f64>,
    grid: ForecastGrid,
    prediction_len: usize,
}

impl FittedModel for FittedFeedForward {
    fn predict(&self, horizon: usize) -> Result<TimeSeries, ForecastError> {
        let mut ctx = self.context.clone();
        let mut out_norm = Vec::with_capacity(horizon);
        while out_norm.len() < horizon {
            let pred = self.net.forward(&ctx);
            let take = self.prediction_len.min(horizon - out_norm.len());
            out_norm.extend_from_slice(&pred[..take]);
            // Roll the context forward with the (normalized) predictions.
            ctx.extend_from_slice(&pred[..take]);
            let excess = ctx.len() - self.context.len();
            ctx.drain(..excess);
        }
        let values: Vec<f64> = out_norm
            .iter()
            .map(|v| (v * self.std + self.mean).clamp(0.0, 100.0))
            .collect();
        self.grid.series(values)
    }
}

/// A minimal dense network: weights as flat row-major layers.
struct Mlp {
    /// Per layer: (out_dim, in_dim, weights[out*in], biases[out]).
    layers: Vec<Layer>,
}

struct Layer {
    out_dim: usize,
    in_dim: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// Per-layer gradient accumulators, same shapes as the layers.
struct Grads {
    w: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
}

impl Grads {
    fn zero(&mut self) {
        for g in self.w.iter_mut().chain(self.b.iter_mut()) {
            g.fill(0.0);
        }
    }
}

/// Flat training workspace borrowed from the thread-local scratch pool so
/// the per-sample forward/backward passes allocate nothing.
struct TrainScratch {
    /// All layer activations concatenated: the input block, then each
    /// layer's post-activation output block.
    acts: Vec<f64>,
    /// Start offset of each activation block in `acts`, plus an end sentinel.
    offsets: Vec<usize>,
    /// Backpropagated error for the current layer.
    delta: Vec<f64>,
    /// Error being assembled for the previous layer.
    prev: Vec<f64>,
}

impl TrainScratch {
    fn new(net: &Mlp) -> TrainScratch {
        let input = net.layers[0].in_dim;
        let mut offsets = Vec::with_capacity(net.layers.len() + 2);
        offsets.push(0);
        let mut total = input;
        let mut widest = input;
        for l in &net.layers {
            offsets.push(total);
            total += l.out_dim;
            widest = widest.max(l.out_dim);
        }
        offsets.push(total);
        let mut acts = scratch::take(total);
        acts.resize(total, 0.0);
        TrainScratch {
            acts,
            offsets,
            delta: scratch::take(widest),
            prev: scratch::take(widest),
        }
    }

    fn recycle(self) {
        scratch::recycle(self.acts);
        scratch::recycle(self.delta);
        scratch::recycle(self.prev);
    }
}

impl Mlp {
    fn new(input: usize, hidden: &[usize], output: usize, rng: &mut ChaCha8Rng) -> Mlp {
        let mut dims = vec![input];
        dims.extend_from_slice(hidden);
        dims.push(output);
        let layers = dims
            .windows(2)
            .map(|d| {
                let (in_dim, out_dim) = (d[0], d[1]);
                // He initialization for ReLU layers.
                let scale = (2.0 / in_dim as f64).sqrt();
                let w = (0..in_dim * out_dim)
                    .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
                    .collect();
                Layer {
                    out_dim,
                    in_dim,
                    w,
                    b: vec![0.0; out_dim],
                }
            })
            .collect();
        Mlp { layers }
    }

    fn zero_grads(&self) -> Grads {
        Grads {
            w: self.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            b: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Forward pass; hidden layers use ReLU, the output layer is linear.
    fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut a = x.to_vec();
        for (li, layer) in self.layers.iter().enumerate() {
            let mut z = vec![0.0f64; layer.out_dim];
            for (o, zo) in z.iter_mut().enumerate() {
                let wrow = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                *zo = layer.b[o] + kernel::dot(wrow, &a);
            }
            if li + 1 < self.layers.len() {
                for v in &mut z {
                    *v = v.max(0.0);
                }
            }
            a = z;
        }
        a
    }

    /// Forward + backward for one sample, accumulating dL/dθ for the
    /// squared-error loss `mean((ŷ - y)²)` into `grads`. Activations and
    /// error vectors live in `ws`; nothing is allocated per sample.
    fn accumulate_gradients(&self, x: &[f64], y: &[f64], grads: &mut Grads, ws: &mut TrainScratch) {
        let nl = self.layers.len();
        // Forward, keeping every activation block in the flat buffer.
        ws.acts[..x.len()].copy_from_slice(x);
        for (li, layer) in self.layers.iter().enumerate() {
            let (lo, mid, hi) = (ws.offsets[li], ws.offsets[li + 1], ws.offsets[li + 2]);
            let (head, tail) = ws.acts.split_at_mut(mid);
            let a = &head[lo..];
            let z = &mut tail[..hi - mid];
            for (o, zo) in z.iter_mut().enumerate() {
                let wrow = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                *zo = layer.b[o] + kernel::dot(wrow, a);
            }
            if li + 1 < nl {
                for v in z.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
        // Backward.
        let out = &ws.acts[ws.offsets[nl]..ws.offsets[nl + 1]];
        ws.delta.clear();
        ws.delta.extend(
            out.iter()
                .zip(y)
                .map(|(p, t)| 2.0 * (p - t) / y.len() as f64),
        );
        for li in (0..nl).rev() {
            let layer = &self.layers[li];
            let a_in = &ws.acts[ws.offsets[li]..ws.offsets[li + 1]];
            // Gradients for this layer.
            for (o, &d) in ws.delta.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                grads.b[li][o] += d;
                let grow = &mut grads.w[li][o * layer.in_dim..(o + 1) * layer.in_dim];
                kernel::axpy(grow, d, a_in);
            }
            if li == 0 {
                break;
            }
            // Propagate delta through weights and the previous ReLU.
            ws.prev.clear();
            ws.prev.resize(layer.in_dim, 0.0);
            for (o, &d) in ws.delta.iter().enumerate() {
                if d == 0.0 {
                    continue;
                }
                let wrow = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                kernel::axpy(&mut ws.prev, d, wrow);
            }
            for (p, &a) in ws.prev.iter_mut().zip(a_in) {
                if a <= 0.0 {
                    *p = 0.0; // ReLU gate (a_in is post-activation).
                }
            }
            std::mem::swap(&mut ws.delta, &mut ws.prev);
        }
    }
}

/// Adam optimizer state (first/second moments per parameter).
struct AdamState {
    m_w: Vec<Vec<f64>>,
    v_w: Vec<Vec<f64>>,
    m_b: Vec<Vec<f64>>,
    v_b: Vec<Vec<f64>>,
}

impl AdamState {
    const BETA1: f64 = 0.9;
    const BETA2: f64 = 0.999;
    const EPS: f64 = 1e-8;

    fn new(net: &Mlp) -> AdamState {
        AdamState {
            m_w: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            v_w: net.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            m_b: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            v_b: net.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    fn apply(&mut self, net: &mut Mlp, grads: &Grads, scale: f64, lr: f64, step: usize) {
        let bc1 = 1.0 - Self::BETA1.powi(step as i32);
        let bc2 = 1.0 - Self::BETA2.powi(step as i32);
        for (li, layer) in net.layers.iter_mut().enumerate() {
            for (i, w) in layer.w.iter_mut().enumerate() {
                let g = grads.w[li][i] * scale;
                let m = &mut self.m_w[li][i];
                let v = &mut self.v_w[li][i];
                *m = Self::BETA1 * *m + (1.0 - Self::BETA1) * g;
                *v = Self::BETA2 * *v + (1.0 - Self::BETA2) * g * g;
                *w -= lr * (*m / bc1) / ((*v / bc2).sqrt() + Self::EPS);
            }
            for (i, b) in layer.b.iter_mut().enumerate() {
                let g = grads.b[li][i] * scale;
                let m = &mut self.m_b[li][i];
                let v = &mut self.v_b[li][i];
                *m = Self::BETA1 * *m + (1.0 - Self::BETA1) * g;
                *v = Self::BETA2 * *v + (1.0 - Self::BETA2) * g * g;
                *b -= lr * (*m / bc1) / ((*v / bc2).sqrt() + Self::EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{daily_sine, rmse};
    use seagull_timeseries::{TimeSeries, Timestamp};

    fn fast_config() -> FeedForwardConfig {
        FeedForwardConfig {
            context_len: 24,
            prediction_len: 24,
            hidden: vec![16],
            epochs: 30,
            batch_size: 16,
            learning_rate: 3e-3,
            stride: 1,
            seed: 3,
        }
    }

    #[test]
    fn learns_constant_series() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 15, 300, |_| 37.0).unwrap();
        let model = FeedForwardForecaster::new(fast_config());
        let pred = model.fit_predict(&hist, 24).unwrap();
        for v in pred.values() {
            assert!((v - 37.0).abs() < 3.0, "value {v}");
        }
    }

    #[test]
    fn learns_daily_sine_roughly() {
        let hist = daily_sine(5, 15); // 96/day
        let mut cfg = fast_config();
        cfg.context_len = 96;
        cfg.prediction_len = 96;
        cfg.epochs = 40;
        let model = FeedForwardForecaster::new(cfg);
        let pred = model.fit_predict(&hist, 96).unwrap();
        let truth = daily_sine(6, 15);
        let expect = truth.slice(hist.end(), hist.end() + 1440).unwrap();
        let err = rmse(&pred, &expect);
        // A neural net trained briefly on a clean sine should get close;
        // the sine has amplitude 20 so rmse 4 is "shape captured".
        assert!(err < 4.0, "rmse {err}");
    }

    #[test]
    fn multi_step_rollout_covers_horizon() {
        let hist = daily_sine(3, 15);
        let model = FeedForwardForecaster::new(fast_config());
        let pred = model.fit_predict(&hist, 100).unwrap();
        assert_eq!(pred.len(), 100); // 24-wide windows rolled out 5 times
        assert_eq!(pred.start(), hist.end());
    }

    #[test]
    fn deterministic_given_seed() {
        let hist = daily_sine(3, 15);
        let model = FeedForwardForecaster::new(fast_config());
        let a = model.fit_predict(&hist, 48).unwrap();
        let b = model.fit_predict(&hist, 48).unwrap();
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn insufficient_history_rejected() {
        let hist = TimeSeries::from_fn(Timestamp::from_days(5), 15, 30, |_| 1.0).unwrap();
        let model = FeedForwardForecaster::new(fast_config());
        assert!(matches!(
            model.fit(&hist),
            Err(ForecastError::InsufficientHistory { .. })
        ));
    }

    #[test]
    fn nan_history_rejected() {
        let mut hist = daily_sine(2, 15);
        hist.values_mut()[10] = f64::NAN;
        assert!(matches!(
            FeedForwardForecaster::new(fast_config()).fit(&hist),
            Err(ForecastError::NonFiniteHistory)
        ));
    }

    #[test]
    fn zero_config_rejected() {
        let hist = daily_sine(2, 15);
        let mut cfg = fast_config();
        cfg.stride = 0;
        assert!(FeedForwardForecaster::new(cfg).fit(&hist).is_err());
    }

    #[test]
    fn repeated_fits_reuse_scratch_buffers() {
        let hist = daily_sine(3, 15);
        let model = FeedForwardForecaster::new(fast_config());
        // First fit seeds this thread's pool; later fits draw from it.
        model.fit(&hist).unwrap();
        let before = seagull_linalg::scratch::stats();
        model.fit(&hist).unwrap();
        let after = seagull_linalg::scratch::stats();
        assert!(
            after.reuses > before.reuses,
            "second fit reused no scratch buffers ({before:?} -> {after:?})"
        );
    }

    #[test]
    fn outputs_stay_in_percentage_range() {
        let hist = daily_sine(3, 15);
        let pred = FeedForwardForecaster::new(fast_config())
            .fit_predict(&hist, 200)
            .unwrap();
        for v in pred.values() {
            assert!((0.0..=100.0).contains(v));
        }
    }
}
