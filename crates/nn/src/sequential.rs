//! A sequential container chaining layers.

use std::fmt;

use sl_telemetry::host;
use sl_tensor::Tensor;

use crate::shape::{ShapeError, ShapeStep, ShapeTrace};
use crate::Layer;

/// Runs layers in order on `forward`, in reverse on `backward`.
///
/// The UE-side network (a [`FusedCnn`](crate::FusedCnn) — `conv → relu →
/// conv → sigmoid` as one layer — then the average-pool cut layer) and
/// the BS-side head are each a `Sequential`; the split-learning trainer
/// in `sl-core` owns one per side and moves the cut-layer tensors between
/// them through the simulated channel.
///
/// Each layer borrows the previous layer's output, which is dropped once
/// the next layer has run. [`Layer::backward_params`] runs the backward
/// for a caller that discards the input gradient, letting the first layer
/// skip it (the UE's fused CNN skips the depth-image gradient this way).
///
/// While the calling thread records ([`sl_telemetry::host`]), every
/// forward, backward and whole inference pass ([`Sequential::infer_partial`]
/// is not recorded) files each layer's host time under
/// `{label}.layer.<idx>.<name>.{fwd,bwd}.host_s`, its modelled FLOPs
/// under `.flops` and its parameter count under `.params`. Off, each
/// layer costs one flag test.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Key prefix of the per-layer metrics ([`Sequential::labelled`]).
    label: &'static str,
    /// Each layer's FLOPs on its last recorded forward; its backward is
    /// charged twice that (one pass for input gradients, one for
    /// parameter gradients).
    fwd_flops: Vec<f64>,
}

impl Default for Sequential {
    fn default() -> Self {
        Sequential::new()
    }
}

impl Sequential {
    /// An empty container labelled `nn`.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            label: "nn",
            fwd_flops: Vec::new(),
        }
    }

    /// Sets the key prefix of the per-layer metrics (builder style): the
    /// trainer labels the UE stack `nn.ue` and the BS stack `nn.bs`.
    pub fn labelled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self.fwd_flops.push(0.0);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// [`Layer::infer`] through only the first `upto` layers (used for
    /// visualizing intermediate activations, e.g. the pre-pool CNN map).
    /// Like every inference it leaves layer caches and gradients alone.
    /// Partial passes are never recorded, so each layer's metrics count
    /// only whole passes.
    ///
    /// Panics when `upto` exceeds the layer count.
    pub fn infer_partial(&self, upto: usize, input: &Tensor) -> Tensor {
        assert!(
            upto <= self.layers.len(),
            "Sequential::infer_partial: upto {} exceeds {} layers",
            upto,
            self.layers.len()
        );
        self.run_infer(upto, input, false)
    }

    /// Inference through the first `upto` layers, recorded when `record`
    /// and the thread records.
    fn run_infer(&self, upto: usize, input: &Tensor, record: bool) -> Tensor {
        let record = record && host::is_recording();
        let mut x: Option<Tensor> = None;
        for (i, layer) in self.layers[..upto].iter().enumerate() {
            let key = LayerKey(self.label, i, layer.name());
            let xin = x.as_ref().unwrap_or(input);
            if record {
                host::add(format_args!("{key}.flops"), layer.flops_forward(xin.dims()));
            }
            let y = if record {
                host::time(format_args!("{key}.fwd"), || layer.infer(xin))
            } else {
                layer.infer(xin)
            };
            x = Some(y);
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Forward through every layer.
    fn run_forward(&mut self, input: &Tensor) -> Tensor {
        let record = host::is_recording();
        let mut x: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let key = LayerKey(self.label, i, layer.name());
            let xin = x.as_ref().unwrap_or(input);
            if record {
                let flops = layer.flops_forward(xin.dims());
                host::add(format_args!("{key}.flops"), flops);
                host::set(format_args!("{key}.params"), layer.parameter_count() as f64);
                self.fwd_flops[i] = flops;
            }
            let y = host::time(format_args!("{key}.fwd"), || layer.forward(xin));
            x = Some(y);
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Backward through layers `from..` (last to first), returning the
    /// gradient with respect to layer `from`'s input; `None` when no
    /// layer ran.
    fn run_backward(&mut self, grad_out: &Tensor, from: usize) -> Option<Tensor> {
        let mut g: Option<Tensor> = None;
        for (i, layer) in self.layers.iter_mut().enumerate().skip(from).rev() {
            let key = LayerKey(self.label, i, layer.name());
            host::add(format_args!("{key}.flops"), 2.0 * self.fwd_flops[i]);
            let gin = g.as_ref().unwrap_or(grad_out);
            let y = host::time(format_args!("{key}.bwd"), || layer.backward(gin));
            g = Some(y);
        }
        g
    }

    /// Propagates a symbolic input shape through every layer's
    /// [`Layer::out_shape`] contract, returning the full per-layer trace
    /// — or a [`ShapeError`] locating the first layer that rejects its
    /// input. Nothing is allocated or executed; this is the static
    /// counterpart of [`Layer::forward`] used by the pre-run wiring check
    /// in `sl-core`.
    pub fn shape_trace(&self, input: &[usize]) -> Result<ShapeTrace, ShapeError> {
        self.shape_trace_partial(self.layers.len(), input)
    }

    /// [`Sequential::shape_trace`] restricted to the first `upto` layers
    /// — the static counterpart of [`Sequential::infer_partial`],
    /// covering e.g. the Fig. 2 pre-pool CNN-map extraction path.
    ///
    /// Panics when `upto` exceeds the layer count (same contract as
    /// `infer_partial`).
    pub fn shape_trace_partial(
        &self,
        upto: usize,
        input: &[usize],
    ) -> Result<ShapeTrace, ShapeError> {
        assert!(
            upto <= self.layers.len(),
            "Sequential::shape_trace_partial: upto {} exceeds {} layers",
            upto,
            self.layers.len()
        );
        let mut steps = Vec::with_capacity(upto);
        let mut dims = input.to_vec();
        for (index, layer) in self.layers[..upto].iter().enumerate() {
            match layer.out_shape(&dims) {
                Ok(out) => {
                    steps.push(ShapeStep {
                        index,
                        layer: layer.name(),
                        input: dims,
                        output: out.clone(),
                    });
                    dims = out;
                }
                Err(message) => {
                    return Err(ShapeError {
                        index,
                        layer: layer.name(),
                        input: dims,
                        message,
                        steps,
                    })
                }
            }
        }
        Ok(ShapeTrace {
            steps,
            output: dims,
        })
    }
}

/// Layer `.1` of a container labelled `.0`, named `.2`: the stem of
/// the layer's metric keys.
struct LayerKey(&'static str, usize, &'static str);

impl fmt::Display for LayerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.layer.{}.{}", self.0, self.1, self.2)
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        self.run_forward(input)
    }

    fn infer(&self, input: &Tensor) -> Tensor {
        self.run_infer(self.layers.len(), input, true)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.run_backward(grad_out, 0)
            .unwrap_or_else(|| grad_out.clone())
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        let g = self.run_backward(grad_out, 1);
        if let Some(first) = self.layers.first_mut() {
            let key = LayerKey(self.label, 0, first.name());
            host::add(format_args!("{key}.flops"), 2.0 * self.fwd_flops[0]);
            let gin = g.as_ref().unwrap_or(grad_out);
            host::time(format_args!("{key}.bwd"), || first.backward_params(gin));
        }
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_and_grads())
            .collect()
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn out_shape(&self, input: &[usize]) -> Result<Vec<usize>, String> {
        match self.shape_trace(input) {
            Ok(trace) => Ok(trace.output),
            Err(e) => Err(format!("layer #{} ({}): {}", e.index, e.layer, e.message)),
        }
    }

    fn flops_forward(&self, _input_dims: &[usize]) -> f64 {
        // A container cannot know intermediate shapes without running;
        // per-layer FLOPs are recorded while running instead.
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, AvgPool2d, Dense, FusedCnn};
    use sl_rng::rngs::StdRng;
    use sl_telemetry::host::Recording;
    use sl_telemetry::{MemorySink, Snapshot, Telemetry, TelemetryMode};

    /// What `f` records on this thread, drained into a fresh handle.
    fn recorded(f: impl FnOnce()) -> Snapshot {
        let (sink, _events) = MemorySink::new();
        let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
        let rec = Recording::start(true);
        f();
        rec.finish(&mut tele);
        tele.snapshot()
    }

    /// Sample count of histogram `{layer}.{dir}.host_s` (0 when absent).
    fn count(s: &Snapshot, layer: &str, dir: &str) -> u64 {
        s.histograms
            .get(&format!("{layer}.{dir}.host_s"))
            .map_or(0, |h| h.count())
    }

    /// The key stems of `net`'s layers under label `nn`.
    fn stems(net: &Sequential) -> Vec<String> {
        net.layers
            .iter()
            .map(|l| l.name())
            .enumerate()
            .map(|(i, n)| format!("nn.layer.{i}.{n}"))
            .collect()
    }

    /// `[N, 1, 4, 4]` images to `[N, 1, 1, 1]`: a 2-channel CNN, an
    /// elementwise layer, a 2×2 pool, then a second (1-channel) CNN over
    /// the pooled 2×2 map, so a parameterized layer follows the pool,
    /// and a pool to one pixel.
    fn tiny_cnn(rng: &mut StdRng) -> Sequential {
        Sequential::new()
            .push(FusedCnn::new(2, 3, rng))
            .push(Activation::tanh())
            .push(AvgPool2d::new(2, 2))
            .push(FusedCnn::new(1, 3, rng))
            .push(AvgPool2d::new(2, 2))
    }

    #[test]
    fn forward_chains_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = tiny_cnn(&mut rng);
        let out = net.forward(&Tensor::zeros([3, 1, 4, 4]));
        assert_eq!(out.dims(), &[3, 1, 1, 1]);
        assert_eq!(net.len(), 5);
        let names: Vec<&str> = net.layers.iter().map(|l| l.name()).collect();
        assert_eq!(
            names,
            ["fused_cnn", "tanh", "avg_pool2d", "fused_cnn", "avg_pool2d"]
        );
    }

    #[test]
    fn params_collects_all_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = tiny_cnn(&mut rng);
        // fused(C=2): 18+2+18+1, fused(C=1): 9+1+9+1
        assert_eq!(net.parameter_count(), 39 + 20);
        assert_eq!(net.params_and_grads().len(), 8);
    }

    #[test]
    fn an_empty_stack_passes_its_operand_through() {
        let mut net = Sequential::new();
        let x = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(net.forward(&x), x);
        assert_eq!(net.infer(&x), x);
        assert_eq!(net.infer_partial(0, &x), x);
        assert_eq!(net.backward(&x), x);
    }

    #[test]
    fn whole_network_gradcheck() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = tiny_cnn(&mut rng);
        let input = sl_tensor::randn([2, 1, 4, 4], 0.0, 1.0, &mut rng);
        let report = crate::check_gradients(net, &input, 1e-2, 4);
        assert!(report.max_abs_err < 5e-2, "{report:?}");
    }

    #[test]
    fn infer_partial_matches_prefix() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = tiny_cnn(&mut rng);
        let x = sl_tensor::randn([2, 1, 4, 4], 0.0, 1.0, &mut rng);
        // Prefix of length 2 is the pre-pool activation map.
        let partial = net.infer_partial(2, &x);
        assert_eq!(partial.dims(), &[2, 1, 4, 4]);
        // Full forward still works afterwards and, with the thread not
        // recording, nothing was recorded.
        let full = net.forward(&x);
        assert_eq!(full.dims(), &[2, 1, 1, 1]);
        assert_eq!(net.infer(&x), full);
        assert!(recorded(|| {}).is_empty());
    }

    #[test]
    fn only_whole_inference_passes_are_recorded() {
        let mut rng = StdRng::seed_from_u64(12);
        let net = tiny_cnn(&mut rng);
        let x = sl_tensor::randn([2, 1, 4, 4], 0.0, 1.0, &mut rng);
        let stems = stems(&net);
        let partial = recorded(|| {
            net.infer_partial(2, &x);
        });
        assert!(stems.iter().all(|l| count(&partial, l, "fwd") == 0));
        let s = recorded(|| {
            net.infer(&x);
            net.infer_partial(2, &x);
        });
        // One sample per layer: the whole pass, not the prefix.
        assert_eq!(stems.len(), 5);
        assert!(stems.iter().all(|l| count(&s, l, "fwd") == 1));
    }

    #[test]
    fn infer_between_forward_and_backward_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut plain = tiny_cnn(&mut rng);
        let mut rng = StdRng::seed_from_u64(10);
        let mut probed = tiny_cnn(&mut rng);
        let x = sl_tensor::randn([3, 1, 4, 4], 0.0, 1.0, &mut rng);
        let other = sl_tensor::randn([1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let y = plain.forward(&x);
        assert_eq!(probed.forward(&x), y);
        // Inference mid-step, at another batch size, must not disturb the
        // pending backward.
        probed.infer(&other);
        probed.infer_partial(2, &other);
        let g = Tensor::ones(y.dims());
        assert_eq!(plain.backward(&g), probed.backward(&g));
        for ((_, a), (_, b)) in plain
            .params_and_grads()
            .into_iter()
            .zip(probed.params_and_grads())
        {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn params_only_backward_matches_the_full_one() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut full = tiny_cnn(&mut rng);
        let mut rng = StdRng::seed_from_u64(11);
        let mut params_only = tiny_cnn(&mut rng);
        let x = sl_tensor::randn([3, 1, 4, 4], 0.0, 1.0, &mut rng);
        let y = full.forward(&x);
        let g = Tensor::ones(y.dims());
        full.backward(&g);
        let s = recorded(|| {
            assert_eq!(params_only.forward(&x), y);
            params_only.backward_params(&g);
        });
        for ((_, a), (_, b)) in full
            .params_and_grads()
            .into_iter()
            .zip(params_only.params_and_grads())
        {
            assert_eq!(a.data(), b.data());
        }
        // The params-only backward still records every layer once.
        assert!(stems(&params_only).iter().all(|l| count(&s, l, "bwd") == 1));
    }

    #[test]
    fn recording_does_not_change_outputs() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut plain = tiny_cnn(&mut rng);
        let mut rng = StdRng::seed_from_u64(6);
        let mut recorded_net = tiny_cnn(&mut rng);
        let x = sl_tensor::randn([3, 1, 4, 4], 0.0, 1.0, &mut rng);
        let a = plain.forward(&x);
        let ga = plain.backward(&Tensor::ones(a.dims()));
        let mut outputs = None;
        let s = recorded(|| {
            let b = recorded_net.forward(&x);
            let gb = recorded_net.backward(&Tensor::ones(b.dims()));
            outputs = Some((b, gb));
        });
        let Some((b, gb)) = outputs else {
            unreachable!("the recorded pass ran")
        };
        assert_eq!(a.data(), b.data());
        assert_eq!(ga.data(), gb.data());
        // Every layer recorded one forward and one backward sample.
        let stems = stems(&recorded_net);
        assert_eq!(stems.len(), 5);
        for l in &stems {
            assert_eq!(count(&s, l, "fwd"), 1);
            assert_eq!(count(&s, l, "bwd"), 1);
        }
        // Parameterized layers report their counts; the backward is
        // charged at 2× the forward's FLOPs.
        assert_eq!(s.gauge("nn.layer.0.fused_cnn.params"), Some(39.0));
        let cnn = FusedCnn::new(2, 3, &mut rng);
        let fwd_flops = cnn.flops_forward(&[3, 1, 4, 4]);
        assert!(fwd_flops > 0.0);
        assert_eq!(s.gauge("nn.layer.0.fused_cnn.flops"), Some(3.0 * fwd_flops));
    }

    #[test]
    fn recording_publishes_layer_metrics_and_resets() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = tiny_cnn(&mut rng).labelled("nn.ue");
        let x = sl_tensor::randn([2, 1, 4, 4], 0.0, 1.0, &mut rng);
        let s = recorded(|| {
            let y = net.forward(&x);
            net.backward(&Tensor::ones(y.dims()));
        });
        assert_eq!(
            s.histograms["nn.ue.layer.0.fused_cnn.fwd.host_s"].count(),
            1
        );
        assert_eq!(
            s.histograms["nn.ue.layer.3.fused_cnn.bwd.host_s"].count(),
            1
        );
        assert_eq!(s.gauge("nn.ue.layer.3.fused_cnn.params"), Some(20.0));
        // Drained: the next recording starts empty.
        assert!(recorded(|| {}).is_empty());
    }

    #[test]
    fn shape_trace_matches_forward() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = tiny_cnn(&mut rng);
        let trace = net.shape_trace(&[3, 1, 4, 4]).unwrap();
        assert_eq!(trace.output, vec![3, 1, 1, 1]);
        assert_eq!(trace.steps.len(), 5);
        // The symbolic trace agrees with the real forward at every layer.
        let out = net.forward(&Tensor::zeros([3, 1, 4, 4]));
        assert_eq!(out.dims(), trace.output.as_slice());
        assert_eq!(trace.steps[2].layer, "avg_pool2d");
        assert_eq!(trace.steps[2].output, vec![3, 1, 2, 2]);
        // Partial trace mirrors infer_partial's pre-pool prefix.
        let partial = net.shape_trace_partial(2, &[2, 1, 4, 4]).unwrap();
        assert_eq!(partial.output, vec![2, 1, 4, 4]);
    }

    #[test]
    fn shape_trace_locates_miswired_layer() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = tiny_cnn(&mut rng);
        // 5x5 input: AvgPool2d(2, 2) at index 2 cannot tile it.
        let err = net.shape_trace(&[1, 1, 5, 5]).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.layer, "avg_pool2d");
        assert_eq!(err.steps.len(), 2);
        assert!(err.message.contains("does not tile"), "{}", err.message);
        assert!(err.to_string().contains("SHAPE ERROR"));
        // The trait-level contract surfaces the same failure.
        assert!(net.out_shape(&[1, 1, 5, 5]).is_err());
    }

    #[test]
    fn training_reduces_loss_end_to_end() {
        use crate::{mse_loss, Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::new()
            .push(Dense::new(2, 8, &mut rng))
            .push(Activation::tanh())
            .push(Dense::new(8, 1, &mut rng));
        // Learn y = x0 - x1 on a fixed batch.
        let x = sl_tensor::randn([16, 2], 0.0, 1.0, &mut rng);
        let y = Tensor::from_fn([16, 1], |i| x.at(&[i, 0]) - x.at(&[i, 1]));
        let mut opt = Adam::new(0.01, 0.9, 0.999, 1e-8);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..600 {
            let pred = net.forward(&x);
            let l = mse_loss(&pred, &y);
            net.backward(&l.grad);
            opt.step(&mut net.params_and_grads());
            net.zero_grads();
            first.get_or_insert(l.loss);
            last = l.loss;
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.05,
            "training did not converge: {first} -> {last}"
        );
    }
}
