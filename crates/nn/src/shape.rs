//! Static shape contracts.
//!
//! Every [`crate::Layer`] can describe the output shape it would produce
//! for a given input shape *without* running (or allocating) anything —
//! the [`crate::Layer::out_shape`] method. [`crate::Sequential`] chains the
//! contracts into a per-layer [`ShapeTrace`], and a mismatch anywhere in
//! the stack surfaces as a [`ShapeError`] carrying the trace of every
//! layer that *did* check out, so a miswired split network is rejected
//! with a readable report before any tensor is touched.
//!
//! This is the pre-run counterpart of `sl-tensor`'s panic-on-mismatch
//! runtime contract: `SplitTrainer::new` and the per-profile unit tests
//! in `sl-core` run these contracts over every experiment configuration
//! so a bad `w_H × w_W` / BS-input-dim combination fails the gate, not
//! the training run.

use std::fmt;

/// Renders a shape as `[a, b, c]`.
pub fn format_dims(dims: &[usize]) -> String {
    let inner: Vec<String> = dims.iter().map(usize::to_string).collect();
    format!("[{}]", inner.join(", "))
}

/// One layer's entry in a propagated shape trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeStep {
    /// Layer index within its container.
    pub index: usize,
    /// Layer display name.
    pub layer: &'static str,
    /// Input shape fed to the layer.
    pub input: Vec<usize>,
    /// Output shape the layer's contract produced.
    pub output: Vec<usize>,
}

impl fmt::Display for ShapeStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<2} {:<12} {} -> {}",
            self.index,
            self.layer,
            format_dims(&self.input),
            format_dims(&self.output)
        )
    }
}

/// A successful symbolic pass through a layer stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeTrace {
    /// Per-layer input/output shapes, in forward order.
    pub steps: Vec<ShapeStep>,
    /// The stack's final output shape.
    pub output: Vec<usize>,
}

impl fmt::Display for ShapeTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(f, "  {step}")?;
        }
        write!(f, "  => {}", format_dims(&self.output))
    }
}

/// A shape-contract violation, with the trace of every layer that
/// checked out before the offender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Index of the offending layer.
    pub index: usize,
    /// Offending layer's display name.
    pub layer: &'static str,
    /// The input shape it rejected.
    pub input: Vec<usize>,
    /// Why the contract rejected it.
    pub message: String,
    /// The successful prefix of the trace.
    pub steps: Vec<ShapeStep>,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(f, "  {step}")?;
        }
        write!(
            f,
            "  #{:<2} {:<12} {} -> SHAPE ERROR: {}",
            self.index,
            self.layer,
            format_dims(&self.input),
            self.message
        )
    }
}

impl std::error::Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_renders_per_layer_lines() {
        let trace = ShapeTrace {
            steps: vec![ShapeStep {
                index: 0,
                layer: "conv2d",
                input: vec![2, 1, 8, 8],
                output: vec![2, 4, 8, 8],
            }],
            output: vec![2, 4, 8, 8],
        };
        let s = trace.to_string();
        assert!(s.contains("#0  conv2d"), "{s}");
        assert!(s.contains("[2, 1, 8, 8] -> [2, 4, 8, 8]"), "{s}");
        assert!(s.ends_with("=> [2, 4, 8, 8]"), "{s}");
    }

    #[test]
    fn error_renders_prefix_then_offender() {
        let err = ShapeError {
            index: 1,
            layer: "dense",
            input: vec![2, 3],
            message: "input features 3 do not match input_dim 4".into(),
            steps: vec![ShapeStep {
                index: 0,
                layer: "flatten",
                input: vec![2, 3, 1, 1],
                output: vec![2, 3],
            }],
        };
        let s = err.to_string();
        assert!(s.contains("#0  flatten"), "{s}");
        assert!(s.contains("SHAPE ERROR: input features 3"), "{s}");
    }
}
