//! Central telemetry contracts: the declared metric-key namespace and
//! the `SLM_*` environment-knob table.
//!
//! Every key a workspace crate publishes through the [`crate::Telemetry`]
//! / [`crate::MetricsRegistry`] surface must unify with a pattern in
//! [`KEYS`], and every `env::var("SLM_…")` read must name an entry in
//! [`KNOBS`]. `slm-lint --keys` and `slm-lint --knobs` enforce both
//! directions offline: an undeclared publish, a dead declaration, a
//! reader consuming a key nobody produces, or an undocumented knob all
//! fail the lint. The tables are data, not behavior — nothing at
//! runtime consults them — so declaring here is free and drifting from
//! here is loud.
//!
//! Pattern grammar: dot-separated `sub.noun.verb` segments, each
//! `[a-z][a-z0-9_]*`; a `*` segment matches one or more concrete
//! segments (`nn.ue.layer.*` covers `nn.ue.layer.0.fused_cnn.fwd.host_s`).

/// One declared key family.
#[derive(Debug, Clone, Copy)]
pub struct KeyDecl {
    /// Dot-separated pattern; `*` matches one or more segments.
    pub pattern: &'static str,
    /// Reader binaries expected to consume the family (`report` =
    /// slm-report). Empty = write-only telemetry.
    pub readers: &'static [&'static str],
    /// What the metric means.
    pub doc: &'static str,
}

/// One declared `SLM_*` environment knob.
#[derive(Debug, Clone, Copy)]
pub struct KnobDecl {
    /// Environment variable name.
    pub name: &'static str,
    /// Effective default when unset (human-readable).
    pub default: &'static str,
    /// Accepted value syntax.
    pub parse: &'static str,
    /// Doc anchor: the section documenting the knob.
    pub doc: &'static str,
}

const fn key(
    pattern: &'static str,
    readers: &'static [&'static str],
    doc: &'static str,
) -> KeyDecl {
    KeyDecl {
        pattern,
        readers,
        doc,
    }
}

/// The declared metric-key namespace, grouped by subsystem.
pub const KEYS: &[KeyDecl] = &[
    // -- training loop (sl-core / sl-net trainers) ----------------------
    key("train.val_rmse_db", &["report"], "validation RMSE in dB"),
    key("train.loss", &[], "per-step training loss histogram"),
    key(
        "train.steps.applied",
        &["report"],
        "optimizer steps applied",
    ),
    key(
        "train.steps.voided",
        &["report"],
        "steps voided by non-finite guards",
    ),
    key(
        "train.nonfinite.loss",
        &["report"],
        "non-finite loss occurrences",
    ),
    key(
        "train.nonfinite.grad",
        &["report"],
        "non-finite gradient occurrences",
    ),
    key("train.grad_norm.ue", &[], "UE-side gradient norm histogram"),
    key("train.grad_norm.bs", &[], "BS-side gradient norm histogram"),
    key(
        "train.step.host_s",
        &["report"],
        "host wall-clock per training step",
    ),
    key(
        "train.model.host_s",
        &["report"],
        "host wall-clock per model pass",
    ),
    key(
        "train.uplink.*",
        &[],
        "uplink link-sim stats during training (transfers, delivered, …)",
    ),
    key(
        "train.downlink.*",
        &[],
        "downlink link-sim stats during training",
    ),
    // -- simulated time (paper's compute/airtime split) -----------------
    key("sim.compute_s", &["report"], "simulated compute seconds"),
    key("sim.airtime_s", &["report"], "simulated airtime seconds"),
    // -- sl-net transport (client/server connection metrics) -----------
    key("net.frames.sent", &[], "wire frames sent"),
    key("net.frames.received", &[], "wire frames received"),
    key("net.bytes.sent", &[], "payload bytes sent"),
    key("net.bytes.received", &[], "payload bytes received"),
    key("net.retries", &[], "frame retransmission attempts"),
    key("net.timeouts", &[], "read deadlines missed"),
    key(
        "net.handshakes",
        &[],
        "completed Hello/ConfigAck handshakes",
    ),
    key("net.deadline_miss", &[], "deployment frames past deadline"),
    key("net.nacks.sent", &[], "Nack frames sent"),
    key("net.nacks.received", &[], "Nack frames received"),
    key(
        "net.faults.frames",
        &[],
        "frames inspected by fault injection",
    ),
    key(
        "net.faults.dropped",
        &[],
        "frames dropped by fault injection",
    ),
    key(
        "net.faults.corrupted",
        &[],
        "frames corrupted by fault injection",
    ),
    key(
        "net.faults.delayed",
        &[],
        "frames delayed by fault injection",
    ),
    key(
        "net.faults.delay_slots",
        &[],
        "total injected delay in slots",
    ),
    // -- deployment-phase simulation (sl-core::deploy) ------------------
    key(
        "deploy.deadline_miss",
        &[],
        "deployment frames missing the prediction deadline",
    ),
    key(
        "deploy.feature_age_frames",
        &[],
        "age of the freshest delivered feature",
    ),
    key("deploy.frames", &[], "deployment frames simulated"),
    key("deploy.miss_rate", &[], "deadline miss rate gauge"),
    key(
        "deploy.uplink.*",
        &[],
        "uplink link-sim stats during deployment",
    ),
    key(
        "deploy.proactive.*",
        &[],
        "proactive-handover report (switches, outage_rate, …)",
    ),
    // -- sl-tensor compute pool / kernels -------------------------------
    key("tensor.pool.threads", &[], "compute-pool worker count"),
    key("tensor.pool.jobs", &[], "parallel jobs executed"),
    key(
        "tensor.pool.steal_idle_s",
        &[],
        "cumulative worker idle/steal time",
    ),
    key(
        "tensor.kernel.*.host_s",
        &[],
        "per-kernel host time histogram (its count is the call count)",
    ),
    key(
        "tensor.knob_fallbacks",
        &["report"],
        "SLM_THREADS / SLM_BACKEND values that fell back to a default (set only when one did)",
    ),
    key(
        "tensor.backend",
        &[],
        "selected compute backend (0 = scalar, 2 = simd; 1 was the removed blocked tier)",
    ),
    // -- per-layer metrics (sl-nn::Sequential via sl-telemetry::host) ---
    key(
        "nn.ue.layer.*",
        &[],
        "UE stack per-layer profile (fwd/bwd host_s, flops, params)",
    ),
    key("nn.bs.layer.*", &[], "BS stack per-layer profile"),
    // -- chunked array store (sl-store) ---------------------------------
    key("store.arrays.written", &[], "chunked arrays committed"),
    key("store.arrays.read", &[], "chunked arrays read"),
    key("store.chunks.written", &[], "chunks encoded and stored"),
    key(
        "store.chunks.read",
        &[],
        "chunks checksum-verified and decoded",
    ),
    key("store.bytes.raw", &[], "raw f32 bytes represented"),
    key("store.bytes.encoded", &[], "encoded bytes on storage"),
];

/// The declared `SLM_*` environment-knob table.
pub const KNOBS: &[KnobDecl] = &[
    KnobDecl {
        name: "SLM_THREADS",
        default: "available parallelism (≤ 64)",
        parse: "usize in 1..=64",
        doc: "README.md § Environment knobs",
    },
    KnobDecl {
        name: "SLM_TELEMETRY",
        default: "summary",
        parse: "off | summary | jsonl",
        doc: "README.md § Environment knobs",
    },
    KnobDecl {
        name: "SLM_TELEMETRY_PATH",
        default: "results/<experiment>/ (harness) or results/telemetry",
        parse: "directory path",
        doc: "README.md § Environment knobs",
    },
    KnobDecl {
        name: "SLM_TRACE",
        default: "off",
        parse: "on | 1 | true",
        doc: "README.md § Environment knobs",
    },
    KnobDecl {
        name: "SLM_PROFILE",
        default: "quick",
        parse: "smoke | quick | full",
        doc: "README.md § Environment knobs",
    },
    KnobDecl {
        name: "SLM_BACKEND",
        default: "auto (SIMD when the host supports it, else scalar)",
        parse: "auto | scalar | simd",
        doc: "README.md § Environment knobs",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_patterns_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for k in KEYS {
            assert!(seen.insert(k.pattern), "duplicate pattern {}", k.pattern);
            assert!(
                k.pattern.contains('.'),
                "single-segment pattern {}",
                k.pattern
            );
            for seg in k.pattern.split('.') {
                assert!(
                    seg == "*"
                        || (seg.starts_with(|c: char| c.is_ascii_lowercase())
                            && seg
                                .chars()
                                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')),
                    "bad segment '{seg}' in {}",
                    k.pattern
                );
            }
            for r in k.readers {
                assert_eq!(*r, "report", "unknown reader {r}");
            }
        }
    }

    #[test]
    fn declared_knobs_are_unique_slm_names_with_docs() {
        let mut seen = std::collections::BTreeSet::new();
        for k in KNOBS {
            assert!(seen.insert(k.name), "duplicate knob {}", k.name);
            assert!(k.name.starts_with("SLM_"), "non-SLM knob {}", k.name);
            assert!(!k.default.is_empty() && !k.parse.is_empty() && !k.doc.is_empty());
        }
    }
}
