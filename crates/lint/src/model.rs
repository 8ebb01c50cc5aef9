//! Offline bounded model checker for the sl-net exchange protocol.
//!
//! Explores the *joint* UE/BS state machine of DESIGN §9 —
//! handshake → train steps → shutdown, each exchange subject to the
//! fault alphabet the runtime's `Faulty<T>` wrapper can realize — by
//! explicit-state breadth-first search, and proves three invariants
//! over every reachable interleaving:
//!
//! - **no-double-apply** — no trace applies a train exchange's
//!   optimizer step more than once. This is the cached-resend rule:
//!   on a client Nack the server must resend its cached reply, never
//!   recompute (PR 5 tests this dynamically on one fault plan; the
//!   checker proves it for *all* bounded plans).
//! - **retry-termination** — the reachable graph is acyclic and every
//!   maximal trace ends in `Done` or `Aborted`; retries cannot loop
//!   forever because the attempt counter is strictly increasing and
//!   capped by the retry budget.
//! - **no-deadlock** — every non-terminal state has a successor.
//!
//! The fault model mirrors `crates/net/src/fault.rs` semantics exactly:
//! faults are write-side, so *requests* can be dropped but replies
//! cannot (`ArmedPlan::arm_read` asserts this); Nack/control frames
//! always deliver clean (fault plans are scoped to one message type);
//! `Delay` only perturbs deadline accounting, so it transitions like
//! `Deliver` but is kept as a distinct edge label so counterexample
//! traces stay readable.
//!
//! [`Mutation::RecomputeOnNack`] seeds the historical bug the
//! invariant guards against (server recomputes on Nack instead of
//! resending the cache). `slm-lint`'s `protocol` pass runs the checker
//! once clean and once mutated: the mutant **must** produce a
//! no-double-apply counterexample, proving the checker is not
//! vacuous.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Maximum train steps the fixed-width state can hold.
pub const MAX_STEPS: usize = 4;

/// Seeded protocol mutations for checker self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Faithful model of the implementation.
    None,
    /// On a client Nack (corrupt reply), the server recomputes the
    /// exchange — re-applying the optimizer step — instead of
    /// resending its cached reply.
    RecomputeOnNack,
}

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Train exchanges between handshake and shutdown (≤ [`MAX_STEPS`]).
    pub steps: u8,
    /// Retry budget per exchange: total attempts allowed beyond the
    /// first before the client aborts (mirrors
    /// `RetryPolicy::max_extra_attempts`).
    pub retry_budget: u8,
    /// Seeded mutation.
    pub mutation: Mutation,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            steps: 2,
            retry_budget: 3,
            mutation: Mutation::None,
        }
    }
}

/// One invariant violation with its counterexample trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Violated invariant name.
    pub invariant: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Edge labels from the initial state to the violating state.
    pub trace: Vec<String>,
}

/// Exploration result.
#[derive(Debug)]
pub struct ModelOutcome {
    /// Distinct states reached.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// `Done` is reachable.
    pub done_reachable: bool,
    /// `Aborted` (budget exhaustion) is reachable.
    pub abort_reachable: bool,
    /// Invariant violations (empty = proved).
    pub violations: Vec<Violation>,
}

/// Exchange phases: 0 = handshake, 1..=steps = train steps,
/// steps+1 = shutdown, then the terminals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Running exchange `i`.
    Exchange(u8),
    /// Clean shutdown completed.
    Done,
    /// Retry budget exhausted; client gave up.
    Aborted,
}

/// Joint UE/BS state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct St {
    phase: Phase,
    /// Extra attempts consumed in the current exchange.
    attempts: u8,
    /// The request was processed; the client is waiting for a
    /// (possibly re-sent) reply.
    awaiting_reply: bool,
    /// Optimizer applications per train exchange (capped at 2 — the
    /// invariant trips at 2, so higher counts are indistinguishable).
    applied: [u8; MAX_STEPS],
}

impl St {
    fn initial() -> St {
        St {
            phase: Phase::Exchange(0),
            attempts: 0,
            awaiting_reply: false,
            applied: [0; MAX_STEPS],
        }
    }

    fn terminal(&self) -> bool {
        matches!(self.phase, Phase::Done | Phase::Aborted)
    }
}

fn exchange_name(cfg: &ModelConfig, i: u8) -> String {
    if i == 0 {
        "handshake".to_string()
    } else if i <= cfg.steps {
        format!("step{}", i - 1)
    } else {
        "shutdown".to_string()
    }
}

/// Successor states of `s` with edge labels, under `cfg`.
fn successors(cfg: &ModelConfig, s: &St) -> Vec<(String, St)> {
    let Phase::Exchange(ex) = s.phase else {
        return Vec::new();
    };
    let name = exchange_name(cfg, ex);
    let is_step = ex >= 1 && ex <= cfg.steps;
    let step_idx = if is_step { (ex - 1) as usize } else { 0 };
    let last_exchange = ex == cfg.steps + 1;
    let mut out = Vec::new();

    let retry = |s: &St| -> St {
        if s.attempts + 1 > cfg.retry_budget {
            St {
                phase: Phase::Aborted,
                ..*s
            }
        } else {
            St {
                attempts: s.attempts + 1,
                ..*s
            }
        }
    };

    if !s.awaiting_reply {
        // Request leg. Deliver/Delay: the server decodes the frame and
        // processes it — a train exchange applies the optimizer step —
        // then the reply leg begins.
        let mut processed = *s;
        processed.awaiting_reply = true;
        if is_step {
            processed.applied[step_idx] = (processed.applied[step_idx] + 1).min(2);
        }
        out.push((format!("{name}:req-deliver"), processed));
        out.push((format!("{name}:req-delay"), processed));
        // Drop: write-side loss — the server never sees the frame; the
        // client's read deadline expires and it resends.
        out.push((format!("{name}:req-drop-timeout"), retry(s)));
        // Corrupt: the server's checksum rejects the frame *before*
        // decoding (never desyncs, never applies) and Nacks clean; the
        // client resends the request.
        out.push((format!("{name}:req-corrupt-nack"), retry(s)));
    } else {
        // Reply leg. Deliver/Delay: exchange complete.
        let next = if last_exchange {
            St {
                phase: Phase::Done,
                attempts: 0,
                awaiting_reply: false,
                applied: s.applied,
            }
        } else {
            St {
                phase: Phase::Exchange(ex + 1),
                attempts: 0,
                awaiting_reply: false,
                applied: s.applied,
            }
        };
        out.push((format!("{name}:reply-deliver"), next));
        out.push((format!("{name}:reply-delay"), next));
        // Corrupt reply: the client Nacks (clean — control frames are
        // outside the fault scope) and re-reads. The faithful server
        // resends its *cached* reply without touching the optimizer;
        // the mutant recomputes, double-applying the step.
        let mut resend = retry(s);
        if cfg.mutation == Mutation::RecomputeOnNack
            && is_step
            && !matches!(resend.phase, Phase::Aborted)
        {
            resend.applied[step_idx] = (resend.applied[step_idx] + 1).min(2);
        }
        out.push((format!("{name}:reply-corrupt-nack-resend"), resend));
    }
    out
}

/// Runs the bounded exploration and checks every invariant.
pub fn check(cfg: &ModelConfig) -> ModelOutcome {
    let steps = cfg.steps.min(MAX_STEPS as u8);
    let cfg = ModelConfig { steps, ..*cfg };
    let init = St::initial();
    let mut parent: BTreeMap<St, (St, String)> = BTreeMap::new();
    let mut seen: BTreeSet<St> = BTreeSet::new();
    let mut queue: VecDeque<St> = VecDeque::new();
    let mut violations = Vec::new();
    let mut transitions = 0usize;
    let mut done_reachable = false;
    let mut abort_reachable = false;

    seen.insert(init);
    queue.push_back(init);

    while let Some(s) = queue.pop_front() {
        if s.phase == Phase::Done {
            done_reachable = true;
        }
        if s.phase == Phase::Aborted {
            abort_reachable = true;
            // Abort is only legal at budget exhaustion.
            if s.attempts < cfg.retry_budget {
                violations.push(Violation {
                    invariant: "retry-termination",
                    message: format!(
                        "client aborted with {} attempts, below the budget of {}",
                        s.attempts, cfg.retry_budget
                    ),
                    trace: trace_to(&parent, &s),
                });
            }
        }
        let succs = successors(&cfg, &s);
        if succs.is_empty() && !s.terminal() {
            violations.push(Violation {
                invariant: "no-deadlock",
                message: "non-terminal state has no successor".to_string(),
                trace: trace_to(&parent, &s),
            });
        }
        for (label, next) in succs {
            transitions += 1;
            // Invariant checks on edge creation so the counterexample
            // trace includes the offending transition.
            if next.applied.iter().any(|&a| a >= 2) {
                let mut trace = trace_to(&parent, &s);
                trace.push(label.clone());
                violations.push(Violation {
                    invariant: "no-double-apply",
                    message: "a train exchange applied its optimizer step twice".to_string(),
                    trace,
                });
                continue; // do not explore past a violation
            }
            if seen.insert(next) {
                parent.insert(next, (s, label));
                queue.push_back(next);
            }
        }
    }

    // Termination: the BFS parent structure cannot witness cycles, so
    // run an explicit DFS over the explored graph. The attempt counter
    // argument says this can never fire; the checker verifies the
    // argument instead of assuming it.
    if let Some(cycle_state) = find_cycle(&cfg, init) {
        violations.push(Violation {
            invariant: "retry-termination",
            message: "reachable cycle: a fault interleaving can retry forever".to_string(),
            trace: trace_to(&parent, &cycle_state),
        });
    }
    if !done_reachable {
        violations.push(Violation {
            invariant: "no-deadlock",
            message: "clean shutdown is unreachable".to_string(),
            trace: Vec::new(),
        });
    }

    ModelOutcome {
        states: seen.len(),
        transitions,
        done_reachable,
        abort_reachable,
        violations,
    }
}

/// Reconstructs the edge-label path from the initial state to `s`.
fn trace_to(parent: &BTreeMap<St, (St, String)>, s: &St) -> Vec<String> {
    let mut labels = Vec::new();
    let mut cur = *s;
    while let Some((prev, label)) = parent.get(&cur) {
        labels.push(label.clone());
        cur = *prev;
    }
    labels.reverse();
    labels
}

/// Iterative DFS cycle detection (white/grey/black) over the model
/// graph. Returns a state on a cycle, if any.
fn find_cycle(cfg: &ModelConfig, init: St) -> Option<St> {
    #[derive(PartialEq, Clone, Copy)]
    enum Color {
        Grey,
        Black,
    }
    let mut color: BTreeMap<St, Color> = BTreeMap::new();
    // (state, next-successor-index) stack.
    let mut stack: Vec<(St, usize)> = vec![(init, 0)];
    color.insert(init, Color::Grey);
    while let Some((s, i)) = stack.pop() {
        let succs = successors(cfg, &s);
        // Skip double-apply states, mirroring the BFS frontier cut.
        let succs: Vec<St> = succs
            .into_iter()
            .map(|(_, n)| n)
            .filter(|n| n.applied.iter().all(|&a| a < 2))
            .collect();
        if i < succs.len() {
            stack.push((s, i + 1));
            let next = succs[i];
            match color.get(&next) {
                Some(Color::Grey) => return Some(next),
                Some(Color::Black) => {}
                None => {
                    color.insert(next, Color::Grey);
                    stack.push((next, 0));
                }
            }
        } else {
            color.insert(s, Color::Black);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_model_proves_all_invariants() {
        let out = check(&ModelConfig::default());
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.done_reachable);
        assert!(out.abort_reachable, "budget exhaustion must be reachable");
        assert!(
            out.states > 20,
            "state space unexpectedly small: {}",
            out.states
        );
    }

    #[test]
    fn recompute_on_nack_mutation_is_caught_with_a_trace() {
        let out = check(&ModelConfig {
            mutation: Mutation::RecomputeOnNack,
            ..ModelConfig::default()
        });
        let v = out
            .violations
            .iter()
            .find(|v| v.invariant == "no-double-apply")
            .expect("mutant must violate no-double-apply");
        // The counterexample must pass through a corrupted train reply.
        assert!(
            v.trace
                .iter()
                .any(|l| l.contains("step") && l.contains("reply-corrupt")),
            "{:?}",
            v.trace
        );
        // And the trace must be replayable from the initial state: it
        // starts with a handshake leg.
        assert!(v.trace[0].starts_with("handshake:"), "{:?}", v.trace);
    }

    #[test]
    fn corrupt_reply_storm_exhausts_the_budget_without_reapplying() {
        // With budget 1, one corrupt reply then another aborts; the
        // faithful model still never double-applies.
        let out = check(&ModelConfig {
            retry_budget: 1,
            ..ModelConfig::default()
        });
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.abort_reachable);
    }

    #[test]
    fn zero_steps_is_handshake_then_shutdown() {
        let out = check(&ModelConfig {
            steps: 0,
            ..ModelConfig::default()
        });
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.done_reachable);
    }
}
