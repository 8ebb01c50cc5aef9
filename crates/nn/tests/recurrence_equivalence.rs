//! Bitwise equivalence of the LSTM recurrence: `Lstm::infer` and
//! `Lstm::forward` both equal, bit for bit, a per-step reference written
//! the way the layer computed before it shared one recurrence — gate
//! pre-activations from `a_bt` on the `[4H, ·]` weights, then tensor ops
//! in the order `(x·Wxᵀ + h·Whᵀ) + b`, `f·c + i·g`, `o·tanh(c)`. The
//! reference runs on the scalar backend and a one-thread pool, while the
//! layer runs on the process-wide ones; `scripts/verify.sh` runs this
//! suite under every `SLM_BACKEND={scalar,simd}` × `SLM_THREADS={1,4}`
//! pairing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sl_rng::rngs::StdRng;
use sl_rng::Rng;

use sl_nn::{Layer, Lstm};
use sl_tensor::{backend_for, matmul_a_bt_with, sigmoid, BackendKind, ComputePool, Tensor};

/// The system allocator, counting the calling thread's allocations so
/// tests running in parallel do not see each other's.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// The last hidden state by the per-step formulation, from the layer's
/// `(w_x, w_h, bias)`.
fn reference(lstm: &mut Lstm, input: &Tensor) -> Tensor {
    let [w_x, w_h, bias] = {
        let params = lstm.params_and_grads();
        assert_eq!(params.len(), 3);
        [0, 1, 2].map(|k| params[k].0.clone())
    };
    let pool = ComputePool::new(1);
    let scalar = backend_for(BackendKind::Scalar);
    let a_bt = |a: &Tensor, b: &Tensor| matmul_a_bt_with(&pool, scalar, a, b);
    let (n, l, x) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let hd = lstm.hidden_dim();
    let mut h = Tensor::zeros([n, hd]);
    let mut c = Tensor::zeros([n, hd]);
    for t in 0..l {
        let mut xt = Vec::new();
        for b in 0..n {
            xt.extend_from_slice(&input.data()[(b * l + t) * x..(b * l + t + 1) * x]);
        }
        let xt = Tensor::from_vec([n, x], xt).unwrap();
        let z = a_bt(&xt, &w_x).add(&a_bt(&h, &w_h)).add(&bias);
        let gate = |k: usize, act: fn(f32) -> f32| {
            let mut v = Vec::new();
            for row in z.data().chunks_exact(4 * hd) {
                v.extend(row[k * hd..(k + 1) * hd].iter().map(|&z| act(z)));
            }
            Tensor::from_vec([n, hd], v).unwrap()
        };
        let (i, f, g, o) = (
            gate(0, sigmoid),
            gate(1, sigmoid),
            gate(2, f32::tanh),
            gate(3, sigmoid),
        );
        c = f.mul(&c).add(&i.mul(&g));
        h = o.mul(&c.map(f32::tanh));
    }
    h
}

/// Asserts `infer`, `forward` and the reference agree bit for bit.
fn check(lstm: &mut Lstm, input: &Tensor, what: &str) {
    let want = bits(&reference(lstm, input));
    assert_eq!(bits(&lstm.infer(input)), want, "infer != reference: {what}");
    assert_eq!(
        bits(&lstm.forward(input)),
        want,
        "forward != reference: {what}"
    );
}

#[test]
fn infer_and_forward_match_the_per_step_reference_over_the_grid() {
    let mut rng = StdRng::seed_from_u64(31);
    for n in [1, 2, 64, 128] {
        for x in [1, 2, 17] {
            for hd in [1, 8, 32] {
                for l in [1, 4] {
                    let mut lstm = Lstm::new(x, hd, &mut rng);
                    let input = sl_tensor::randn([n, l, x], 0.0, 2.0, &mut rng);
                    check(&mut lstm, &input, &format!("N={n} X={x} H={hd} L={l}"));
                }
            }
        }
    }
}

#[test]
fn non_finite_and_signed_zero_inputs_propagate_as_the_reference() {
    let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
    let mut rng = StdRng::seed_from_u64(32);
    for n in [1, 2, 64] {
        for (x, hd) in [(1, 1), (2, 8), (17, 32)] {
            let mut lstm = Lstm::new(x, hd, &mut rng);
            let mut input = sl_tensor::randn([n, 4, x], 0.0, 1.0, &mut rng);
            // Plant each special value at random positions; the rest of
            // the rows stay finite so both finite and poisoned rows are
            // compared.
            let len = input.numel();
            for (k, &v) in specials.iter().cycle().take(len / 3 + 1).enumerate() {
                let at = rng.random_range(0..len);
                input.data_mut()[at] = if k % 7 == 6 { -v } else { v };
            }
            check(&mut lstm, &input, &format!("specials N={n} X={x} H={hd}"));
        }
    }
    // A whole batch of signed zeros: the first step's products are all
    // zeros, so the sums' signs are where a reordering would show.
    let mut lstm = Lstm::new(3, 8, &mut rng);
    let zeros = Tensor::from_vec(
        [2, 4, 3],
        (0..24)
            .map(|k| if k % 2 == 0 { 0.0 } else { -0.0 })
            .collect(),
    )
    .unwrap();
    check(&mut lstm, &zeros, "signed zeros");
}

#[test]
fn a_weight_update_between_passes_reaches_the_next_pass() {
    let mut rng = StdRng::seed_from_u64(33);
    let mut lstm = Lstm::new(2, 8, &mut rng);
    let input = sl_tensor::randn([3, 4, 2], 0.0, 1.0, &mut rng);
    let before = bits(&lstm.infer(&input));
    // An optimizer writes through `params_and_grads`; the next pass,
    // inference first, must see the new weights.
    for (w, _) in lstm.params_and_grads() {
        w.data_mut().iter_mut().for_each(|v| *v *= 0.5);
    }
    let after = bits(&lstm.infer(&input));
    assert_ne!(after, before);
    assert_eq!(after, bits(&reference(&mut lstm, &input)));
}

#[test]
fn streaming_inference_allocates_nothing_per_step() {
    // The deployment's shape: one window of `[1, L, X]`. Up to 16 rows
    // every product runs inline on the calling thread at any
    // `SLM_THREADS`, so the count below is the recurrence's own.
    let mut rng = StdRng::seed_from_u64(34);
    let lstm = Lstm::new(2, 32, &mut rng);
    let allocs = |l: usize| {
        let input = sl_tensor::randn([1, l, 2], 0.0, 1.0, &mut StdRng::seed_from_u64(35));
        lstm.infer(&input); // lays the gate weights out
        let before = ALLOCS.with(Cell::get);
        lstm.infer(&input);
        ALLOCS.with(Cell::get) - before
    };
    let one = allocs(1);
    assert_eq!(allocs(4), one, "L = 4 allocates more than L = 1");
    assert_eq!(allocs(16), one, "L = 16 allocates more than L = 1");
}
