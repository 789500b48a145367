//! Micro-benchmark: the packed/blocked INT8 GEMM engine versus the naive
//! reference kernels and FP32 GEMM.
//!
//! This is the arithmetic primitive whose hardware speed difference underlies
//! the paper's time/energy savings (Section V-C: "INT8 arithmetic is also 4x
//! faster than FP32 in hardware"). Three groups are measured:
//!
//! - `gemm`: fp32 vs naive-INT8 vs packed-INT8 at square sizes (the
//!   acceptance gate is packed ≥ 2× naive at 256³ and above). The packed
//!   rows run [`ff_quant::int8_matmul_planned`] on a plan built inside
//!   every iteration, so both operands are packed per call;
//! - `gemm_paper_shapes`: the shapes the paper's workloads actually run —
//!   the MNIST dense layer (784→2000), an im2col'd 3×3×32 conv and the
//!   16-channel first conv of a CIFAR-sized net (`k = 27`, `n = 16`: one
//!   16-wide strip, where the kernel is call- and epilogue-bound);
//! - `gemm_threads`: 1/2/4/8-worker sweeps of the packed engine through
//!   [`ff_quant::int8_matmul_a_bt_shared_rows`] (per-row-scale epilogue),
//!   the one entry point that takes a caller-set thread count;
//! - `gemm_train_step`: one INT8 dense training step (input quantize,
//!   forward GEMM, gradient quantize, gW GEMM) with per-step weight
//!   requantize+repack into a fresh [`ff_quant::QGemmPlan`] (`uncached`,
//!   the pre-plan behaviour) vs a plan kept across steps (`cached`, what
//!   the layers do now). The acceptance gate is cached ≥ 1.3× uncached at
//!   the paper's layer shapes.
//!
//! Running with `--bench` (what `cargo bench` passes) writes a
//! `BENCH_gemm.json` baseline into the bench binary's working directory
//! (`crates/bench/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ff_quant::gemm::reference;
use ff_quant::{
    int8_matmul_a_bt_planned, int8_matmul_a_bt_shared_rows, int8_matmul_at_b_planned,
    int8_matmul_planned, QGemmPlan, QuantConfig, QuantTensor, Rounding, RowQuantTensor,
    SharedGemmPlan,
};
use ff_tensor::{init, linalg, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quant_pair(m: usize, k: usize, n: usize, seed: u64) -> (QuantTensor, QuantTensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = init::uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = init::uniform(&[k, n], -1.0, 1.0, &mut rng);
    let qa = QuantTensor::quantize_with_rng(&a, QuantConfig::new(Rounding::Nearest), &mut rng);
    let qb = QuantTensor::quantize_with_rng(&b, QuantConfig::new(Rounding::Nearest), &mut rng);
    (qa, qb)
}

/// `a · b` with `b` packed into a fresh plan: both operands packed per call.
fn packed_matmul(a: &QuantTensor, b: &QuantTensor) -> Tensor {
    let mut plan = QGemmPlan::from_quant(b.clone(), 0).expect("plan");
    int8_matmul_planned(a, &mut plan).expect("packed int8 matmul")
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    for &n in &[64usize, 128, 256, 512] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = init::uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = init::uniform(&[n, n], -1.0, 1.0, &mut rng);
        let qa = QuantTensor::quantize_with_rng(&a, QuantConfig::new(Rounding::Nearest), &mut rng);
        let qb = QuantTensor::quantize_with_rng(&b, QuantConfig::new(Rounding::Nearest), &mut rng);
        group.bench_with_input(BenchmarkId::new("fp32", n), &n, |bencher, _| {
            bencher.iter(|| linalg::matmul(&a, &b).expect("matmul"));
        });
        group.bench_with_input(BenchmarkId::new("int8_naive", n), &n, |bencher, _| {
            bencher.iter(|| reference::int8_matmul(&qa, &qb).expect("naive int8 matmul"));
        });
        group.bench_with_input(BenchmarkId::new("int8_packed", n), &n, |bencher, _| {
            bencher.iter(|| packed_matmul(&qa, &qb));
        });
    }
    group.finish();
}

fn bench_paper_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_paper_shapes");
    group.sample_size(10);
    // (label, m, k, n): batch-64 MNIST dense 784→2000 (paper's MLP layer),
    // an im2col'd 3×3×32 conv over a 16×16 feature map (m = oh·ow·batch),
    // and a 3→16-channel first conv over 32×32 images at batch 32.
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("mnist_dense_784x2000", 64, 784, 2000),
        ("im2col_conv3x3x32", 1024, 288, 32),
        ("im2col_first_conv3x3x16", 32 * 32 * 32, 27, 16),
    ];
    for &(label, m, k, n) in shapes {
        let (qa, qb) = quant_pair(m, k, n, 2);
        group.bench_with_input(
            BenchmarkId::new("int8_naive", label),
            &label,
            |bencher, _| {
                bencher.iter(|| reference::int8_matmul(&qa, &qb).expect("naive int8 matmul"));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("int8_packed", label),
            &label,
            |bencher, _| {
                bencher.iter(|| packed_matmul(&qa, &qb));
            },
        );
    }
    group.finish();
}

fn bench_thread_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_threads");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let a = init::uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let w = init::uniform(&[256, 256], -1.0, 1.0, &mut rng);
    let qa = RowQuantTensor::quantize(&a).expect("row quantize");
    let plan = SharedGemmPlan::from_tensor(&w).expect("shared plan");
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("int8_packed_256", threads),
            &threads,
            |bencher, &threads| {
                bencher.iter(|| {
                    int8_matmul_a_bt_shared_rows(&qa, &plan, None, false, Some(threads))
                        .expect("packed int8 matmul")
                });
            },
        );
    }
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_train_step");
    group.sample_size(10);
    // (label, batch, in_features, out_features): the paper's MNIST dense
    // layer at the training batch size and at an edge-style small batch
    // (where operand preparation dominates the GEMM itself).
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("mnist_dense_784x2000_b64", 64, 784, 2000),
        ("mnist_dense_784x2000_b16", 16, 784, 2000),
    ];
    let nearest = QuantConfig::new(Rounding::Nearest);
    for &(label, batch, in_f, out_f) in shapes {
        let mut rng = StdRng::seed_from_u64(11);
        let x = init::uniform(&[batch, in_f], -1.0, 1.0, &mut rng);
        let w = init::uniform(&[out_f, in_f], -1.0, 1.0, &mut rng);
        let g = init::uniform(&[batch, out_f], -1.0, 1.0, &mut rng);
        let bias = Tensor::zeros(&[out_f]);
        // The pre-plan behaviour: every step requantizes and repacks the
        // unchanged weight matrix into a fresh plan before the forward GEMM.
        group.bench_with_input(BenchmarkId::new("uncached", label), &label, |bencher, _| {
            bencher.iter(|| {
                let mut rng = StdRng::seed_from_u64(12);
                let q_x = QuantTensor::quantize_with_rng(&x, nearest, &mut rng);
                let q_w = QuantTensor::quantize_with_rng(&w, nearest, &mut rng);
                let mut w_plan = QGemmPlan::from_quant(q_w, 0).expect("weight plan");
                let (y, _) = int8_matmul_a_bt_planned(&q_x, &mut w_plan, Some(&bias), true)
                    .expect("forward");
                let mut x_plan = QGemmPlan::from_quant(q_x, 0).expect("input plan");
                let q_g = QuantTensor::quantize_with_rng(&g, nearest, &mut rng);
                let gw = int8_matmul_at_b_planned(&q_g, &mut x_plan).expect("gW");
                (y, gw)
            });
        });
        // The plan-cached path: the weight plan persists across steps, so a
        // step quantizes and packs activations only.
        let mut w_plan = QGemmPlan::from_tensor(&w, 0).expect("weight plan");
        w_plan.packed_as_b_transposed(); // warm, as after any prior step
        group.bench_with_input(BenchmarkId::new("cached", label), &label, |bencher, _| {
            bencher.iter(|| {
                let mut rng = StdRng::seed_from_u64(12);
                let q_x = QuantTensor::quantize_with_rng(&x, nearest, &mut rng);
                let (y, _) = int8_matmul_a_bt_planned(&q_x, &mut w_plan, Some(&bias), true)
                    .expect("forward");
                let mut x_plan = QGemmPlan::from_quant(q_x, 0).expect("input plan");
                let q_g = QuantTensor::quantize_with_rng(&g, nearest, &mut rng);
                let gw = int8_matmul_at_b_planned(&q_g, &mut x_plan).expect("gW");
                (y, gw)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_paper_shapes,
    bench_thread_sweep,
    bench_train_step
);
criterion_main!(benches);
