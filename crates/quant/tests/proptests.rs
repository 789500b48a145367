//! Property-based tests for the quantization crate.
//!
//! The GEMM properties are the contract of the packed engine: INT32
//! accumulation is order-independent, so for **any** shape — including
//! degenerate `m = 1` / `k = 1` and sizes that are not multiples of the
//! `MR`/`NR`/`MC`/`KC`/`NC` tiles — every planned entry point must match
//! the naive triple-loop oracles in `ff_quant::gemm::reference`
//! **bit-exactly**.

use ff_quant::gemm::reference;
use ff_quant::{
    compute_scale, int8_matmul_a_bt_planned, int8_matmul_a_bt_shared_rows,
    int8_matmul_at_b_planned, int8_matmul_at_b_planned_accumulate, int8_matmul_planned,
    quantize_value, QGemmPlan, QuantConfig, QuantTensor, Rounding, RowQuantTensor, SharedGemmPlan,
};
use ff_tensor::{linalg, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_quant(shape: &[usize], seed: u64) -> QuantTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = ff_tensor::init::uniform(shape, -1.0, 1.0, &mut rng);
    QuantTensor::quantize_with_rng(&t, QuantConfig::new(Rounding::Nearest), &mut rng)
}

fn plan(b: &QuantTensor) -> QGemmPlan {
    QGemmPlan::from_quant(b.clone(), 0).unwrap()
}

/// `a · b` through the engine, `b` served from a fresh plan.
fn packed_ab(a: &QuantTensor, b: &QuantTensor) -> Tensor {
    int8_matmul_planned(a, &mut plan(b)).unwrap()
}

/// `a · bᵀ` through the engine, `b` served from a fresh plan.
fn packed_a_bt(a: &QuantTensor, b: &QuantTensor) -> Tensor {
    int8_matmul_a_bt_planned(a, &mut plan(b), None, false)
        .unwrap()
        .0
}

/// `aᵀ · b` through the engine, `b` served from a fresh plan.
fn packed_at_b(a: &QuantTensor, b: &QuantTensor) -> Tensor {
    int8_matmul_at_b_planned(a, &mut plan(b)).unwrap()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn tensor_strategy(max_len: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_len)
        .prop_flat_map(|n| proptest::collection::vec(-100.0f32..100.0, n))
        .prop_map(|data| {
            let n = data.len();
            Tensor::from_vec(&[n], data).expect("shape")
        })
}

proptest! {
    #[test]
    fn nearest_roundtrip_error_within_half_step(t in tensor_strategy(64)) {
        let mut rng = StdRng::seed_from_u64(0);
        let q = QuantTensor::quantize_with_rng(&t, QuantConfig::new(Rounding::Nearest), &mut rng);
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data()) {
            prop_assert!((a - b).abs() <= q.scale() / 2.0 + 1e-5);
        }
    }

    #[test]
    fn stochastic_roundtrip_error_within_one_step(t in tensor_strategy(64), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = QuantTensor::quantize_with_rng(&t, QuantConfig::new(Rounding::Stochastic), &mut rng);
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data()) {
            prop_assert!((a - b).abs() <= q.scale() + 1e-5);
        }
    }

    #[test]
    fn codes_stay_in_symmetric_range(t in tensor_strategy(64), seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = QuantTensor::quantize_with_rng(&t, QuantConfig::new(Rounding::Stochastic), &mut rng);
        for &c in q.codes() {
            prop_assert!((-127..=127).contains(&(c as i32)));
        }
    }

    #[test]
    fn scale_is_monotonic_in_max_abs(a in 0.0f32..1e6, b in 0.0f32..1e6) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        prop_assert!(compute_scale(lo) <= compute_scale(hi));
    }

    #[test]
    fn quantized_matmul_tracks_fp32(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = ff_tensor::init::uniform(&[6, 10], -1.0, 1.0, &mut rng);
        let b = ff_tensor::init::uniform(&[10, 5], -1.0, 1.0, &mut rng);
        let exact = linalg::matmul(&a, &b).unwrap();
        let qa = QuantTensor::quantize_with_rng(&a, QuantConfig::default(), &mut rng);
        let qb = QuantTensor::quantize_with_rng(&b, QuantConfig::default(), &mut rng);
        let approx = packed_ab(&qa, &qb);
        let rel = exact.sub(&approx).unwrap().frobenius_norm() / (exact.frobenius_norm() + 1e-6);
        prop_assert!(rel < 0.1, "relative error {rel}");
    }

    #[test]
    fn dequantize_of_zero_tensor_is_zero(len in 1usize..64) {
        let t = Tensor::zeros(&[len]);
        let q = QuantTensor::quantize(&t, Rounding::Nearest);
        prop_assert!(q.dequantize().max_abs() == 0.0);
    }

    // ---- packed engine vs naive reference oracles -------------------------

    #[test]
    fn packed_ab_matches_reference_bit_exactly(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1000
    ) {
        let qa = random_quant(&[m, k], seed);
        let qb = random_quant(&[k, n], seed ^ 0xABCD);
        let packed = packed_ab(&qa, &qb);
        let naive = reference::int8_matmul(&qa, &qb).unwrap();
        prop_assert_eq!(packed.data(), naive.data());
    }

    #[test]
    fn packed_a_bt_matches_reference_bit_exactly(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1000
    ) {
        let qa = random_quant(&[m, k], seed);
        let qbt = random_quant(&[n, k], seed ^ 0xBEEF);
        let packed = packed_a_bt(&qa, &qbt);
        let naive = reference::int8_matmul_a_bt(&qa, &qbt).unwrap();
        prop_assert_eq!(packed.data(), naive.data());
    }

    #[test]
    fn packed_at_b_matches_reference_bit_exactly(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1000
    ) {
        let qat = random_quant(&[k, m], seed);
        let qb = random_quant(&[k, n], seed ^ 0xF00D);
        let packed = packed_at_b(&qat, &qb);
        let naive = reference::int8_matmul_at_b(&qat, &qb).unwrap();
        prop_assert_eq!(packed.data(), naive.data());
    }

    #[test]
    fn packed_kernels_cross_tile_boundaries_exactly(
        m_extra in 0usize..20, k_extra in 0usize..20, n_extra in 0usize..20, seed in 0u64..100
    ) {
        // Straddle the micro-tile (MR = 2) and row-block (MC = 64)
        // boundaries: m ∈ [56, 76) crosses MC and several MR strips, n ∈
        // [56, 76) is one 64-column strip or a 48-column strip and a ragged
        // second one, and odd k values exercise the padded half-pair.
        let (m, k, n) = (56 + m_extra, 120 + k_extra, 56 + n_extra);
        let qa = random_quant(&[m, k], seed);
        let qb = random_quant(&[k, n], seed ^ 0x51DE);
        let packed = packed_ab(&qa, &qb);
        let naive = reference::int8_matmul(&qa, &qb).unwrap();
        prop_assert_eq!(packed.data(), naive.data());
    }

    #[test]
    fn deep_and_wide_shapes_cross_kc_nc_blocks_exactly(seed in 0u64..6) {
        // k = 300 > KC = 256 exercises the accumulating (non-overwrite)
        // depth-block path of the staging buffer; n = 300 > NC = 256
        // exercises the per-NC-block epilogue offsets. All three variants.
        let (m, k, n) = (21, 300, 300);
        let qa = random_quant(&[m, k], seed);
        let qb = random_quant(&[k, n], seed ^ 0xD00F);
        let packed = packed_ab(&qa, &qb);
        let naive = reference::int8_matmul(&qa, &qb).unwrap();
        prop_assert_eq!(packed.data(), naive.data());

        let qbt = random_quant(&[n, k], seed ^ 0x1CED);
        let packed = packed_a_bt(&qa, &qbt);
        let naive = reference::int8_matmul_a_bt(&qa, &qbt).unwrap();
        prop_assert_eq!(packed.data(), naive.data());

        let qat = random_quant(&[k, m], seed ^ 0xFEED);
        let packed = packed_at_b(&qat, &qb);
        let naive = reference::int8_matmul_at_b(&qat, &qb).unwrap();
        prop_assert_eq!(packed.data(), naive.data());
    }

    // ---- accumulate epilogue vs store-then-add ---------------------------

    #[test]
    fn accumulate_epilogue_matches_store_then_add_bit_exactly(
        m in 1usize..80, k in 0usize..40, n in 1usize..300, seed in 0u64..1000
    ) {
        // m crosses MC = 64 and odd MR strips, n takes every strip width
        // and crosses NC = 256, and k is odd, even or zero. The oracle
        // stores the product, then adds it onto the accumulator.
        let qat = random_quant(&[k, m], seed);
        let qb = random_quant(&[k, n], seed ^ 0xACC0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1217);
        let initial = ff_tensor::init::uniform(&[m, n], -0.01, 0.01, &mut rng);

        let mut expected = initial.clone();
        expected.add_assign(&reference::int8_matmul_at_b(&qat, &qb).unwrap()).unwrap();

        let mut accumulated = initial;
        int8_matmul_at_b_planned_accumulate(&qat, &mut plan(&qb), accumulated.data_mut())
            .unwrap();
        prop_assert_eq!(bits(accumulated.data()), bits(expected.data()));
    }

    #[test]
    fn planned_at_b_accumulate_matches_alloc_then_add_across_calls(
        m in 1usize..40, k in 1usize..40, n in 1usize..90, seed in 0u64..1000
    ) {
        // Two backward calls onto one accumulator through one input plan,
        // as the look-ahead relay makes: the second starts from a non-zero
        // accumulator and reuses the plan's cached B panels.
        let q_input = random_quant(&[k, n], seed);
        let mut plan_add = QGemmPlan::from_quant(q_input.clone(), 0).unwrap();
        let mut plan_acc = QGemmPlan::from_quant(q_input, 0).unwrap();
        let mut expected = Tensor::zeros(&[m, n]);
        let mut accumulated = Tensor::zeros(&[m, n]);
        for call in 0..2u64 {
            let q_grad = random_quant(&[k, m], seed ^ (0x6AAD + call));
            let gw = int8_matmul_at_b_planned(&q_grad, &mut plan_add).unwrap();
            expected.add_assign(&gw).unwrap();
            int8_matmul_at_b_planned_accumulate(&q_grad, &mut plan_acc, accumulated.data_mut())
                .unwrap();
            prop_assert_eq!(bits(accumulated.data()), bits(expected.data()));
        }
        // A wrong-sized accumulator is rejected, not written past.
        let q_grad = random_quant(&[k, m], seed);
        let mut short = vec![0.0f32; m * n - 1];
        prop_assert!(
            int8_matmul_at_b_planned_accumulate(&q_grad, &mut plan_acc, &mut short).is_err()
        );
    }

    // ---- one-pass nearest quantize vs the per-element definition ----------

    #[test]
    fn nearest_quantize_matches_quantize_value_per_element(
        t in tensor_strategy(200), clip_on in 0usize..2, clip in 0.0f32..150.0
    ) {
        let config = QuantConfig::new(Rounding::Nearest).with_clip((clip_on == 1).then_some(clip));
        let mut rng = StdRng::seed_from_u64(0);
        let q = QuantTensor::quantize_with_rng(&t, config, &mut rng);
        let clip = config.clip.unwrap_or_else(|| t.max_abs());
        prop_assert_eq!(q.scale().to_bits(), compute_scale(clip).to_bits());
        for (&code, &v) in q.codes().iter().zip(t.data()) {
            let expected = quantize_value(v.clamp(-clip, clip), q.scale(), Rounding::Nearest, &mut rng);
            prop_assert_eq!(code, expected);
        }
    }

    // ---- cached plans, reused, vs the reference oracles --------------------

    #[test]
    fn planned_a_bt_is_bit_exact_with_uncached_for_arbitrary_shapes(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1000
    ) {
        // The weight-plan contract: a cached, pre-packed B operand must give
        // the oracle's bits — for any shape, and on every reuse of the plan.
        let qa = random_quant(&[m, k], seed);
        let qw = random_quant(&[n, k], seed ^ 0x9A7E);
        let naive = reference::int8_matmul_a_bt(&qa, &qw).unwrap();
        let mut plan = QGemmPlan::from_quant(qw, 0).unwrap();
        for _reuse in 0..2 {
            let (planned, _) = int8_matmul_a_bt_planned(&qa, &mut plan, None, false).unwrap();
            prop_assert_eq!(planned.data(), naive.data());
        }
    }

    #[test]
    fn planned_at_b_is_bit_exact_with_uncached_for_arbitrary_shapes(
        batch in 1usize..48, out in 1usize..48, inp in 1usize..48, seed in 0u64..1000
    ) {
        // The input-plan contract used by the backward gW GEMM: gYᵀ · X with
        // X served from a cached plan matches the oracle bit-exactly,
        // including on the second (look-ahead) backward.
        let q_grad = random_quant(&[batch, out], seed);
        let q_input = random_quant(&[batch, inp], seed ^ 0x1A5B);
        let naive = reference::int8_matmul_at_b(&q_grad, &q_input).unwrap();
        let mut plan = QGemmPlan::from_quant(q_input, 0).unwrap();
        for _reuse in 0..2 {
            let planned = int8_matmul_at_b_planned(&q_grad, &mut plan).unwrap();
            prop_assert_eq!(planned.data(), naive.data());
        }
    }

    #[test]
    fn planned_ab_is_bit_exact_with_uncached_for_arbitrary_shapes(
        m in 1usize..32, k in 1usize..32, n in 1usize..32, seed in 0u64..500
    ) {
        let qa = random_quant(&[m, k], seed);
        let qb = random_quant(&[k, n], seed ^ 0xC0DE);
        let naive = reference::int8_matmul(&qa, &qb).unwrap();
        let mut plan = QGemmPlan::from_quant(qb, 0).unwrap();
        let planned = int8_matmul_planned(&qa, &mut plan).unwrap();
        prop_assert_eq!(planned.data(), naive.data());
    }

    #[test]
    fn planned_fused_epilogue_is_bit_exact_with_uncached(
        m in 1usize..32, k in 1usize..32, n in 1usize..32, seed in 0u64..500
    ) {
        let qa = random_quant(&[m, k], seed);
        let qw = random_quant(&[n, k], seed ^ 0xFA5E);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let bias = ff_tensor::init::uniform(&[n], -0.5, 0.5, &mut rng);
        // Bias without ReLU: the oracle plus a broadcast add, bit for bit,
        // with negatives kept and no mask.
        let biased = reference::int8_matmul_a_bt(&qa, &qw)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        let mut plan = QGemmPlan::from_quant(qw, 0).unwrap();
        let (planned, mask) =
            int8_matmul_a_bt_planned(&qa, &mut plan, Some(&bias), false).unwrap();
        prop_assert!(mask.is_none());
        prop_assert_eq!(planned.data(), biased.data());
    }

    // ---- shared (inference) plans and per-row scales ----------------------

    #[test]
    fn shared_rows_gemm_is_batching_invariant_for_arbitrary_shapes(
        m in 1usize..24, k in 1usize..48, n in 1usize..48, seed in 0u64..500, relu_bit in 0u64..2
    ) {
        // The micro-batcher's correctness contract: each output row of a
        // batched per-row-quantized GEMM equals the single-row GEMM of that
        // row alone, for any shape, with and without the fused ReLU.
        let relu = relu_bit == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let w = ff_tensor::init::uniform(&[n, k], -1.0, 1.0, &mut rng);
        let x = ff_tensor::init::uniform(&[m, k], -3.0, 3.0, &mut rng);
        let bias = ff_tensor::init::uniform(&[n], -0.5, 0.5, &mut rng);
        let plan = SharedGemmPlan::from_tensor(&w).unwrap();
        let q_batch = RowQuantTensor::quantize(&x).unwrap();
        let batched =
            int8_matmul_a_bt_shared_rows(&q_batch, &plan, Some(&bias), relu, None).unwrap();
        for i in 0..m {
            let row = x.slice_rows(i, i + 1).unwrap();
            let q_row = RowQuantTensor::quantize(&row).unwrap();
            let single =
                int8_matmul_a_bt_shared_rows(&q_row, &plan, Some(&bias), relu, None).unwrap();
            prop_assert_eq!(single.data(), batched.row(i));
        }
    }

    #[test]
    fn shared_rows_gemm_matches_rowwise_reference(
        m in 1usize..16, k in 1usize..40, n in 1usize..40, seed in 0u64..500
    ) {
        // Against the naive oracle: row i must equal the per-tensor reference
        // GEMM of row i alone (for one row, per-row and per-tensor
        // quantization coincide).
        let mut rng = StdRng::seed_from_u64(seed);
        let w = ff_tensor::init::uniform(&[n, k], -1.0, 1.0, &mut rng);
        let x = ff_tensor::init::uniform(&[m, k], -2.0, 2.0, &mut rng);
        let plan = SharedGemmPlan::from_tensor(&w).unwrap();
        let q_batch = RowQuantTensor::quantize(&x).unwrap();
        let batched = int8_matmul_a_bt_shared_rows(&q_batch, &plan, None, false, None).unwrap();
        let qw = QuantTensor::quantize(&w, Rounding::Nearest);
        for i in 0..m {
            let row = x.slice_rows(i, i + 1).unwrap();
            let q_row = QuantTensor::quantize(&row, Rounding::Nearest);
            let reference = reference::int8_matmul_a_bt(&q_row, &qw).unwrap();
            prop_assert_eq!(reference.data(), batched.row(i));
        }
    }

    #[test]
    fn shared_rows_gemm_is_thread_count_invariant(threads in 1usize..=8, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = ff_tensor::init::uniform(&[27, 70], -1.0, 1.0, &mut rng);
        let x = ff_tensor::init::uniform(&[33, 70], -1.0, 1.0, &mut rng);
        let plan = SharedGemmPlan::from_tensor(&w).unwrap();
        let q = RowQuantTensor::quantize(&x).unwrap();
        let serial = int8_matmul_a_bt_shared_rows(&q, &plan, None, true, Some(1)).unwrap();
        let threaded = int8_matmul_a_bt_shared_rows(&q, &plan, None, true, Some(threads)).unwrap();
        prop_assert_eq!(serial.data(), threaded.data());
    }

    #[test]
    fn fused_epilogue_matches_separate_passes(
        m in 1usize..32, k in 1usize..32, n in 1usize..32, seed in 0u64..500
    ) {
        let qa = random_quant(&[m, k], seed);
        let qbt = random_quant(&[n, k], seed ^ 0xCAFE);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB1A5);
        let bias = ff_tensor::init::uniform(&[n], -0.5, 0.5, &mut rng);
        let (fused, mask) =
            int8_matmul_a_bt_planned(&qa, &mut plan(&qbt), Some(&bias), true).unwrap();
        let mask = mask.unwrap();
        let separate = reference::int8_matmul_a_bt(&qa, &qbt)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        for ((&f, &s), &mk) in fused.data().iter().zip(separate.data()).zip(mask.data()) {
            if s > 0.0 {
                prop_assert!(f == s, "fused {f} != separate {s}");
                prop_assert!(mk == 1.0);
            } else {
                prop_assert!(f == 0.0, "negative lane not clamped: {f}");
                prop_assert!(mk == 0.0);
            }
        }
    }
}
