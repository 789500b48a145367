//! Property-based tests for the tensor crate.

use ff_tensor::conv::{self, ConvGeometry};
use ff_tensor::{linalg, Tensor};
use proptest::prelude::*;

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(&[r, c], data).expect("shape"))
    })
}

proptest! {
    #[test]
    fn matmul_identity_is_noop(a in small_matrix(6)) {
        let n = a.shape()[1];
        let mut id = Tensor::zeros(&[n, n]);
        for i in 0..n {
            id.set2(i, i, 1.0).unwrap();
        }
        let prod = linalg::matmul(&a, &id).unwrap();
        for (x, y) in prod.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(a in small_matrix(5), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let k = a.shape()[1];
        let b = ff_tensor::init::uniform(&[k, 3], -1.0, 1.0, &mut rng);
        let c = ff_tensor::init::uniform(&[k, 3], -1.0, 1.0, &mut rng);
        let lhs = linalg::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = linalg::matmul(&a, &b).unwrap().add(&linalg::matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_is_involution(a in small_matrix(8)) {
        let tt = linalg::transpose(&linalg::transpose(&a).unwrap()).unwrap();
        prop_assert_eq!(tt.data(), a.data());
    }

    #[test]
    fn matmul_a_bt_matches_explicit(a in small_matrix(5), b in small_matrix(5)) {
        // make inner dims agree by construction
        let k = a.shape()[1];
        let b = if b.shape()[1] == k { b } else {
            Tensor::from_vec(&[b.shape()[0], k], vec![0.5; b.shape()[0] * k]).unwrap()
        };
        let direct = linalg::matmul_a_bt(&a, &b).unwrap();
        let explicit = linalg::matmul(&a, &linalg::transpose(&b).unwrap()).unwrap();
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn relu_is_idempotent_and_nonnegative(a in small_matrix(8)) {
        let r = a.relu();
        prop_assert!(r.min_value() >= 0.0);
        let rr = r.relu();
        prop_assert_eq!(rr.data(), r.data());
    }

    #[test]
    fn normalize_rows_produces_unit_norm(a in small_matrix(8)) {
        prop_assume!(a.data().iter().all(|x| x.abs() > 1e-3));
        let n = a.normalize_rows(0.0);
        for r in 0..n.rows() {
            let norm: f32 = n.row(r).iter().map(|x| x * x).sum::<f32>().sqrt();
            prop_assert!((norm - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn sum_axis0_matches_total_sum(a in small_matrix(8)) {
        let col_total = a.sum_axis0().sum();
        prop_assert!((col_total - a.sum()).abs() < 1e-3 * (1.0 + a.sum().abs()));
    }

    #[test]
    fn conv_of_ones_counts_window(h in 3usize..7, w in 3usize..7) {
        let input = Tensor::ones(&[1, 1, h, w]);
        let weight = Tensor::ones(&[1, 1, 2, 2]);
        let out = conv::conv2d(&input, &weight, None, ConvGeometry::new(2, 1, 0).unwrap()).unwrap();
        for &v in out.data() {
            prop_assert!((v - 4.0).abs() < 1e-5);
        }
    }

    // ---- cache-blocked matmul vs the plain ikj loop -------------------------

    #[test]
    fn matmul_matches_plain_ikj_loop_on_both_sides_of_the_size_gate(
        m in 1usize..40, shape in 0usize..6, keep_percent in 0usize..=100, seed in 0u64..500
    ) {
        use rand::{Rng, SeedableRng};
        // `k·n` below, exactly at and above the 2^18-element gate that
        // switches `matmul` to its cache-blocked loop; n both a multiple of
        // the column block and ragged; m = 1 (never blocked), below, at and
        // above the 16-row block, and large enough to shard across threads.
        let (k, n) = [(17, 33), (511, 512), (512, 512), (300, 900), (1030, 257), (256, 1024)][shape];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut a = ff_tensor::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
        // Sparsity from all-zero to dense: the zero-skip must not reorder.
        for v in a.data_mut() {
            if rng.gen_range(0..100) >= keep_percent {
                *v = 0.0;
            }
        }
        let b = ff_tensor::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let mut plain = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = a.data()[i * k + p];
                if a_ip == 0.0 {
                    continue;
                }
                for j in 0..n {
                    plain[i * n + j] += a_ip * b.data()[p * n + j];
                }
            }
        }
        let got = linalg::matmul(&a, &b).unwrap();
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(got.data()), bits(&plain));
    }

    // ---- parallel/fused fp32 kernels vs explicit-transpose reference ------

    #[test]
    fn matmul_a_bt_any_shape_within_1e4(
        m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..500
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = ff_tensor::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let bt = ff_tensor::init::uniform(&[n, k], -1.0, 1.0, &mut rng);
        let direct = linalg::matmul_a_bt(&a, &bt).unwrap();
        let explicit = linalg::matmul(&a, &linalg::transpose(&bt).unwrap()).unwrap();
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            let tol = 1e-4f32 * (1.0 + y.abs());
            prop_assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_at_b_any_shape_within_1e4(
        m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..500
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let at = ff_tensor::init::uniform(&[k, m], -1.0, 1.0, &mut rng);
        let b = ff_tensor::init::uniform(&[k, n], -1.0, 1.0, &mut rng);
        let direct = linalg::matmul_at_b(&at, &b).unwrap();
        let explicit = linalg::matmul(&linalg::transpose(&at).unwrap(), &b).unwrap();
        for (x, y) in direct.data().iter().zip(explicit.data()) {
            let tol = 1e-4f32 * (1.0 + y.abs());
            prop_assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn fused_bias_relu_epilogue_matches_separate_passes(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..500
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = ff_tensor::init::uniform(&[m, k], -1.0, 1.0, &mut rng);
        let bt = ff_tensor::init::uniform(&[n, k], -1.0, 1.0, &mut rng);
        let bias = ff_tensor::init::uniform(&[n], -0.5, 0.5, &mut rng);
        let (fused, mask) = linalg::matmul_a_bt_fused(&a, &bt, Some(&bias), true).unwrap();
        let mask = mask.unwrap();
        let separate = linalg::matmul_a_bt(&a, &bt)
            .unwrap()
            .add_row_broadcast(&bias)
            .unwrap();
        for ((&f, &s), &mk) in fused.data().iter().zip(separate.data()).zip(mask.data()) {
            if s > 0.0 {
                prop_assert!(f == s, "fused {f} != separate {s}");
                prop_assert!(mk == 1.0);
            } else {
                prop_assert!(f == 0.0);
                prop_assert!(mk == 0.0);
            }
        }
    }

    #[test]
    fn global_avg_pool_preserves_mean(n in 1usize..3, c in 1usize..4, hw in 2usize..5) {
        let len = n * c * hw * hw;
        let data: Vec<f32> = (0..len).map(|i| (i % 17) as f32 / 4.0).collect();
        let input = Tensor::from_vec(&[n, c, hw, hw], data).unwrap();
        let pooled = conv::global_avg_pool(&input).unwrap();
        prop_assert!((pooled.mean() - input.mean()).abs() < 1e-4);
    }
}
