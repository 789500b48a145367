//! The metric sheet: every name the harness may print, with its unit.
//!
//! `BENCHMARK.json` lists the same names (the smoke test holds the two
//! together). A run with `--trace 0` prints every end-to-end metric; a run
//! with `--trace 1` prints every per-layer metric, `0` for a layer the
//! workload never calls.

use std::collections::BTreeMap;

pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.gen_s", "s"),
    ("data.dataset_mb", "MB"),
    ("data.batch_prep_ms", "ms"),
    ("tensor.im2col_ms", "ms"),
    ("tensor.im2col_bytes_per_step", "bytes"),
    ("tensor.dgrad_fp32_ms", "ms"),
    ("quant.quantize_ms", "ms"),
    ("quant.pack_ms", "ms"),
    ("quant.plan_build_ms", "ms"),
    ("quant.gemm_fwd_ms", "ms"),
    ("quant.gemm_wgrad_ms", "ms"),
    ("quant.gemm_dgrad_ms", "ms"),
    ("quant.gemm_naive_ms", "ms"),
    ("quant.packed_vs_naive_x", "x"),
    ("quant.int8_macs_per_step", "count"),
    ("quant.packed_bytes", "bytes"),
    ("quant.rowquant_us", "us"),
    ("quant.gemm_rows_ms_b1", "ms"),
    ("quant.gemm_rows_ms_b16", "ms"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("nn.self_ms", "ms"),
    ("nn.param_bytes", "bytes"),
    ("core.step_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.step_residual_ms", "ms"),
    ("core.eval_ms", "ms"),
    ("core.test_accuracy", "ratio"),
    ("core.checkpoint_ms", "ms"),
    ("core.checkpoint_bytes", "bytes"),
    ("core.loss_at_end", "loss"),
    ("core.compute_shard_ms", "ms"),
    ("core.reduce_ms", "ms"),
    ("core.step_ms_ff_fp32", "ms"),
    ("core.step_ms_bp_gdai8", "ms"),
    ("edge.model_step_ms", "ms"),
    ("edge.model_energy_mj", "mJ"),
    ("edge.model_mem_mb", "MB"),
    ("edge.rss_vs_model_x", "x"),
    ("serve.freeze_ms", "ms"),
    ("serve.artifact_bytes", "bytes"),
    ("serve.save_load_ms", "ms"),
    ("serve.direct_ms_b1", "ms"),
    ("serve.direct_ms_b16", "ms"),
    ("serve.inproc_p50_ms", "ms"),
    ("serve.batcher_overhead_ms", "ms"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.assemble_p50_ms", "ms"),
    ("serve.gemm_p50_ms", "ms"),
    ("serve.reply_write_p50_ms", "ms"),
    ("net.connect_ms", "ms"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.wire_bytes_per_req", "bytes"),
    ("net.socket_tax_ms", "ms"),
    ("net.shed_share", "ratio"),
    ("net.open_p90_ms", "ms"),
    ("net.open_p99_ms", "ms"),
    ("net.late_share_50ms", "ratio"),
    ("net.gen_late_max_ms", "ms"),
    ("dist.join_ms", "ms"),
    ("dist.wire_bytes_per_step", "bytes"),
    ("dist.frames_per_step", "count"),
    ("dist.param_sync_byte_share", "ratio"),
    ("dist.prepare_ms", "ms"),
    ("dist.sync_ms", "ms"),
    ("dist.dispatch_ms", "ms"),
    ("dist.collect_ms", "ms"),
    ("dist.reduce_ms", "ms"),
    ("dist.apply_ms", "ms"),
    ("dist.worker_decode_ms", "ms"),
    ("dist.worker_compute_ms", "ms"),
    ("dist.worker_encode_ms", "ms"),
    ("dist.encode_param_sync_ms", "ms"),
    ("dist.decode_param_sync_ms", "ms"),
    ("dist.sequential_step_ms", "ms"),
    ("dist.vs_sequential_x", "x"),
    ("dist.local_recomputes", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans_recorded", "count"),
    ("trace.dropped", "count"),
];

/// What one run of one workload found.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked against its oracle matched.
    pub correct: bool,
    pub attempted: u64,
    /// Ops that errored, were shed, or returned a wrong answer.
    pub failed: u64,
    pub ledger: Ledger,
    /// Context for a human reader, printed to standard error.
    pub notes: Vec<String>,
}

/// The values one run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records `value` under `name`, which must be on one of the sheets.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "metric {name} is not on the sheet"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line for one sheet, in sheet
    /// order. A metric left unset belongs to a layer this workload
    /// bypasses and prints `0`; with `all_measured` (the end-to-end sheet)
    /// it is a bug in the harness instead.
    pub fn render(&self, sheet: &[(&'static str, &'static str)], all_measured: bool) -> String {
        let entries: Vec<String> = sheet
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(value) => *value,
                    None if all_measured => panic!("metric {name} was not measured"),
                    None => 0.0,
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn render_fills_bypassed_layers_with_zero() {
        let mut ledger = Ledger::default();
        ledger.set("data.gen_s", 0.25);
        let text = ledger.render(PER_LAYER, false);
        assert!(text.starts_with("{\"data.gen_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(text.contains("\"trace.dropped\": {\"value\": 0, \"unit\": \"count\"}"));
    }
}
