//! # ff-bench
//!
//! Criterion micro-benchmarks of the INT8 GEMM engine (`bench_gemm`) and of
//! the FF-INT8 training step (`bench_train`). The crate has no library code;
//! it exists to own the two bench targets. Run one with
//! `cargo bench -p ff-bench --bench <target>`; each writes a
//! `BENCH_<target>.json` baseline into `crates/bench/`.
//!
//! Performance claims cite the repository benchmark (`ff_bench/`, described
//! by the root `BENCHMARK.json`), not these targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
