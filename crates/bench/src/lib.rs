//! Benchmark harness for the Slice reproduction: one runner per paper
//! table and figure (see the `src/bin` binaries), plus micro-benchmarks
//! of the µproxy fast path in `benches/micro.rs` — a self-contained
//! timing loop, since the crate has no external dependencies.

pub mod experiments;

pub use experiments::{
    bench_config, cli, maybe_write_json, obs_doc, phases_obs_json, print_series, repo_root,
    run_bulk, run_bulk_stats, run_sfs_baseline, run_sfs_slice, run_untar_mfs, run_untar_mfs_stats,
    run_untar_slice, run_untar_slice_stats, run_uproxy_phases, run_uproxy_phases_par,
    series_obs_json, write_json, BulkResult, EngineTotals, SfsResult,
};
