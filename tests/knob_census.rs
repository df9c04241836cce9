//! Knob census: every field of every public config struct, counted.
//!
//! Each struct is destructured exhaustively (no `..`), so a new field
//! fails the build of this file until it is named here, and then fails
//! the test until [`CENSUS`] says which two callers outside tests and
//! examples need different values for it (the simplicity guide's rule
//! for a justified option).

use reason::approx::{AdaptConfig, ApproxConfig, PredictConfig, SampleConfig};
use reason::pc::CompileOptions;
use reason::sat::CubeConfig;
use reason::serve::{ClusterConfig, RouterConfig, ServeConfig, StoreConfig};
use reason::system::ExecutorConfig;

/// Destructures `$value` as `$ty { $field, .. }` with every field named
/// and returns `(type name, field names)`.
macro_rules! fields {
    ($ty:ident { $($field:ident),* } = $value:expr) => {{
        let $ty { $($field),* } = $value;
        $(let _ = &$field;)*
        (stringify!($ty), vec![$(stringify!($field)),*])
    }};
}

/// `(struct, field, who differs)`: two callers that need different
/// values, or — where there is one value outside tests — why it stays.
const CENSUS: &[(&str, &str, &str)] = &[
    ("ServeConfig", "store", "benchmark layers.rs sizes max_entries | default elsewhere"),
    ("ServeConfig", "router", "bench traffic.rs caps samples at 2048 | default elsewhere"),
    ("ServeConfig", "executor", "benchmark layers.rs sequential() | default overlapped(2)"),
    ("ServeConfig", "predictor", "bench traffic.rs trains one | default None"),
    ("ServeConfig", "approx_seed", "bench traffic.rs passes the sweep seed | default 0x5EED"),
    ("StoreConfig", "max_entries", "benchmark layers.rs per workload | default 64"),
    ("StoreConfig", "max_bytes", "one value (64 MiB); tests lift it to isolate max_entries"),
    ("RouterConfig", "max_approx_samples", "bench traffic.rs 2048 | default 65536"),
    ("ClusterConfig", "shards", "bench traffic.rs sweeps 1, 2, 4 | default 2"),
    ("ClusterConfig", "engine", "bench traffic_engine_config | benchmark serve_config"),
    (
        "ExecutorConfig",
        "symbolic_workers",
        "benchmark layers.rs sequential() 0 | ServeConfig default 2 | bench pipeline sweep 1..N",
    ),
    ("CubeConfig", "max_depth", "system demo_batch 3 | workloads alphageometry default 4"),
    ("CompileOptions", "cache", "serve kb.rs passes its persistent cache | compile_cnf None"),
    ("CompileOptions", "telemetry", "serve kb.rs compile_observed | compile_cnf None"),
    ("ApproxConfig", "method", "serve engine.rs MonteCarlo | default Importance"),
    ("ApproxConfig", "sampling", "serve engine.rs deadline-fitted | bench approx.rs 2048 per var"),
    ("ApproxConfig", "adapt", "system demo_approx_config 4 rounds | default"),
    ("SampleConfig", "samples", "serve engine.rs deadline-fitted | bench approx.rs 2048 per var"),
    ("SampleConfig", "checkpoint", "serve engine.rs samples/8 | bench approx.rs samples/16"),
    ("SampleConfig", "seed", "serve engine.rs approx_seed | system demo_approx_config per task"),
    ("AdaptConfig", "rounds", "system demo_approx_config 4 | default 10"),
    ("AdaptConfig", "batch", "system demo_approx_config 256 | default 1024"),
    ("AdaptConfig", "components", "system demo_approx_config 4 | default 8"),
    ("PredictConfig", "queries", "bench replay.rs sweep_predictor 128 | default 512"),
    ("PredictConfig", "epochs", "bench replay.rs sweep_predictor 150 | default 600"),
    ("PredictConfig", "hidden", "bench replay.rs sweep_predictor 16 | default 32"),
];

#[test]
fn every_public_config_field_is_in_the_census() {
    let structs = [
        fields!(
            ServeConfig { store, router, executor, predictor, approx_seed } =
                ServeConfig::default()
        ),
        fields!(StoreConfig { max_entries, max_bytes } = StoreConfig::default()),
        fields!(RouterConfig { max_approx_samples } = RouterConfig::default()),
        fields!(ClusterConfig { shards, engine } = ClusterConfig::default()),
        fields!(ExecutorConfig { symbolic_workers } = ExecutorConfig::sequential()),
        fields!(CubeConfig { max_depth } = CubeConfig::default()),
        fields!(CompileOptions { cache, telemetry } = CompileOptions::default()),
        fields!(ApproxConfig { method, sampling, adapt } = ApproxConfig::default()),
        fields!(SampleConfig { samples, checkpoint, seed } = SampleConfig::default()),
        fields!(AdaptConfig { rounds, batch, components } = AdaptConfig::default()),
        fields!(PredictConfig { queries, epochs, hidden } = PredictConfig::default()),
    ];
    let found: Vec<(&str, &str)> = structs
        .iter()
        .flat_map(|(ty, fields)| fields.iter().map(move |field| (*ty, *field)))
        .collect();
    let listed: Vec<(&str, &str)> = CENSUS.iter().map(|&(ty, field, _)| (ty, field)).collect();
    assert_eq!(found, listed, "CENSUS must list every field, in declaration order");
    assert_eq!(found.len(), 26, "a knob was added or removed: update the count with the table");
    assert!(CENSUS.iter().all(|(_, _, differs)| !differs.is_empty()));
}
