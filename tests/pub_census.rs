//! Public-surface census: every `pub` item names a caller outside tests.
//!
//! `knob_census.rs`'s sibling for the API. The scan walks
//! `crates/*/src/**/*.rs`, strips `//` comments (doc examples with
//! them), cuts each file at its first `#[cfg(test)]`, drops `pub use`
//! re-exports, collects every `pub (fn|struct|enum|trait|const|type|
//! static) NAME`, and counts the name's identifier occurrences in what
//! is left of every crate file, `benchmark/src` and `examples/`. A name
//! that occurs nowhere but at its own definition is reachable from
//! tests only, and must be deleted or carry a [`KEPT`] row saying which
//! of four reasons keeps it:
//!
//! * (a) it models a component the paper describes (section cited);
//! * (b) it is a reference, generator or probe a test reads;
//! * (c) an open ROADMAP item names it;
//! * (d) it is an I/O format.
//!
//! The scan attributes by identifier, so a name defined `pub` in more
//! than one place (`new`, `len`, `stats`, …) cannot be attributed and is
//! skipped; [`AMBIGUOUS_NAMES`] pins how many, so a new `pub fn new`
//! does not silently widen the blind spot. [`PUB_ITEMS`] pins the size
//! of the surface itself: the compiler already refuses a `pub` item
//! nothing outside its crate needs to be `pub` for (every `pub fn` is
//! as narrow as the workspace, `benchmark/` and the doctests allow, and
//! the lib build denies dead code), so a new `pub` item is a decision
//! this count makes visible.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// `(file, item, why)`, sorted by file then item.
const KEPT: &[(&str, &str, &str)] = &[
    (
        "crates/arch/src/bcp.rs",
        "move_watch",
        "(a) Sec. V / Fig. 9: the watched-literal unit's new-watch move",
    ),
    (
        "crates/arch/src/bcp.rs",
        "watchers_of",
        "(a) Sec. V / Fig. 9: the watched-literal unit's list traversal with its SRAM-read count",
    ),
    (
        "crates/arch/src/benes.rs",
        "num_stages",
        "(a) Sec. V: depth of the Benes operand network, 2 log2 N - 1",
    ),
    (
        "crates/arch/src/config.rs",
        "dpu_like",
        "(a) Table III: the DPU-like baseline template (8 PEs, 56 nodes)",
    ),
    (
        "crates/arch/src/tree.rs",
        "pipelined_broadcast_cycles",
        "(a) Fig. 9: fill-plus-one-per-item latency of the pipelined broadcast tree",
    ),
    (
        "crates/arch/src/tree.rs",
        "reduce",
        "(a) Sec. V: functional model of the tree PE's reduction mode",
    ),
    (
        "crates/fol/src/unify.rs",
        "unify_terms",
        "(b) reference: term-level MGU the unifier's unit tests and doctest drive directly",
    ),
    (
        "crates/hmm/src/constrain.rs",
        "avoids_symbol",
        "(b) generator: the lexical-ban DFA the constrained-decoding tests use",
    ),
    (
        "crates/hmm/src/learn.rs",
        "baum_welch",
        "(a) Sec. II-C Eq. 2: HMM parameter learning, the substrate's training half",
    ),
    (
        "crates/neural/src/sparse.rs",
        "spmspm",
        "(a) Sec. V-B: the SpMSpM kernel the tree PEs run in SpMSpM mode",
    ),
    (
        "crates/neural/src/sparse.rs",
        "spmspm_macs",
        "(a) Sec. V-B: the MAC count of that kernel",
    ),
    (
        "crates/neural/src/sparse.rs",
        "spmv",
        "(a) Sec. V-B: sparse matrix-vector product, same mode",
    ),
    (
        "crates/neural/src/sparse.rs",
        "to_dense",
        "(b) probe: tests/integration_stack.rs compares sparse kernels with the dense reference through it",
    ),
    (
        "crates/pc/src/circuit.rs",
        "is_syntactically_deterministic",
        "(b) probe: the determinism check compile and property tests read",
    ),
    (
        "crates/pc/src/compile.rs",
        "has_mass",
        "(b) probe: property tests skip zero-mass instances through it",
    ),
    (
        "crates/pc/src/compile.rs",
        "retained_nodes",
        "(b) probe: tests/persistent_cache.rs pins released arrays through it",
    ),
    (
        "crates/pc/src/compile.rs",
        "uniform",
        "(b) generator: the uniform-weight instance of every counting test and doctest",
    ),
    (
        "crates/pc/src/dnnf.rs",
        "lanes_computed",
        "(b) probe: tests/batch_traversal_guard.rs pins the node·lanes the sum-product walk computes through it",
    ),
    (
        "crates/pc/src/dnnf.rs",
        "slab_bytes",
        "(b) probe: tests/batch_traversal_guard.rs pins scratch-table bytes through it",
    ),
    (
        "crates/pc/src/flows.rs",
        "em_step",
        "(a) Sec. II-C Eq. 1 / Sec. IV-B: circuit-flow EM, the substrate's training half",
    ),
    (
        "crates/sat/src/brute.rs",
        "brute_force",
        "(b) reference: the enumeration oracle every SAT engine is checked against",
    ),
    (
        "crates/sat/src/brute.rs",
        "count_models",
        "(b) reference: the #SAT oracle of the compile tests",
    ),
    (
        "crates/sat/src/cnf.rs",
        "parse_dimacs",
        "(d) DIMACS reader, the twin of to_dimacs",
    ),
    (
        "crates/sat/src/gen.rs",
        "pigeonhole",
        "(b) generator: the hard UNSAT family of the solver tests",
    ),
    (
        "crates/sat/src/gen.rs",
        "planted_ksat",
        "(b) generator: satisfiable-by-construction instances the guard tests build on",
    ),
    (
        "crates/sat/src/preprocess.rs",
        "reconstruct_model",
        "(b) reference: lifts a reduced model back, which the pinned preprocessing tests verify",
    ),
    (
        "crates/serve/src/cluster.rs",
        "with_shards",
        "(b) generator: the n-shard default cluster of eighteen unit tests",
    ),
    (
        "crates/serve/src/kb.rs",
        "component_cache",
        "(b) probe: tests/persistent_cache.rs reads the cache's retained nodes and bytes",
    ),
    (
        "crates/system/src/device.rs",
        "check_status",
        "(a) Listing 1, Sec. VI-B: REASON_check_status",
    ),
    (
        "crates/system/src/device.rs",
        "execute_sat",
        "(a) Listing 1, Sec. VI-B: REASON_execute in symbolic mode",
    ),
    (
        "crates/system/src/sync.rs",
        "symbolic_ready",
        "(a) Sec. VI-B: the host's non-blocking symbolic_ready poll",
    ),
    (
        "crates/system/src/sync.rs",
        "wait_neural",
        "(a) Sec. VI-B: the device's blocking neural_ready wait",
    ),
    (
        "crates/telemetry/src/export.rs",
        "lint_prometheus",
        "(d) the linter of the Prometheus text format, which the sweep tests run over every registry",
    ),
    (
        "crates/telemetry/src/export.rs",
        "prometheus_text",
        "(d) the Prometheus text exposition of a metrics registry",
    ),
    (
        "crates/telemetry/src/metrics.rs",
        "merge",
        "(b) probe: tests/property_invariants.rs holds histograms merged across threads to one tally through it",
    ),
    (
        "crates/workloads/src/spec.rs",
        "symbolic_runtime_share",
        "(a) Fig. 3(a): measured symbolic share of end-to-end runtime per workload",
    ),
];

/// `pub` items under `crates/*/src`, re-exports not counted.
const PUB_ITEMS: usize = 741;

/// Names with more than one `pub` definition under `crates/*/src`.
const AMBIGUOUS_NAMES: usize = 53;

const KINDS: [&str; 7] = ["fn", "struct", "enum", "trait", "const", "type", "static"];

/// The non-test code of one source file: comments gone, everything from
/// the first top-level `#[cfg(test)]` on gone (an indented one marks a
/// single item inside an `impl`, not the test module), `pub use …;`
/// re-exports gone.
fn non_test_code(source: &str) -> String {
    let mut code = String::new();
    for line in source.lines() {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        code.push_str(line.split("//").next().unwrap_or(""));
        code.push('\n');
    }
    while let Some(start) = code.find("pub use ") {
        let end = code[start..].find(';').map_or(code.len(), |semi| start + semi + 1);
        code.replace_range(start..end, "");
    }
    code
}

fn identifiers(code: &str) -> Vec<&str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty() && !t.starts_with(|c: char| c.is_ascii_digit()))
        .collect()
}

/// The names a file defines as `pub <kind> NAME` (`pub const fn` too;
/// `pub(crate)` tokenizes as `pub crate …` and never matches).
fn pub_definitions<'a>(idents: &[&'a str]) -> Vec<&'a str> {
    let mut names = Vec::new();
    for i in 0..idents.len().saturating_sub(2) {
        if idents[i] != "pub" || !KINDS.contains(&idents[i + 1]) {
            continue;
        }
        let const_fn = idents[i + 1] == "const" && idents[i + 2] == "fn";
        if let Some(name) = idents.get(if const_fn { i + 3 } else { i + 2 }) {
            names.push(*name);
        }
    }
    names
}

struct Census {
    /// `pub` items found.
    items: usize,
    /// Names skipped because more than one `pub` item carries them.
    ambiguous: usize,
    /// `(file, name)` of every item no non-test code mentions.
    uncalled: BTreeSet<(String, String)>,
}

/// Scans `crate_files` for definitions and `crate_files` plus
/// `caller_files` for callers; both are `(path, source)`.
fn census(crate_files: &[(String, String)], caller_files: &[(String, String)]) -> Census {
    let crate_code: Vec<String> = crate_files.iter().map(|(_, s)| non_test_code(s)).collect();
    let caller_code: Vec<String> = caller_files.iter().map(|(_, s)| non_test_code(s)).collect();
    let mut defined_in: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut occurrences: BTreeMap<&str, usize> = BTreeMap::new();
    for (code, (path, _)) in crate_code.iter().zip(crate_files) {
        let idents = identifiers(code);
        for name in pub_definitions(&idents) {
            defined_in.entry(name).or_default().push(path);
        }
        for ident in idents {
            *occurrences.entry(ident).or_default() += 1;
        }
    }
    for ident in caller_code.iter().flat_map(|code| identifiers(code)) {
        *occurrences.entry(ident).or_default() += 1;
    }
    let mut result = Census { items: 0, ambiguous: 0, uncalled: BTreeSet::new() };
    for (name, files) in &defined_in {
        result.items += files.len();
        if files.len() > 1 {
            result.ambiguous += 1;
        } else if occurrences[name] == 1 {
            result.uncalled.insert((files[0].to_string(), name.to_string()));
        }
    }
    result
}

/// Every `.rs` file under `dir`, as `(path relative to root, source)`,
/// sorted by path.
fn rust_files(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<_> = entries.map(|e| e.expect("readable dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(root, &path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let relative = path.strip_prefix(root).expect("under root").to_string_lossy();
            out.push((relative.into_owned(), fs::read_to_string(&path).expect("readable source")));
        }
    }
}

#[test]
fn every_pub_item_has_a_caller_outside_tests_or_a_kept_row() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crate_files = Vec::new();
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    crates.sort();
    for krate in crates {
        rust_files(root, &krate.join("src"), &mut crate_files);
    }
    let mut caller_files = Vec::new();
    rust_files(root, &root.join("benchmark/src"), &mut caller_files);
    rust_files(root, &root.join("examples"), &mut caller_files);

    let found = census(&crate_files, &caller_files);
    println!(
        "{} pub items in {} files; {} ambiguous names skipped; {} uncalled outside tests",
        found.items,
        crate_files.len(),
        found.ambiguous,
        found.uncalled.len()
    );
    let kept: BTreeSet<(String, String)> =
        KEPT.iter().map(|&(file, item, _)| (file.to_string(), item.to_string())).collect();
    let unlisted: Vec<_> = found.uncalled.difference(&kept).collect();
    assert!(
        unlisted.is_empty(),
        "pub items only tests reach — delete them or add a KEPT row with a reason: {unlisted:#?}"
    );
    let stale: Vec<_> = kept.difference(&found.uncalled).collect();
    assert!(stale.is_empty(), "KEPT rows whose item gained a caller or is gone: {stale:#?}");
    assert_eq!(
        found.ambiguous, AMBIGUOUS_NAMES,
        "a name gained or lost a second pub definition: update the pinned count"
    );
    assert_eq!(
        found.items, PUB_ITEMS,
        "the public surface grew or shrank: narrow the new item, or update the pinned count"
    );
}

#[test]
fn kept_is_sorted_unique_and_reasoned() {
    assert!(KEPT.len() <= 50, "KEPT is a short list of exceptions, not a registry");
    for pair in KEPT.windows(2) {
        assert!(
            (pair[0].0, pair[0].1) < (pair[1].0, pair[1].1),
            "KEPT out of order or duplicated at {:?}",
            pair[1]
        );
    }
    for (file, item, why) in KEPT {
        let kind = why.as_bytes().get(1).copied();
        assert!(
            why.starts_with('(') && matches!(kind, Some(b'a'..=b'd')) && why.len() > 4,
            "{file} {item}: the reason starts with its kind, (a)-(d)"
        );
    }
}

#[test]
fn scanner_separates_tests_only_doc_only_and_live() {
    let file = |path: &str, source: &str| (path.to_string(), source.to_string());
    let lib = file(
        "crates/x/src/lib.rs",
        "pub fn only_tests() {}\n\
         /// ```\n/// x::only_docs();\n/// ```\n\
         pub fn only_docs() {}\n\
         pub const fn live() {}\n\
         pub(crate) fn not_public() {}\n\
         pub use other::reexported;\n\
         #[cfg(test)]\nmod tests { fn t() { super::only_tests(); } }\n",
    );
    let other =
        file("crates/x/src/other.rs", "pub fn reexported() {}\nfn f() { crate::live(); }\n");
    let found = census(&[lib, other], &[]);
    assert_eq!(found.items, 4);
    assert_eq!(found.ambiguous, 0);
    let uncalled: Vec<(&str, &str)> =
        found.uncalled.iter().map(|(f, n)| (f.as_str(), n.as_str())).collect();
    assert_eq!(
        uncalled,
        [
            ("crates/x/src/lib.rs", "only_docs"),
            ("crates/x/src/lib.rs", "only_tests"),
            ("crates/x/src/other.rs", "reexported"),
        ]
    );

    // A caller in `benchmark/src` or `examples/` keeps an item alive; a
    // second definition of the name makes it unattributable.
    let lib = file("crates/x/src/lib.rs", "pub fn served() {}\npub fn new() {}\n");
    let twin = file("crates/y/src/lib.rs", "pub fn new() {}\n");
    let bench = file("benchmark/src/layers.rs", "fn f() { x::served(); }\n");
    let found = census(&[lib, twin], &[bench]);
    assert_eq!((found.items, found.ambiguous), (3, 1));
    assert!(found.uncalled.is_empty());
}
