//! The committed `BENCH_results.json` must pass the results guard it was
//! written under.

#[test]
fn committed_results_pass_the_guard() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_results.json");
    let text = std::fs::read_to_string(path).expect("reading the committed BENCH_results.json");
    let rows = pgas_bench::guard::check_results(&text).unwrap_or_else(|e| panic!("{e}"));
    assert!(rows > 0);
}
