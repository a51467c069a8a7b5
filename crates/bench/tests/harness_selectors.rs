//! `harness` must refuse a selector that names no figure: it used to run
//! nothing and still overwrite `BENCH_results.json` with an empty array.

use std::process::Command;

#[test]
fn unknown_selector_exits_nonzero_and_leaves_the_results_file_alone() {
    let dir = std::env::temp_dir().join(format!("harness_selectors_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let results = dir.join("BENCH_results.json");
    let committed = "[{\"name\": \"sentinel\"}]\n";
    std::fs::write(&results, committed).expect("seed results file");

    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["--quick", "fig9"])
        .current_dir(&dir)
        .output()
        .expect("running harness");

    assert!(!out.status.success(), "a bogus selector must fail the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fig9") && stderr.contains("fig3") && stderr.contains("ablations"),
        "stderr should name the bad selector and list the known ones, got: {stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(&results).expect("results file still there"),
        committed,
        "the results file must be byte-identical"
    );
    assert!(
        !dir.join("target").exists(),
        "nothing may run, so no text tee either"
    );
    std::fs::remove_dir_all(&dir).ok();
}
