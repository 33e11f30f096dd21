//! The paper figures as a golden transcript. The six experiment
//! binaries are deterministic (fixed seeds, simulated disk), so their
//! stdout must equal the committed `experiments_output.txt` byte for
//! byte. A change that moves a paper figure re-generates the transcript
//! in the same commit:
//!
//! ```text
//! for b in figures threshold alloc_cost scalability cache_effect compare; do
//!     echo "===== $b ====="; cargo run -q --release -p eos-bench --bin $b
//! done > experiments_output.txt
//! ```

use std::process::Command;

/// The binaries in transcript order, each with its `CARGO_BIN_EXE_*`.
const BINARIES: [(&str, &str); 6] = [
    ("figures", env!("CARGO_BIN_EXE_figures")),
    ("threshold", env!("CARGO_BIN_EXE_threshold")),
    ("alloc_cost", env!("CARGO_BIN_EXE_alloc_cost")),
    ("scalability", env!("CARGO_BIN_EXE_scalability")),
    ("cache_effect", env!("CARGO_BIN_EXE_cache_effect")),
    ("compare", env!("CARGO_BIN_EXE_compare")),
];

#[test]
fn experiment_binaries_reproduce_the_committed_transcript() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");
    let golden = std::fs::read_to_string(golden_path).unwrap();
    // The binaries fold their metrics into BENCH_OBS_PATH; keep that
    // file out of the source tree.
    let obs_dir = std::env::temp_dir().join(format!("eos-golden-{}", std::process::id()));
    std::fs::create_dir_all(&obs_dir).unwrap();

    let mut transcript = String::new();
    for (name, exe) in BINARIES {
        let out = Command::new(exe)
            .env("BENCH_OBS_PATH", obs_dir.join("BENCH_obs.json"))
            .output()
            .unwrap();
        assert!(out.status.success(), "{name} exited {}", out.status);
        transcript.push_str(&format!("===== {name} =====\n"));
        transcript.push_str(&String::from_utf8(out.stdout).unwrap());
    }
    let _ = std::fs::remove_dir_all(&obs_dir);

    if transcript != golden {
        let line = golden
            .lines()
            .zip(transcript.lines())
            .position(|(want, got)| want != got)
            .unwrap_or_else(|| golden.lines().count().min(transcript.lines().count()));
        let want = golden.lines().nth(line).unwrap_or("<end of file>");
        let got = transcript.lines().nth(line).unwrap_or("<end of output>");
        panic!(
            "experiments_output.txt line {}: a paper figure moved\n  committed: {want}\n  produced:  {got}",
            line + 1
        );
    }
}
