//! `BENCH_obs.json` — machine-readable metrics from experiment runs.
//!
//! Every experiment binary routes its EOS stores through the
//! process-global [`eos_core::obs`] domain and, on exit, calls
//! [`emit`] to fold its [`MetricsSnapshot`] into `BENCH_obs.json`
//! (one member per bench, replaced on re-run, other benches'
//! members preserved), so CI and notebooks can diff attributed
//! per-operation I/O across commits without scraping tables.

use eos_check::Json;
use eos_obs::MetricsSnapshot;
use std::path::PathBuf;

/// Default output file, relative to the working directory.
pub const OBS_FILE: &str = "BENCH_obs.json";

/// True when `--quick` is on the command line — experiment binaries
/// shrink their workloads so a CI smoke run finishes in seconds.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `full` normally, a tenth of it (at least 1) under `--quick` — the
/// one-line way for binaries to scale workload knobs.
pub fn scaled(full: u64) -> u64 {
    if quick() {
        (full / 10).max(1)
    } else {
        full
    }
}

/// Fold one bench's snapshot into `BENCH_obs.json` (or the file named
/// by `BENCH_OBS_PATH`). The document is an object keyed by bench
/// name; an unreadable or malformed existing file is replaced rather
/// than appended to. Returns the path written.
pub fn emit(bench: &str, snapshot: &MetricsSnapshot) -> std::io::Result<PathBuf> {
    let path =
        std::env::var_os("BENCH_OBS_PATH").map_or_else(|| PathBuf::from(OBS_FILE), PathBuf::from);
    let mut doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| eos_check::schema::parse(&text).ok())
        .filter(|j| matches!(j, Json::Obj(_)))
        .unwrap_or(Json::Obj(Vec::new()));
    let metrics = eos_check::schema::parse(&snapshot.to_json_object())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut record = Json::Obj(Vec::new());
    record.set("quick", Json::Bool(quick()));
    record.set("metrics", metrics);
    doc.set(bench, record);
    std::fs::write(&path, doc.render() + "\n")?;
    Ok(path)
}

/// [`emit`] for binaries without error plumbing: print where the
/// snapshot went, or the reason it could not be written.
pub fn emit_or_warn(bench: &str, snapshot: &MetricsSnapshot) {
    match emit(bench, snapshot) {
        Ok(path) => eprintln!("observability snapshot -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {OBS_FILE}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eos_obs::Metrics;

    #[test]
    fn emit_merges_records_by_bench_name() {
        let dir = std::env::temp_dir().join(format!("eos-bench-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_obs.json");
        std::env::set_var("BENCH_OBS_PATH", &path);

        let m = Metrics::new();
        m.counter("wal.frames").add(7);
        emit("alpha", &m.snapshot()).unwrap();
        m.counter("wal.frames").add(1);
        emit("beta", &m.snapshot()).unwrap();
        emit("alpha", &m.snapshot()).unwrap(); // replaces, not duplicates

        let doc = eos_check::schema::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let frames = |bench: &str| {
            doc.get(bench)
                .and_then(|b| b.get("metrics"))
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("wal.frames"))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert_eq!(frames("alpha"), 8);
        assert_eq!(frames("beta"), 8);
        if let Json::Obj(members) = &doc {
            assert_eq!(members.len(), 2, "no duplicate members");
        } else {
            panic!("document must be an object");
        }

        std::env::remove_var("BENCH_OBS_PATH");
        std::fs::remove_file(&path).ok();
    }
}
