//! Small shared pieces: order statistics, the operation tally, the
//! payload pool and its checksum, and the byte-string model the edit
//! workload is checked against.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Nanoseconds since `t0`, saturating.
pub fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Best effort: pin the calling thread to CPU `worker % nproc` with the
/// `taskset` program. Threads that hand a latch back and forth are
/// pulled onto one CPU by the scheduler's wake-affine heuristic and let
/// go again, seconds at a time; on the two-CPU development box that
/// flipped the two-thread sections between two speeds (snapshot reads at
/// 65 000 or 120 000 a second). Pinned, they stay in the mode two clients
/// on two CPUs would see. Without `taskset` or `/proc` nothing happens.
pub fn pin_current_thread(worker: usize) {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return;
    };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()) else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-p", "-c", &(worker % cpus).to_string(), tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// Fisher–Yates with the bench's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of latencies in nanoseconds, in
/// microseconds; 0 for an empty slice. Sorts the slice.
pub fn quantile_us(latencies_ns: &mut [u64], q: f64) -> f64 {
    if latencies_ns.is_empty() {
        return 0.0;
    }
    latencies_ns.sort_unstable();
    let rank = (q * latencies_ns.len() as f64).ceil() as usize;
    latencies_ns[rank.clamp(1, latencies_ns.len()) - 1] as f64 / 1000.0
}

/// Operations per second of one closed-loop client: the count over the
/// sum of its latencies.
pub fn rate_per_s(latencies_ns: &[u64]) -> f64 {
    ratio(
        latencies_ns.len() as f64,
        latencies_ns.iter().sum::<u64>() as f64 / 1e9,
    )
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Operations attempted and failed. A failure is an error return, a
/// checksum or model mismatch, a torn snapshot pair, a checker finding
/// or a lost acknowledged commit — counted, reported, never a panic.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the run's report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Record one failed check.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    /// Count one attempted operation; keep its value or count the error.
    pub fn attempt<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(|| format!("{what}: {e}"));
                None
            }
        }
    }

    /// Count one operation and the commit of its transaction; keep the
    /// operation's value only if both succeeded.
    pub fn attempt_txn<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        value: Result<T, E>,
        commit: Result<(), E>,
    ) -> Option<T> {
        let value = self.attempt(what, value);
        let commit = self.attempt(&format!("{what} commit"), commit);
        value.filter(|_| commit.is_some())
    }

    /// Count one attempted check that must hold.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Fold another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

/// Seeded random bytes every payload is sliced from: generating 100 MiB
/// per ingest round would cost more than storing it.
pub struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    /// `len` seeded bytes.
    pub fn new(seed: u64, len: usize) -> Pool {
        let mut bytes = vec![0u8; len];
        StdRng::seed_from_u64(seed).fill_bytes(&mut bytes);
        Pool { bytes }
    }

    /// `len` bytes starting at a seeded offset; panics if `len` exceeds
    /// the pool (a bench sizing bug).
    pub fn slice(&self, rng: &mut StdRng, len: usize) -> &[u8] {
        let slack = self.bytes.len() - len;
        let at = (rng.next_u64() % (slack as u64 + 1)) as usize;
        &self.bytes[at..at + len]
    }
}

/// A 64-bit multiply-rotate checksum, eight bytes a step: fast enough
/// that verifying a scan costs less than the scan.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ data.len() as u64;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Chunks larger than this split in two.
const CHUNK_MAX: usize = 128 << 10;

/// The reference byte string of one object. A flat `Vec<u8>` would move
/// 2 MiB on the average mid-object insert into 4 MiB — several times
/// the cost of the store operation it mirrors; chunks keep every edit
/// to a memmove of at most [`CHUNK_MAX`] bytes.
#[derive(Debug, Clone, Default)]
pub struct Model {
    chunks: Vec<Vec<u8>>,
    len: u64,
}

impl Model {
    /// A model holding `data`.
    pub fn from_bytes(data: &[u8]) -> Model {
        Model {
            chunks: data.chunks(CHUNK_MAX / 2).map(<[u8]>::to_vec).collect(),
            len: data.len() as u64,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// The chunk holding byte `offset` and the offset within it; one
    /// past the last chunk's end for `offset == len`.
    fn locate(&self, offset: u64) -> (usize, usize) {
        let mut rest = offset as usize;
        for (i, c) in self.chunks.iter().enumerate() {
            if rest < c.len() || (i + 1 == self.chunks.len() && rest == c.len()) {
                return (i, rest);
            }
            rest -= c.len();
        }
        (self.chunks.len(), 0)
    }

    /// Insert `data` before byte `offset` (`offset == len` appends).
    pub fn insert(&mut self, offset: u64, data: &[u8]) {
        assert!(offset <= self.len, "model insert past the end");
        let (i, at) = self.locate(offset);
        if i == self.chunks.len() {
            self.chunks.push(data.to_vec());
        } else {
            let c = &mut self.chunks[i];
            c.splice(at..at, data.iter().copied());
            if c.len() > CHUNK_MAX {
                let tail = c.split_off(c.len() / 2);
                self.chunks.insert(i + 1, tail);
            }
        }
        self.len += data.len() as u64;
    }

    /// Remove `len` bytes starting at `offset`.
    pub fn delete(&mut self, offset: u64, len: u64) {
        assert!(offset + len <= self.len, "model delete past the end");
        let (mut i, mut at) = self.locate(offset);
        let mut left = len as usize;
        while left > 0 {
            let c = &mut self.chunks[i];
            let take = left.min(c.len() - at);
            c.drain(at..at + take);
            left -= take;
            if c.is_empty() {
                self.chunks.remove(i);
            } else {
                i += 1;
            }
            at = 0;
        }
        self.len -= len;
    }

    /// Overwrite bytes starting at `offset`, length unchanged.
    pub fn replace(&mut self, offset: u64, data: &[u8]) {
        assert!(
            offset + data.len() as u64 <= self.len,
            "model replace past the end"
        );
        let (mut i, mut at) = self.locate(offset);
        let mut src = data;
        while !src.is_empty() {
            let c = &mut self.chunks[i];
            let take = src.len().min(c.len() - at);
            c[at..at + take].copy_from_slice(&src[..take]);
            src = &src[take..];
            i += 1;
            at = 0;
        }
    }

    /// Whether bytes `offset .. offset + got.len()` equal `got`.
    pub fn matches(&self, offset: u64, got: &[u8]) -> bool {
        if offset + got.len() as u64 > self.len {
            return false;
        }
        let (mut i, mut at) = self.locate(offset);
        let mut rest = got;
        while !rest.is_empty() {
            let c = &self.chunks[i];
            let take = rest.len().min(c.len() - at);
            if c[at..at + take] != rest[..take] {
                return false;
            }
            rest = &rest[take..];
            i += 1;
            at = 0;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let mut ns: Vec<u64> = (1..=100).rev().map(|i| i * 1000).collect();
        assert_eq!(quantile_us(&mut ns, 0.5), 50.0);
        assert_eq!(quantile_us(&mut ns, 0.95), 95.0);
        assert_eq!(quantile_us(&mut ns, 1.0), 100.0);
        assert_eq!(rate_per_s(&[500_000_000, 500_000_000]), 2.0);
    }

    #[test]
    fn checksum_sees_every_byte_and_the_length() {
        let a = vec![7u8; 1003];
        let mut b = a.clone();
        b[1001] ^= 1;
        assert_ne!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a[..1000]), checksum(&a[..1001]));
    }

    #[test]
    fn model_agrees_with_a_flat_vec_under_random_edits() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut flat: Vec<u8> = (0..300_000u32).map(|i| i as u8).collect();
        let mut model = Model::from_bytes(&flat);
        for step in 0..3000u32 {
            let n = flat.len();
            let data: Vec<u8> = (0..rng.gen_range(1..5000usize))
                .map(|i| (i as u32 ^ step) as u8)
                .collect();
            match rng.gen_range(0..4u32) {
                0 => {
                    let at = rng.gen_range(0..=n);
                    flat.splice(at..at, data.iter().copied());
                    model.insert(at as u64, &data);
                }
                1 if n > 10_000 => {
                    let at = rng.gen_range(0..n - data.len());
                    flat.drain(at..at + data.len());
                    model.delete(at as u64, data.len() as u64);
                }
                2 if n > 10_000 => {
                    let at = rng.gen_range(0..n - data.len());
                    flat[at..at + data.len()].copy_from_slice(&data);
                    model.replace(at as u64, &data);
                }
                _ => {
                    flat.extend_from_slice(&data);
                    model.insert(n as u64, &data);
                }
            }
            assert_eq!(model.len(), flat.len() as u64);
            let at = rng.gen_range(0..flat.len() - 100);
            assert!(model.matches(at as u64, &flat[at..at + 100]));
        }
        assert!(model.matches(0, &flat));
        let last = flat.len() - 1;
        flat[last] ^= 0xFF;
        assert!(!model.matches(0, &flat), "a one-byte difference is seen");
    }
}
