//! The acknowledged-commit durability check of the commit workload.
//!
//! Killing a process leaves the operating system's cache intact, so the
//! check discards unflushed writes itself: the store runs on a
//! [`LoseUnsyncedVolume`] over a `MemVolume`, power is cut after a
//! seeded number of write calls, the surviving bytes are reopened with
//! `open_durable`, and every commit that was acknowledged before the
//! cut must read back. A miss is a failed operation.

use std::collections::BTreeMap;
use std::sync::Arc;

use eos_core::{ConcurrentStore, ObjectStore, StoreConfig};
use eos_pager::{DiskProfile, MemVolume, SharedVolume};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::substrate::PAGE;
use crate::util::{Pool, Tally};
use crate::volumes::LoseUnsyncedVolume;

const SPACES: usize = 2;
const PAGES_PER_SPACE: u64 = 2_048;
const WAL_PAGES: u64 = 512;
const PAYLOAD_BYTES: usize = 512;

fn config() -> StoreConfig {
    StoreConfig {
        sync_on_commit: true,
        wal_stripes: 2,
        ..StoreConfig::default()
    }
}

/// Run `commits` small transactions (the commit workload's mix, one
/// writer), cut power at a seeded point in the second half, reopen, and
/// check every acknowledged commit.
pub fn check(seed: u64, commits: u64) -> Tally {
    let mut tally = Tally::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD07A);
    let pool = Pool::new(seed ^ 0x0D07_AB1E, 64 << 10);
    let stable: SharedVolume = MemVolume::with_profile(
        PAGE,
        (PAGES_PER_SPACE + 1) * SPACES as u64 + WAL_PAGES,
        DiskProfile::FREE,
    )
    .shared();
    let lossy = Arc::new(LoseUnsyncedVolume::new(stable.clone()));
    let store = match ObjectStore::create_durable(
        lossy.clone(),
        SPACES,
        PAGES_PER_SPACE,
        config(),
        WAL_PAGES,
    ) {
        Ok(s) => ConcurrentStore::with_group_commit(s, true),
        Err(e) => {
            tally.attempted += 1;
            tally.fail(|| format!("durability check set-up: {e}"));
            return tally;
        }
    };

    // Expected bytes of every object whose last commit was acknowledged.
    let mut acked: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut live = Vec::new();
    let cut_at = rng.gen_range(commits / 2..commits);
    for i in 0..commits {
        if i == cut_at {
            // Somewhere inside the next few transactions.
            lossy.arm(rng.gen_range(1..12));
        }
        let payload = pool.slice(&mut rng, PAYLOAD_BYTES);
        let txn = store.begin();
        if live.is_empty() || rng.gen_range(0..100u32) < 40 {
            let made = txn.create(payload, Some(PAYLOAD_BYTES as u64));
            if let (Ok(obj), Ok(())) = (made, txn.commit()) {
                acked.insert(obj.id(), payload.to_vec());
                live.push(obj);
            }
        } else if rng.gen_range(0..100u32) < 80 {
            let at = rng.gen_range(0..live.len());
            let replaced = txn.replace(&mut live[at], 0, payload);
            if let (Ok(()), Ok(())) = (replaced, txn.commit()) {
                acked.insert(live[at].id(), payload.to_vec());
            } else {
                // Cut mid-commit: the frame may or may not have been
                // forced, so either version is a correct restart state.
                acked.remove(&live[at].id());
            }
        } else {
            let mut obj = live.swap_remove(rng.gen_range(0..live.len()));
            // Acknowledged or cut mid-commit, the object is no longer
            // one whose bytes are promised.
            acked.remove(&obj.id());
            let _ = txn.delete_object(&mut obj).and_then(|()| txn.commit());
        }
        if lossy.is_dead() {
            break;
        }
    }
    tally.expect(lossy.is_dead(), || {
        "the durability check never reached its power cut".to_string()
    });
    drop(store);

    // Restart from what reached stable storage only.
    let reopened = ObjectStore::open_durable(stable, SPACES, PAGES_PER_SPACE, config(), WAL_PAGES);
    let Some((store, report)) = tally.attempt("open_durable after power loss", reopened) else {
        return tally;
    };
    let recovered: BTreeMap<u64, _> = report.objects.iter().map(|o| (o.id(), o)).collect();
    for (id, want) in &acked {
        let got = recovered.get(id).map(|o| store.read_all(o));
        tally.expect(matches!(&got, Some(Ok(bytes)) if bytes == want), || {
            format!("acknowledged commit of object {id} was lost")
        });
    }
    tally
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_seed_commit_loses_no_acknowledged_commit() {
        for seed in [1, 2, 0x0E05_1992] {
            let tally = super::check(seed, 120);
            assert!(tally.attempted > 10, "checked {} commits", tally.attempted);
            assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        }
    }
}
