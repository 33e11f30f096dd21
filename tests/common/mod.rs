//! The canonical crash workload, shared by the crash-point sweep
//! (`crash_sweep.rs`) and the barrier-mutation sweep
//! (`barrier_mutation.rs`): both must measure the same program — ten
//! transaction scopes exercising every §4 operation across page and
//! segment boundaries — against the same byte-level model.
#![allow(dead_code)] // each suite uses its own subset

use std::collections::BTreeMap;

use eos::core::{LargeObject, ObjectStore};

pub const PAGE: usize = 512;
pub const SPACES: usize = 2;
pub const PPS: u64 = 126;
pub const WAL_PAGES: u64 = 66;
pub const VOLUME_PAGES: u64 = (PPS + 1) * SPACES as u64 + WAL_PAGES;

/// One mutating operation; objects are named by creation order (the
/// durable store assigns ids 1, 2, … deterministically).
#[derive(Debug, Clone)]
pub enum Op {
    Create(Vec<u8>),
    Append(u64, Vec<u8>),
    Insert(u64, u64, Vec<u8>),
    Delete(u64, u64, u64),
    Replace(u64, u64, Vec<u8>),
    Truncate(u64, u64),
    DeleteObj(u64),
}

pub fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(37).wrapping_add(salt))
        .collect()
}

/// The scripted workload: a handful of transaction scopes exercising
/// every §4 operation, sized to cross page and segment boundaries.
pub fn workload() -> Vec<Vec<Op>> {
    vec![
        // txn 1: two objects are born
        vec![
            Op::Create(pattern(3 * PAGE + 77, 1)),
            Op::Create(pattern(40, 2)),
        ],
        // txn 2: growth and a mid-object insert
        vec![
            Op::Append(1, pattern(2 * PAGE, 3)),
            Op::Insert(1, 700, pattern(300, 4)),
            Op::Append(2, pattern(PAGE + 13, 5)),
            Op::Append(2, pattern(2 * PAGE + 60, 24)),
        ],
        // txn 3: in-place replaces, straddling a page boundary
        vec![
            Op::Replace(1, 100, pattern(64, 6)),
            Op::Replace(1, PAGE as u64 - 17, pattern(200, 7)),
            Op::Replace(2, 0, pattern(30, 8)),
        ],
        // txn 4: shrink from the middle and the end
        vec![
            Op::Delete(1, 400, 900),
            Op::Truncate(2, 300),
            Op::Replace(1, 0, pattern(128, 9)),
            Op::Append(2, pattern(PAGE + 90, 30)),
        ],
        // txn 5: one object dies, a third is born
        vec![
            Op::DeleteObj(2),
            Op::Create(pattern(2 * PAGE + 11, 10)),
            Op::Append(3, pattern(3 * PAGE, 25)),
        ],
        // txn 6: growth spurt on the newcomer, multi-segment appends
        vec![
            Op::Append(3, pattern(500, 11)),
            Op::Append(3, pattern(4 * PAGE, 12)),
            Op::Replace(1, 50, pattern(90, 13)),
            Op::Insert(1, 33, pattern(PAGE + 5, 26)),
        ],
        // txn 7: churn that forces reshuffling around segment seams
        vec![
            Op::Insert(3, PAGE as u64, pattern(700, 14)),
            Op::Delete(3, 200, 450),
            Op::Insert(1, 0, pattern(256, 15)),
            Op::Replace(3, 2 * PAGE as u64 + 5, pattern(300, 16)),
            Op::Append(3, pattern(2 * PAGE + 20, 31)),
        ],
        // txn 8: a fourth object, then heavy in-place traffic
        vec![
            Op::Create(pattern(PAGE + 200, 17)),
            Op::Replace(4, 100, pattern(400, 18)),
            Op::Replace(4, 0, pattern(64, 19)),
            Op::Append(4, pattern(300, 20)),
            Op::Append(4, pattern(2 * PAGE + 1, 27)),
            Op::Insert(3, 40, pattern(PAGE, 28)),
        ],
        // txn 9: shrink everything back down
        vec![
            Op::Truncate(3, 900),
            Op::Delete(1, 500, 800),
            Op::Truncate(4, 256),
            Op::Delete(4, 60, 100),
        ],
        // txn 10: final touches on every survivor
        vec![
            Op::Replace(1, 10, pattern(48, 21)),
            Op::Append(3, pattern(150, 22)),
            Op::Insert(4, 128, pattern(99, 23)),
            Op::Append(1, pattern(2 * PAGE, 29)),
        ],
    ]
}

/// Apply one op to the byte-level model.
pub fn model_apply(model: &mut BTreeMap<u64, Vec<u8>>, next_id: &mut u64, op: &Op) {
    match op {
        Op::Create(bytes) => {
            model.insert(*next_id, bytes.clone());
            *next_id += 1;
        }
        Op::Append(id, bytes) => model.get_mut(id).unwrap().extend_from_slice(bytes),
        Op::Insert(id, off, bytes) => {
            let v = model.get_mut(id).unwrap();
            v.splice(*off as usize..*off as usize, bytes.iter().copied());
        }
        Op::Delete(id, off, len) => {
            let v = model.get_mut(id).unwrap();
            v.drain(*off as usize..(*off + *len) as usize);
        }
        Op::Replace(id, off, bytes) => {
            let v = model.get_mut(id).unwrap();
            v[*off as usize..*off as usize + bytes.len()].copy_from_slice(bytes);
        }
        Op::Truncate(id, size) => model.get_mut(id).unwrap().truncate(*size as usize),
        Op::DeleteObj(id) => {
            model.remove(id);
        }
    }
}

/// Apply one op to the store. Handles map object id → live descriptor.
pub fn store_apply(
    store: &mut ObjectStore,
    handles: &mut BTreeMap<u64, LargeObject>,
    op: &Op,
) -> eos::core::Result<()> {
    match op {
        Op::Create(bytes) => {
            let obj = store.create_with(bytes, None)?;
            handles.insert(obj.id(), obj);
        }
        Op::Append(id, bytes) => {
            let obj = handles.get_mut(id).unwrap();
            store.append(obj, bytes)?;
        }
        Op::Insert(id, off, bytes) => {
            let obj = handles.get_mut(id).unwrap();
            store.insert(obj, *off, bytes)?;
        }
        Op::Delete(id, off, len) => {
            let obj = handles.get_mut(id).unwrap();
            store.delete(obj, *off, *len)?;
        }
        Op::Replace(id, off, bytes) => {
            let obj = handles.get_mut(id).unwrap();
            store.replace(obj, *off, bytes)?;
        }
        Op::Truncate(id, size) => {
            let obj = handles.get_mut(id).unwrap();
            store.truncate(obj, *size)?;
        }
        Op::DeleteObj(id) => {
            let mut obj = handles.remove(id).unwrap();
            store.delete_object(&mut obj)?;
        }
    }
    Ok(())
}

/// Model snapshots: `states[j]` = object id → bytes after `j` committed
/// transactions.
pub fn model_states_for(txns: &[Vec<Op>]) -> Vec<BTreeMap<u64, Vec<u8>>> {
    let mut states = vec![BTreeMap::new()];
    let mut model = BTreeMap::new();
    let mut next_id = 1u64;
    for txn in txns {
        for op in txn {
            model_apply(&mut model, &mut next_id, op);
        }
        states.push(model.clone());
    }
    states
}

pub fn model_states() -> Vec<BTreeMap<u64, Vec<u8>>> {
    model_states_for(&workload())
}
