//! The store's public API, each call inside a span named after the
//! layer that does its work. The workloads call the store only through
//! these, so a traced run sees every call and an untraced run pays one
//! relaxed load per call.

use eos_core::{ConcurrentStore, LargeObject, Result, Snapshot, Txn};

use crate::trace::{span, Name};
use crate::util::nanos_since;

/// One transaction end to end — `begin`, `body`, `commit` — inside a
/// top-level `txn` span. Returns the body's value, the commit result and
/// the begin-to-acknowledgement latency in nanoseconds, which is what
/// every end-to-end latency and rate of the benchmark is made of.
pub fn txn<T>(store: &ConcurrentStore, body: impl FnOnce(&Txn) -> T) -> (T, Result<()>, u64) {
    let t0 = std::time::Instant::now();
    let top = span(Name::Txn, 0);
    let txn = begin(store);
    top.set_txn(txn.id());
    let value = body(&txn);
    let done = commit(txn);
    drop(top);
    (value, done, nanos_since(t0))
}

pub fn begin(store: &ConcurrentStore) -> Txn {
    let _s = span(Name::Begin, 0);
    store.begin()
}

pub fn commit(txn: Txn) -> Result<()> {
    let _s = span(Name::Commit, txn.id());
    txn.commit()
}

pub fn create(txn: &Txn, data: &[u8], size_hint: Option<u64>) -> Result<LargeObject> {
    let _s = span(Name::Create, txn.id());
    txn.create(data, size_hint)
}

pub fn append(txn: &Txn, obj: &mut LargeObject, data: &[u8]) -> Result<()> {
    let _s = span(Name::Append, txn.id());
    txn.append(obj, data)
}

pub fn insert(txn: &Txn, obj: &mut LargeObject, offset: u64, data: &[u8]) -> Result<()> {
    let _s = span(Name::Insert, txn.id());
    txn.insert(obj, offset, data)
}

pub fn delete(txn: &Txn, obj: &mut LargeObject, offset: u64, len: u64) -> Result<()> {
    let _s = span(Name::Delete, txn.id());
    txn.delete(obj, offset, len)
}

pub fn replace(txn: &Txn, obj: &mut LargeObject, offset: u64, data: &[u8]) -> Result<()> {
    let _s = span(Name::Replace, txn.id());
    txn.replace(obj, offset, data)
}

pub fn truncate(txn: &Txn, obj: &mut LargeObject, new_size: u64) -> Result<()> {
    let _s = span(Name::Truncate, txn.id());
    txn.truncate(obj, new_size)
}

pub fn delete_object(txn: &Txn, obj: &mut LargeObject) -> Result<()> {
    let _s = span(Name::DeleteObject, txn.id());
    txn.delete_object(obj)
}

pub fn read(txn: &Txn, obj: &LargeObject, offset: u64, len: u64) -> Result<Vec<u8>> {
    let _s = span(Name::Read, txn.id());
    txn.read(obj, offset, len)
}

pub fn read_all(txn: &Txn, obj: &LargeObject) -> Result<Vec<u8>> {
    let _s = span(Name::Read, txn.id());
    txn.read_all(obj)
}

pub fn snapshot(store: &ConcurrentStore) -> Snapshot {
    let _s = span(Name::SnapshotOpen, 0);
    store.snapshot()
}

pub fn snapshot_read(snap: &Snapshot, id: u64, offset: u64, len: u64) -> Result<Vec<u8>> {
    let _s = span(Name::SnapshotRead, snap.epoch());
    snap.read(id, offset, len)
}

pub fn snapshot_close(snap: Snapshot) {
    let _s = span(Name::SnapshotClose, snap.epoch());
    drop(snap);
}
