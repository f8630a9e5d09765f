//! Checkpoint snapshots: the compaction point for the write-ahead log.
//!
//! A checkpoint serializes the full durable state at one epoch — base
//! tables, materialized view snapshots, and the ingest-queue contents and
//! watermarks — into a single file, allowing every log generation behind it
//! to be pruned. The protocol is generation-based so there is **no window
//! in which a crash loses state**:
//!
//! 1. Under the epoch gate, snapshot the queue and rotate the log to
//!    generation `g+1` (new file, first record `Checkpoint{epoch, g+1}`).
//! 2. Write `checkpoint-{g+1}.ckpt` via temp-file + fsync + atomic rename.
//! 3. Only after the rename succeeds, prune generations `< g+1`.
//!
//! A crash before (2) completes recovers from the *previous* checkpoint plus
//! log generations `≥` its `wal_gen` — which still exist, because pruning
//! happens last. [`load_latest`] skips unreadable or torn checkpoint files
//! (counting them) and falls back to the newest valid one; when none
//! validates it is an error, never "no checkpoint".
//!
//! File layout: `b"GPCK"` magic, a CRC-32 over the body, then the body
//! (format version byte + payload). One frame per file. The writer streams
//! the body and patches the CRC in afterwards, so a checkpoint never needs
//! the whole file in memory.

use crate::codec::{self, Reader};
use crate::error::{Result, StorageError};
use crate::fault::{FaultInjector, FaultSite};
use crate::{Delta, Table};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Checkpoint file format version.
pub const CHECKPOINT_VERSION: u8 = 1;

const MAGIC: &[u8; 4] = b"GPCK";

/// One materialized view's persisted state.
#[derive(Debug, Clone)]
pub struct ViewSnapshot {
    pub name: String,
    /// The defining plan, persisted as dialect SQL text.
    pub definition_sql: String,
    /// Maintenance strategy id (`Strategy::id`).
    pub strategy: String,
    /// True iff the snapshot *table* lags the base tables (the view was
    /// quarantined when the checkpoint was cut). Recovery recomputes stale
    /// views instead of trusting the stored table.
    pub stale: bool,
    pub table: Table,
}

/// Everything a checkpoint persists. Equality is *semantic*: tables compare
/// as bags ([`Table::bag_eq`]) plus schema, not by physical row order.
#[derive(Debug, Clone)]
pub struct CheckpointData {
    /// The committed epoch this snapshot reflects.
    pub epoch: u64,
    /// The log generation that continues *after* this checkpoint. Recovery
    /// replays generations `>= wal_gen` on top of the snapshot.
    pub wal_gen: u64,
    /// Base tables, in registration order.
    pub tables: Vec<(String, Table)>,
    /// Materialized views.
    pub views: Vec<ViewSnapshot>,
    /// Ingest-queue contents not yet drained into any epoch.
    pub pending: Vec<(String, Delta)>,
    /// Queue lifetime watermark: raw rows ever ingested.
    pub queue_raw_rows: u64,
    /// Queue lifetime watermark: batches ever ingested.
    pub queue_batches: u64,
}

fn table_eq(a: &Table, b: &Table) -> bool {
    a.schema() == b.schema() && a.bag_eq(b)
}

impl PartialEq for ViewSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.definition_sql == other.definition_sql
            && self.strategy == other.strategy
            && self.stale == other.stale
            && table_eq(&self.table, &other.table)
    }
}

impl PartialEq for CheckpointData {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.wal_gen == other.wal_gen
            && self.tables.len() == other.tables.len()
            && self
                .tables
                .iter()
                .zip(&other.tables)
                .all(|((an, at), (bn, bt))| an == bn && table_eq(at, bt))
            && self.views == other.views
            && self.pending == other.pending
            && self.queue_raw_rows == other.queue_raw_rows
            && self.queue_batches == other.queue_batches
    }
}

/// `dir/checkpoint-{gen:010}.ckpt`
pub fn checkpoint_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("checkpoint-{gen:010}.ckpt"))
}

/// `dir/wal-{gen:010}.log`
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:010}.log"))
}

fn io_err(op: &str, e: std::io::Error) -> StorageError {
    StorageError::Io {
        op: op.to_string(),
        message: e.to_string(),
    }
}

/// The size the body encoder lets its buffer reach before handing it to
/// its sink: the streaming writer's write(2) size, and all the memory a
/// checkpoint write needs beyond the state it snapshots.
const PIECE: usize = 64 * 1024;

/// The one body encoder (format version byte + payload). It appends to
/// `buf` and calls `spill(buf)` whenever `buf` holds at least [`PIECE`]
/// bytes; a sink that drains `buf` there streams the body, one that leaves
/// it alone collects the whole body in `buf`. The last piece stays in
/// `buf` for the caller.
fn encode_body(
    data: &CheckpointData,
    buf: &mut Vec<u8>,
    mut spill: impl FnMut(&mut Vec<u8>) -> Result<()>,
) -> Result<()> {
    let mut piece_done = |buf: &mut Vec<u8>| {
        if buf.len() >= PIECE {
            spill(buf)
        } else {
            Ok(())
        }
    };
    codec::put_u8(buf, CHECKPOINT_VERSION);
    codec::put_u64(buf, data.epoch);
    codec::put_u64(buf, data.wal_gen);
    codec::put_u64(buf, data.tables.len() as u64);
    for (name, table) in &data.tables {
        codec::put_str(buf, name);
        codec::put_table(buf, table, &mut piece_done)?;
    }
    codec::put_u64(buf, data.views.len() as u64);
    for v in &data.views {
        codec::put_str(buf, &v.name);
        codec::put_str(buf, &v.definition_sql);
        codec::put_str(buf, &v.strategy);
        codec::put_u8(buf, u8::from(v.stale));
        codec::put_table(buf, &v.table, &mut piece_done)?;
    }
    // The pending queue is bounded by backpressure; a piece boundary per
    // delta is fine-grained enough.
    codec::put_u64(buf, data.pending.len() as u64);
    for (name, delta) in &data.pending {
        codec::put_str(buf, name);
        codec::put_delta(buf, delta);
        piece_done(buf)?;
    }
    codec::put_u64(buf, data.queue_raw_rows);
    codec::put_u64(buf, data.queue_batches);
    Ok(())
}

/// The whole checkpoint file in memory: [`encode_body`] with a sink that
/// keeps every piece.
fn encode(data: &CheckpointData) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    codec::put_u32(&mut out, 0);
    encode_body(data, &mut out, |_| Ok(()))?;
    let crc = codec::crc32(&out[8..]);
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Stream the checkpoint file into `f`: magic and a CRC slot, then the body
/// piece by piece — each folded into the CRC as it goes out — then the CRC
/// patched into its slot. Returns the file length.
fn stream(f: &mut File, data: &CheckpointData) -> Result<u64> {
    let write = |f: &mut File, bytes: &[u8]| {
        f.write_all(bytes)
            .map_err(|e| io_err("checkpoint write", e))
    };
    let mut header = MAGIC.to_vec();
    codec::put_u32(&mut header, 0);
    write(f, &header)?;
    let (mut crc, mut len) = (0u32, header.len() as u64);
    let mut buf = Vec::with_capacity(2 * PIECE);
    let mut spill = |buf: &mut Vec<u8>| {
        crc = codec::crc32_update(crc, buf);
        len += buf.len() as u64;
        write(f, buf)?;
        buf.clear();
        Ok(())
    };
    encode_body(data, &mut buf, &mut spill)?;
    spill(&mut buf)?;
    f.seek(SeekFrom::Start(4))
        .map_err(|e| io_err("checkpoint write", e))?;
    write(f, &crc.to_le_bytes())?;
    Ok(len)
}

fn decode(bytes: &[u8]) -> Result<CheckpointData> {
    let corrupt = |what: &str| StorageError::Corrupt {
        what: format!("checkpoint: {what}"),
    };
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let body = &bytes[8..];
    if codec::crc32(body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.u8()? != CHECKPOINT_VERSION {
        return Err(corrupt("unknown format version"));
    }
    let epoch = r.u64()?;
    let wal_gen = r.u64()?;
    let ntables = r.u64()? as usize;
    let mut tables = Vec::with_capacity(ntables.min(1024));
    for _ in 0..ntables {
        tables.push((r.str()?, r.table()?));
    }
    let nviews = r.u64()? as usize;
    let mut views = Vec::with_capacity(nviews.min(1024));
    for _ in 0..nviews {
        views.push(ViewSnapshot {
            name: r.str()?,
            definition_sql: r.str()?,
            strategy: r.str()?,
            stale: r.u8()? != 0,
            table: r.table()?,
        });
    }
    let npending = r.u64()? as usize;
    let mut pending = Vec::with_capacity(npending.min(1024));
    for _ in 0..npending {
        pending.push((r.str()?, r.delta()?));
    }
    let queue_raw_rows = r.u64()?;
    let queue_batches = r.u64()?;
    if !r.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(CheckpointData {
        epoch,
        wal_gen,
        tables,
        views,
        pending,
        queue_raw_rows,
        queue_batches,
    })
}

/// Write `data` to `checkpoint-{data.wal_gen}.ckpt` in `dir`: streamed into
/// a temp file in `PIECE`-sized writes (the whole file never sits in
/// memory), then fsync + atomic rename. Consults
/// [`FaultSite::CheckpointWrite`]; a seeded kill point leaves a torn `.tmp`
/// file (which [`load_latest`] ignores) and the final path untouched.
/// Returns the file size in bytes.
pub fn write_checkpoint(
    dir: &Path,
    data: &CheckpointData,
    injector: &FaultInjector,
) -> Result<u64> {
    let final_path = checkpoint_path(dir, data.wal_gen);
    let tmp_path = final_path.with_extension("ckpt.tmp");
    let stem = format!("checkpoint-{:010}", data.wal_gen);
    if let Err(e) = injector.check(FaultSite::CheckpointWrite, &stem) {
        if matches!(e, StorageError::KillPoint { .. }) {
            // Simulated death mid-checkpoint: a torn temp file, no rename.
            let bytes = encode(data)?;
            let cut = ((injector.roll_unit() * bytes.len() as f64) as usize).min(bytes.len() - 1);
            let mut f = File::create(&tmp_path).map_err(|err| io_err("checkpoint tmp", err))?;
            f.write_all(&bytes[..cut])
                .map_err(|err| io_err("checkpoint tmp", err))?;
        }
        return Err(e);
    }
    let mut f = File::create(&tmp_path).map_err(|e| io_err("checkpoint tmp", e))?;
    let len = stream(&mut f, data)?;
    f.sync_all().map_err(|e| io_err("checkpoint fsync", e))?;
    drop(f);
    std::fs::rename(&tmp_path, &final_path).map_err(|e| io_err("checkpoint rename", e))?;
    // Make the rename itself durable (best effort if the platform refuses
    // directory fsync).
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(len)
}

/// A checkpoint successfully loaded from disk.
#[derive(Debug)]
pub struct LoadedCheckpoint {
    pub data: CheckpointData,
    /// Checkpoint files that existed but failed validation and were skipped
    /// (surfaced as a recovery warning metric).
    pub skipped_corrupt: u64,
}

/// Load the newest valid checkpoint in `dir`, skipping (and counting)
/// corrupt or torn ones. `Ok(None)` means `dir` holds no checkpoint file
/// at all (`.tmp` leftovers do not count). Files that exist but all fail
/// validation are [`StorageError::Corrupt`]: that directory held durable
/// state, and treating it as empty would discard it.
pub fn load_latest(dir: &Path) -> Result<Option<LoadedCheckpoint>> {
    let mut gens = list_gens(dir, "checkpoint-", ".ckpt")?;
    gens.sort_unstable_by(|a, b| b.cmp(a)); // newest first
    let mut skipped = 0u64;
    for &gen in &gens {
        let path = checkpoint_path(dir, gen);
        let loaded = std::fs::read(&path)
            .map_err(|e| io_err("checkpoint read", e))
            .and_then(|bytes| decode(&bytes));
        match loaded {
            Ok(data) => {
                return Ok(Some(LoadedCheckpoint {
                    data,
                    skipped_corrupt: skipped,
                }))
            }
            Err(_) => skipped += 1,
        }
    }
    if gens.is_empty() {
        return Ok(None);
    }
    Err(StorageError::Corrupt {
        what: format!("checkpoint: none of the {skipped} checkpoint file(s) validates"),
    })
}

/// All WAL generation numbers present in `dir`, ascending.
pub fn list_wal_gens(dir: &Path) -> Result<Vec<u64>> {
    let mut gens = list_gens(dir, "wal-", ".log")?;
    gens.sort_unstable();
    Ok(gens)
}

fn list_gens(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<u64>> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err("durability dir scan", e)),
    };
    let mut gens = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| io_err("durability dir scan", e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(g) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
            .and_then(|s| s.parse::<u64>().ok())
        {
            gens.push(g);
        }
    }
    Ok(gens)
}

/// Remove log generations and checkpoints older than `keep_gen`, plus any
/// leftover `.tmp` files. Best-effort: a file that refuses to delete is
/// skipped (it will be retried at the next checkpoint). Returns the number
/// of files removed.
pub fn prune(dir: &Path, keep_gen: u64) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0u64;
    for entry in rd.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_gen = |prefix: &str, suffix: &str| {
            name.strip_prefix(prefix)
                .and_then(|s| s.strip_suffix(suffix))
                .and_then(|s| s.parse::<u64>().ok())
                .is_some_and(|g| g < keep_gen)
        };
        let doomed = name.ends_with(".ckpt.tmp")
            || stale_gen("wal-", ".log")
            || stale_gen("checkpoint-", ".ckpt");
        if doomed && std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{row, DataType, Schema};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tmp_dir(stem: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gpivot-ckpt-{}-{stem}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(epoch: u64, wal_gen: u64) -> CheckpointData {
        let schema = Arc::new(
            Schema::from_pairs_keyed(&[("id", DataType::Int), ("v", DataType::Str)], &["id"])
                .unwrap(),
        );
        let table = Table::from_rows(schema, vec![row![1, "x"], row![2, "y"]]).unwrap();
        let vschema = Arc::new(Schema::from_pairs(&[("s", DataType::Float)]).unwrap());
        let vtable = Table::bag(vschema, vec![row![1.5]]);
        let mut delta = Delta::new();
        delta.add(row![3, "z"], 1);
        CheckpointData {
            epoch,
            wal_gen,
            tables: vec![("t".into(), table)],
            views: vec![ViewSnapshot {
                name: "v".into(),
                definition_sql: "SELECT s FROM t".into(),
                strategy: "pivot-update".into(),
                stale: false,
                table: vtable,
            }],
            pending: vec![("t".into(), delta)],
            queue_raw_rows: 7,
            queue_batches: 3,
        }
    }

    #[test]
    fn write_then_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let data = sample(5, 2);
        let bytes = write_checkpoint(&dir, &data, &FaultInjector::disabled()).unwrap();
        assert!(bytes > 0);
        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.data, data);
        assert_eq!(loaded.skipped_corrupt, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_falls_back_to_previous_valid() {
        let dir = tmp_dir("fallback");
        let inj = FaultInjector::disabled();
        write_checkpoint(&dir, &sample(3, 1), &inj).unwrap();
        write_checkpoint(&dir, &sample(9, 2), &inj).unwrap();
        // Corrupt the newest file's body.
        let newest = checkpoint_path(&dir, 2);
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();

        let loaded = load_latest(&dir).unwrap().unwrap();
        assert_eq!(loaded.data.epoch, 3, "fell back to the previous gen");
        assert_eq!(loaded.skipped_corrupt, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn only_corrupt_checkpoints_is_an_error_not_empty() {
        let dir = tmp_dir("all-corrupt");
        write_checkpoint(&dir, &sample(3, 1), &FaultInjector::disabled()).unwrap();
        std::fs::write(checkpoint_path(&dir, 2), b"GPCK-torn").unwrap();
        let only = checkpoint_path(&dir, 1);
        let mut bytes = std::fs::read(&only).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&only, &bytes).unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "got {err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A data set whose body is `rows` rows of a one-column string table
    /// (each `width` bytes of payload) around the fixed `sample` parts.
    fn sized(rows: usize, width: usize) -> CheckpointData {
        let schema = Arc::new(Schema::from_pairs(&[("s", DataType::Str)]).unwrap());
        let text = "é".repeat(width / 2) + &"x".repeat(width % 2);
        let big = Table::bag(schema, vec![row![text.as_str()]; rows]);
        let mut data = sample(9, 4);
        data.tables.push(("big".into(), big));
        data
    }

    #[test]
    fn streamed_file_equals_the_in_memory_encoding() {
        // Row framing: arity (8) + tag (1) + length (8) + payload.
        let row_bytes = |width: usize| 17 + width;
        let base_body = encode(&sized(0, 0)).unwrap().len() - 8;
        let mut cases = vec![(0, 0), (10, 40), (3_000, 300), (1, 3 * PIECE + 5)];
        // Bodies one below, exactly at and one past a piece, from one row.
        for target in [PIECE - 1, PIECE, PIECE + 1] {
            cases.push((1, target - base_body - row_bytes(0)));
        }
        let mut bodies = Vec::new();
        for (rows, width) in cases {
            let data = sized(rows, width);
            let expected = encode(&data).unwrap();
            bodies.push(expected.len() - 8);
            let dir = tmp_dir("stream");
            let written = write_checkpoint(&dir, &data, &FaultInjector::disabled()).unwrap();
            let file = std::fs::read(checkpoint_path(&dir, data.wal_gen)).unwrap();
            assert_eq!(written, file.len() as u64, "{rows}×{width}: returned size");
            assert!(file == expected, "{rows}×{width}: streamed bytes differ");
            assert_eq!(load_latest(&dir).unwrap().unwrap().data, data);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        for at in [PIECE - 1, PIECE, PIECE + 1] {
            assert!(bodies.contains(&at), "no body of {at} bytes: {bodies:?}");
        }
        assert!(bodies.iter().any(|&b| b > 10 * PIECE), "many pieces");
    }

    #[test]
    fn kill_point_leaves_only_a_torn_tmp_file() {
        let dir = tmp_dir("kill");
        let inj = FaultInjector::seeded(21).with_kill_point(FaultSite::CheckpointWrite, 1);
        let err = write_checkpoint(&dir, &sample(4, 1), &inj).unwrap_err();
        assert!(matches!(err, StorageError::KillPoint { .. }));
        assert!(!checkpoint_path(&dir, 1).exists(), "no final file");
        assert!(load_latest(&dir).unwrap().is_none(), "tmp file is ignored");
        assert!(
            checkpoint_path(&dir, 1).with_extension("ckpt.tmp").exists(),
            "the kill left a torn temp file behind"
        );
        // A later checkpoint generation succeeds and prune sweeps the tmp.
        write_checkpoint(&dir, &sample(4, 2), &FaultInjector::disabled()).unwrap();
        assert_eq!(prune(&dir, 2), 1, "the torn tmp file is swept");
        assert!(load_latest(&dir).unwrap().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_removes_strictly_older_generations() {
        let dir = tmp_dir("prune");
        let inj = FaultInjector::disabled();
        for gen in 1..=3 {
            write_checkpoint(&dir, &sample(gen, gen), &inj).unwrap();
            std::fs::write(wal_path(&dir, gen), b"").unwrap();
        }
        let removed = prune(&dir, 3);
        assert_eq!(removed, 4, "two checkpoints + two logs removed");
        assert_eq!(list_wal_gens(&dir).unwrap(), vec![3]);
        assert_eq!(load_latest(&dir).unwrap().unwrap().data.wal_gen, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_scans_empty() {
        let dir = std::env::temp_dir().join("gpivot-ckpt-definitely-missing");
        assert!(load_latest(&dir).unwrap().is_none());
        assert!(list_wal_gens(&dir).unwrap().is_empty());
    }
}
