//! Append-only write-ahead log for the durability layer.
//!
//! Every state-changing event the serve tier acknowledges is framed and
//! appended here before the acknowledgement goes out:
//!
//! ```text
//! frame   := [len: u32 LE] [crc: u32 LE] [body: len bytes]
//! body    := [version: u8] [record payload]
//! payload := [tag: u8] [fields...]           (codec.rs primitives)
//! crc     := CRC-32/IEEE over body
//! ```
//!
//! The framing is what makes crash recovery possible: a torn write (process
//! death mid-append) leaves a frame whose length prefix overruns the file or
//! whose CRC does not match, and [`read_wal`] stops at the last valid frame
//! boundary — *truncate-at-last-valid-record, never panic*. Whether the torn
//! suffix is then physically removed ([`truncate_wal`]) is the caller's
//! choice; recovery does it before reopening the log for append.
//!
//! Fault hooks: [`Wal::append`] consults [`FaultSite::WalAppend`] and, on a
//! seeded kill point, deliberately writes a *torn prefix* of the frame
//! (length drawn from the injector's own RNG) before returning the error —
//! simulating death mid-`write(2)`. [`Wal::sync`] consults
//! [`FaultSite::WalFsync`]; a kill there leaves the record fully written but
//! never acknowledged, the other interesting crash window.

use crate::codec::{self, Reader};
use crate::error::{Result, StorageError};
use crate::fault::{FaultInjector, FaultSite};
use crate::Delta;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Current on-disk format version (the leading byte of every frame body).
pub const WAL_VERSION: u8 = 1;

/// Upper bound on a single frame body; a length prefix beyond this is
/// treated as corruption rather than an allocation request.
const MAX_FRAME: u32 = 1 << 30;

/// When the log file is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every appended record. Safest, slowest.
    Always,
    /// fsync once per committed epoch (after the `EpochCommit` marker) and
    /// after checkpoints. An acknowledged commit is always durable; deltas
    /// inside a not-yet-committed epoch may be lost with the page cache,
    /// which recovery treats the same as an uncommitted epoch. The default.
    #[default]
    OnCommit,
    /// Never fsync from the engine; durability is delegated to the OS.
    /// For tests and throughput experiments.
    Never,
}

impl FsyncPolicy {
    /// Stable lowercase name (used in reports and configs).
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnCommit => "on-commit",
            FsyncPolicy::Never => "never",
        }
    }
}

/// One durable event. The variants mirror exactly the state transitions the
/// serve tier acknowledges to callers.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A view was registered. The plan is persisted as dialect SQL text
    /// (round-trip property-tested) rather than a binary plan encoding.
    RegisterView {
        name: String,
        definition_sql: String,
        strategy: String,
    },
    /// A view was dropped.
    DropView { name: String },
    /// A delta was accepted into the ingest queue for `table`.
    IngestDelta { table: String, delta: Delta },
    /// An epoch refresh drained the queue. Everything between this marker
    /// and the matching `EpochCommit` is provisional.
    EpochBegin { epoch: u64 },
    /// The epoch's base-table deltas and view patches were committed and
    /// acknowledged. Recovery replays up to the last such marker.
    EpochCommit { epoch: u64 },
    /// A checkpoint at `epoch` rotated the log to generation `wal_gen`.
    /// Written as the first record of the new generation; recovery uses it
    /// as a consistency cross-check against the checkpoint file.
    Checkpoint { epoch: u64, wal_gen: u64 },
}

impl WalRecord {
    /// Stable kind name — the fault-injection context and trace label.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::RegisterView { .. } => "register-view",
            WalRecord::DropView { .. } => "drop-view",
            WalRecord::IngestDelta { .. } => INGEST_KIND,
            WalRecord::EpochBegin { .. } => "epoch-begin",
            WalRecord::EpochCommit { .. } => "epoch-commit",
            WalRecord::Checkpoint { .. } => "checkpoint",
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::RegisterView {
                name,
                definition_sql,
                strategy,
            } => {
                codec::put_u8(out, 1);
                codec::put_str(out, name);
                codec::put_str(out, definition_sql);
                codec::put_str(out, strategy);
            }
            WalRecord::DropView { name } => {
                codec::put_u8(out, 2);
                codec::put_str(out, name);
            }
            WalRecord::IngestDelta { table, delta } => put_ingest_payload(out, table, delta),
            WalRecord::EpochBegin { epoch } => {
                codec::put_u8(out, 4);
                codec::put_u64(out, *epoch);
            }
            WalRecord::EpochCommit { epoch } => {
                codec::put_u8(out, 5);
                codec::put_u64(out, *epoch);
            }
            WalRecord::Checkpoint { epoch, wal_gen } => {
                codec::put_u8(out, 6);
                codec::put_u64(out, *epoch);
                codec::put_u64(out, *wal_gen);
            }
        }
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<WalRecord> {
        let rec = match r.u8()? {
            1 => WalRecord::RegisterView {
                name: r.str()?,
                definition_sql: r.str()?,
                strategy: r.str()?,
            },
            2 => WalRecord::DropView { name: r.str()? },
            3 => WalRecord::IngestDelta {
                table: r.str()?,
                delta: r.delta()?,
            },
            4 => WalRecord::EpochBegin { epoch: r.u64()? },
            5 => WalRecord::EpochCommit { epoch: r.u64()? },
            6 => WalRecord::Checkpoint {
                epoch: r.u64()?,
                wal_gen: r.u64()?,
            },
            t => {
                return Err(StorageError::Corrupt {
                    what: format!("unknown wal record tag {t}"),
                })
            }
        };
        Ok(rec)
    }
}

/// [`WalRecord::kind`] of an `IngestDelta`.
const INGEST_KIND: &str = "ingest-delta";

/// The `IngestDelta` payload from borrowed parts — the one encoder for that
/// record, whether it is logged from a [`WalRecord`] or straight from the
/// producer's `(table, delta)` ([`Wal::append_ingest`]).
fn put_ingest_payload(out: &mut Vec<u8>, table: &str, delta: &Delta) {
    codec::put_u8(out, 3);
    codec::put_str(out, table);
    codec::put_delta(out, delta);
}

/// Frame a record into its on-disk bytes (`[len][crc][version ∥ payload]`).
pub fn encode_frame(record: &WalRecord) -> Vec<u8> {
    frame_with(|out| record.encode_payload(out))
}

/// Build a frame in one buffer: an 8-byte header slot, then version ∥
/// payload, then `len` and `crc` patched into the slot.
fn frame_with(payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(64);
    frame.extend_from_slice(&[0; 8]);
    codec::put_u8(&mut frame, WAL_VERSION);
    payload(&mut frame);
    let (header, body) = frame.split_at_mut(8);
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&codec::crc32(body).to_le_bytes());
    frame
}

fn io_err(op: &str, e: std::io::Error) -> StorageError {
    StorageError::Io {
        op: op.to_string(),
        message: e.to_string(),
    }
}

/// An open log file in append mode, with fault hooks and counters.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    injector: FaultInjector,
    records: u64,
    bytes: u64,
    fsyncs: u64,
}

impl Wal {
    /// Create a fresh, empty log at `path` (truncating any existing file —
    /// callers rotate generations, they never blindly reuse a path).
    pub fn create(path: impl Into<PathBuf>) -> Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("wal create", e))?;
        Ok(Wal {
            file,
            path,
            injector: FaultInjector::disabled(),
            records: 0,
            bytes: 0,
            fsyncs: 0,
        })
    }

    /// Open an existing log for append. Recovery calls this *after*
    /// [`read_wal`] + [`truncate_wal`] have removed any torn tail, so the
    /// write position is a valid frame boundary.
    pub fn open_append(path: impl Into<PathBuf>) -> Result<Wal> {
        let path = path.into();
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("wal open", e))?;
        let bytes = file.metadata().map_err(|e| io_err("wal open", e))?.len();
        Ok(Wal {
            file,
            path,
            injector: FaultInjector::disabled(),
            records: 0,
            bytes,
            fsyncs: 0,
        })
    }

    /// Route this log's fault checks through `injector` (chaos testing).
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = injector;
    }

    /// Append one framed record. On a seeded kill point this writes a torn
    /// prefix of the frame and returns [`StorageError::KillPoint`]; on an
    /// injected transient fault nothing is written (a retried append is
    /// safe). Does **not** fsync — see [`Wal::sync`].
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.append_frame(record.kind(), encode_frame(record))
    }

    /// [`Wal::append`] of `WalRecord::IngestDelta { table, delta }`,
    /// encoded from the borrowed parts: the same bytes, without cloning
    /// the delta into a record first.
    pub fn append_ingest(&mut self, table: &str, delta: &Delta) -> Result<()> {
        let frame = frame_with(|out| put_ingest_payload(out, table, delta));
        self.append_frame(INGEST_KIND, frame)
    }

    fn append_frame(&mut self, kind: &str, frame: Vec<u8>) -> Result<()> {
        if let Err(e) = self.injector.check(FaultSite::WalAppend, kind) {
            if matches!(e, StorageError::KillPoint { .. }) && !frame.is_empty() {
                // Simulated death mid-write(2): persist a deterministic
                // strict prefix of the frame so the tail is genuinely torn.
                let cut = ((self.injector.roll_unit() * frame.len() as f64) as usize)
                    .min(frame.len() - 1);
                self.file
                    .write_all(&frame[..cut])
                    .map_err(|err| io_err("wal torn write", err))?;
                let _ = self.file.flush();
            }
            return Err(e);
        }
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("wal append", e))?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    /// Flush the log to stable storage. `context` names the trigger (record
    /// kind or policy) for fault targeting and error messages.
    pub fn sync(&mut self, context: &str) -> Result<()> {
        self.injector.check(FaultSite::WalFsync, context)?;
        self.file.sync_data().map_err(|e| io_err("wal fsync", e))?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Records appended through this handle (not lifetime file records).
    pub fn records_appended(&self) -> u64 {
        self.records
    }

    /// Bytes in the file (pre-existing + appended through this handle).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// fsyncs issued through this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The result of scanning a log file: every valid record in order, plus
/// where the valid prefix ends.
#[derive(Debug)]
pub struct WalScan {
    /// Decoded records, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last valid frame.
    pub valid_len: u64,
    /// Total file length.
    pub total_len: u64,
    /// True iff the file has bytes past the last valid frame (a torn or
    /// corrupt tail that recovery should truncate).
    pub torn: bool,
}

/// Scan a log file, stopping at the first torn or corrupt frame. Never
/// panics; a missing file scans as empty. Only a genuinely unreadable file
/// (permissions, I/O error) returns `Err`.
pub fn read_wal(path: &Path) -> Result<WalScan> {
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err("wal read", e)),
    };
    let total_len = buf.len() as u64;
    let mut records = Vec::new();
    let mut pos = 0usize;
    // Frame header first; any malformed element below ends the scan at the
    // last valid frame boundary. All offset arithmetic from the on-disk
    // length field is checked: a corrupt length must take the torn-tail
    // path, never overflow (a debug-build panic on 32-bit targets where
    // `MAX_FRAME` approaches `usize::MAX`).
    while let Some(header) = pos.checked_add(8).and_then(|end| buf.get(pos..end)) {
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_FRAME {
            break;
        }
        let body_start = pos + 8;
        let Some(body) = body_start
            .checked_add(len as usize)
            .and_then(|body_end| buf.get(body_start..body_end))
        else {
            break; // length prefix overruns the file: torn final frame
        };
        if codec::crc32(body) != crc {
            break;
        }
        let mut r = Reader::new(body);
        let ok = match r.u8() {
            Ok(WAL_VERSION) => WalRecord::decode_payload(&mut r)
                .ok()
                .filter(|_| r.is_empty()),
            _ => None,
        };
        let Some(rec) = ok else {
            break; // checksum passed but payload is malformed: stop here too
        };
        records.push(rec);
        // `body` came out of `buf`, so this sum is bounded by `buf.len()`.
        pos = body_start + body.len();
    }
    Ok(WalScan {
        records,
        valid_len: pos as u64,
        total_len,
        torn: (pos as u64) < total_len,
    })
}

/// Physically truncate a log to its valid prefix (as found by [`read_wal`])
/// and flush the truncation.
pub fn truncate_wal(path: &Path, valid_len: u64) -> Result<()> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| io_err("wal truncate", e))?;
    file.set_len(valid_len)
        .map_err(|e| io_err("wal truncate", e))?;
    file.sync_data().map_err(|e| io_err("wal truncate", e))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per test; std-only (no tempfile crate offline).
    fn tmp(stem: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("gpivot-wal-{}-{stem}-{n}.log", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        let mut delta = Delta::new();
        delta.add(row![1, "a", 2.5], 2);
        delta.add(row![2, "b", -1.0], -1);
        vec![
            WalRecord::Checkpoint {
                epoch: 0,
                wal_gen: 1,
            },
            WalRecord::RegisterView {
                name: "v".into(),
                definition_sql: "SELECT a FROM t".into(),
                strategy: "recompute".into(),
            },
            WalRecord::IngestDelta {
                table: "t".into(),
                delta,
            },
            WalRecord::EpochBegin { epoch: 1 },
            WalRecord::EpochCommit { epoch: 1 },
            WalRecord::DropView { name: "v".into() },
        ]
    }

    #[test]
    fn append_then_scan_roundtrips_every_variant() {
        let path = tmp("roundtrip");
        let mut wal = Wal::create(&path).unwrap();
        for rec in &sample_records() {
            wal.append(rec).unwrap();
        }
        wal.sync("test").unwrap();
        assert_eq!(wal.records_appended(), 6);
        assert_eq!(wal.fsyncs(), 1);

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, sample_records());
        assert!(!scan.torn);
        assert_eq!(scan.valid_len, scan.total_len);
        assert_eq!(scan.valid_len, wal.bytes_written());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_ingest_writes_the_ingest_record_bytes() {
        let recs = sample_records();
        let WalRecord::IngestDelta { table, delta } = &recs[2] else {
            unreachable!("sample_records()[2] is the ingest");
        };
        let (by_record, by_parts) = (tmp("ingest-record"), tmp("ingest-parts"));
        Wal::create(&by_record).unwrap().append(&recs[2]).unwrap();
        let mut wal = Wal::create(&by_parts).unwrap();
        wal.append_ingest(table, delta).unwrap();
        assert_eq!(wal.records_appended(), 1);
        let bytes = std::fs::read(&by_parts).unwrap();
        assert_eq!(bytes, std::fs::read(&by_record).unwrap());
        assert_eq!(wal.bytes_written(), bytes.len() as u64);
        assert_eq!(read_wal(&by_parts).unwrap().records, recs[2..3]);
        std::fs::remove_file(&by_record).unwrap();
        std::fs::remove_file(&by_parts).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_not_panicked() {
        let path = tmp("torn");
        let mut wal = Wal::create(&path).unwrap();
        let recs = sample_records();
        for rec in &recs[..3] {
            wal.append(rec).unwrap();
        }
        drop(wal);
        // Simulate a crash mid-append: half of a valid frame.
        let frame = encode_frame(&recs[3]);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(f);

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, recs[..3]);
        assert!(scan.torn);
        assert!(scan.valid_len < scan.total_len);

        truncate_wal(&path, scan.valid_len).unwrap();
        let rescan = read_wal(&path).unwrap();
        assert!(!rescan.torn);
        assert_eq!(rescan.records, recs[..3]);

        // And the truncated log accepts appends again.
        let mut wal = Wal::open_append(&path).unwrap();
        wal.append(&recs[3]).unwrap();
        assert_eq!(read_wal(&path).unwrap().records, recs[..4]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_length_frame_takes_the_torn_path_not_overflow() {
        let path = tmp("oversized-len");
        let mut wal = Wal::create(&path).unwrap();
        let recs = sample_records();
        for rec in &recs[..2] {
            wal.append(rec).unwrap();
        }
        drop(wal);
        let valid = std::fs::metadata(&path).unwrap().len();

        // Craft a frame whose length field is the maximum the u32 header can
        // express. `body_start + len` must not overflow (a debug panic on
        // 32-bit targets) — the scan stops at the last valid frame.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&u32::MAX.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"garbage").unwrap();
        drop(f);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, recs[..2]);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, valid);

        // Same with a length that passes the MAX_FRAME gate but overruns the
        // file by close to the full 1 GiB cap: still the torn path.
        truncate_wal(&path, valid).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&MAX_FRAME.to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(b"short body").unwrap();
        drop(f);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, recs[..2]);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, valid);

        truncate_wal(&path, scan.valid_len).unwrap();
        assert!(!read_wal(&path).unwrap().torn);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_corruption_stops_the_scan_at_the_bad_frame() {
        let path = tmp("crc");
        let mut wal = Wal::create(&path).unwrap();
        let recs = sample_records();
        let mut offsets = Vec::new();
        for rec in &recs {
            offsets.push(wal.bytes_written());
            wal.append(rec).unwrap();
        }
        drop(wal);
        // Flip one payload byte inside the third frame.
        let mut bytes = std::fs::read(&path).unwrap();
        let third = offsets[2] as usize;
        bytes[third + 10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, recs[..2], "scan stops before the bad frame");
        assert!(scan.torn);
        assert_eq!(scan.valid_len, offsets[2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_point_append_leaves_a_torn_strict_prefix() {
        let path = tmp("kill");
        let recs = sample_records();
        let mut wal = Wal::create(&path).unwrap();
        wal.set_fault_injector(FaultInjector::seeded(11).with_kill_point(FaultSite::WalAppend, 2));
        wal.append(&recs[0]).unwrap();
        let err = wal.append(&recs[2]).unwrap_err();
        assert!(matches!(err, StorageError::KillPoint { .. }));
        assert!(!err.is_transient());

        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, recs[..1], "killed record must not decode");
        let full = encode_frame(&recs[2]).len() as u64;
        assert!(
            scan.total_len - scan.valid_len < full,
            "the torn prefix is strictly shorter than the frame"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_kill_point_leaves_the_record_intact() {
        let path = tmp("fsync-kill");
        let recs = sample_records();
        let mut wal = Wal::create(&path).unwrap();
        wal.set_fault_injector(FaultInjector::seeded(12).with_kill_point(FaultSite::WalFsync, 1));
        wal.append(&recs[4]).unwrap();
        assert!(matches!(
            wal.sync("epoch-commit").unwrap_err(),
            StorageError::KillPoint { .. }
        ));
        // The record was written before the failed fsync: a reopen sees it.
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, recs[4..5]);
        assert!(!scan.torn);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_scans_empty() {
        let scan = read_wal(Path::new("/nonexistent/gpivot-test.wal")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.total_len, 0);
        assert!(!scan.torn);
    }
}
