//! Write-ahead operation journal for the gateway service.
//!
//! A [`wsan_net::linelog::LineLog`] of JSON lines: the first line is a
//! [`JournalHeader`] identifying the network configuration the journal was
//! recorded against, every further line is a [`JournalRecord`] — a
//! monotonically sequenced, *successful* mutating operation. The service
//! applies an operation in memory first, then appends its record, which
//! the log `fsync`s **before** the client is acknowledged, so an
//! acknowledged operation is always durable. A failed append leaves no
//! bytes behind, so the next record still follows the last acknowledged
//! one.
//!
//! Crash recovery ([`Journal::resume`]) replays the records in order
//! through the same deterministic delta pipeline, reconstructing the exact
//! pre-crash schedule. A `kill -9` can leave a torn final line (partial
//! write, never acknowledged); resume detects it, truncates the file back
//! to the last complete record, and reports the dropped bytes. Corruption
//! anywhere *before* the tail — or a header that does not match the serving
//! configuration — is an error, not a silent partial replay.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use wsan_net::linelog::LineLog;

/// Schema tag of the journal header line.
pub const JOURNAL_SCHEMA: &str = "wsan.gateway-journal/1";

/// A mutating gateway operation, exactly as validated and applied by the
/// service (routes are recomputed deterministically on replay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GatewayOp {
    /// Admit a flow routed `source → dest` by shortest path.
    AddFlow {
        /// Client-chosen flow name.
        name: String,
        /// Source node index.
        source: usize,
        /// Destination node index.
        dest: usize,
        /// Release period in slots.
        period: u32,
        /// Relative deadline in slots.
        deadline: u32,
    },
    /// Evict an admitted flow.
    RemoveFlow {
        /// Name of the flow to evict.
        name: String,
    },
    /// Change an admitted flow's period and deadline.
    UpdateRate {
        /// Name of the flow to update.
        name: String,
        /// New period in slots.
        period: u32,
        /// New deadline in slots.
        deadline: u32,
    },
    /// Retire the radio link between two nodes (both directions).
    RetireLink {
        /// Transmitter node index.
        tx: usize,
        /// Receiver node index.
        rx: usize,
    },
}

impl GatewayOp {
    /// Short operation name, as used in the request protocol.
    pub fn name(&self) -> &'static str {
        match self {
            GatewayOp::AddFlow { .. } => "add_flow",
            GatewayOp::RemoveFlow { .. } => "remove_flow",
            GatewayOp::UpdateRate { .. } => "update_rate",
            GatewayOp::RetireLink { .. } => "retire_link",
        }
    }
}

/// First line of a journal: which configuration recorded it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Always [`JOURNAL_SCHEMA`].
    pub schema: String,
    /// Identity of the network the journal was recorded against
    /// (testbed/seed/PRR/channels).
    pub network: String,
    /// Identity of the scheduling algorithm (name and ρ parameters).
    pub algo: String,
}

impl JournalHeader {
    /// Builds a header for the given network and algorithm identities.
    pub fn new(network: impl Into<String>, algo: impl Into<String>) -> Self {
        JournalHeader {
            schema: JOURNAL_SCHEMA.to_string(),
            network: network.into(),
            algo: algo.into(),
        }
    }
}

/// One journaled operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Monotonic sequence number, starting at 1.
    pub seq: u64,
    /// The operation that was applied.
    pub op: GatewayOp,
}

/// What [`Journal::resume`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The records to re-apply, in order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail (a partial final line from a crash mid-append)
    /// that were truncated away. 0 for a cleanly closed journal.
    pub truncated_bytes: u64,
}

/// Journal I/O and integrity errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum JournalError {
    /// An OS-level I/O failure.
    Io {
        /// What the journal was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A line before the tail does not parse, or sequence numbers are not
    /// contiguous — the journal cannot be trusted.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// Why it was rejected.
        reason: String,
    },
    /// The header does not match the serving configuration.
    HeaderMismatch {
        /// Header found in the file.
        found: String,
        /// Header the service expected.
        expected: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { context, source } => write!(f, "journal i/o ({context}): {source}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
            JournalError::HeaderMismatch { found, expected } => {
                write!(f, "journal header mismatch: found {found}, expected {expected}")
            }
        }
    }
}

impl Error for JournalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(context: &str) -> impl FnOnce(std::io::Error) -> JournalError + '_ {
    move |source| JournalError::Io { context: context.to_string(), source }
}

/// An open write-ahead journal. See the module docs.
#[derive(Debug)]
pub struct Journal {
    log: LineLog,
    next_seq: u64,
}

impl Journal {
    /// Creates (truncating) a fresh journal at `path` and durably writes
    /// the header line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on any filesystem failure.
    pub fn create(path: impl Into<PathBuf>, header: &JournalHeader) -> Result<Self, JournalError> {
        let line = serde_json::to_string(header)
            .map_err(|e| JournalError::Corrupt { line: 1, reason: e.to_string() })?;
        let log = LineLog::create(path, line).map_err(io_err("create"))?;
        Ok(Journal { log, next_seq: 1 })
    }

    /// Opens an existing journal, verifies its header against `expected`,
    /// truncates a torn tail if the process previously died mid-append, and
    /// returns the journal (positioned for appending) plus the records to
    /// replay. A journal that is refused is left as it was.
    ///
    /// # Errors
    ///
    /// [`JournalError::HeaderMismatch`] when the file was recorded under a
    /// different configuration, [`JournalError::Corrupt`] when a non-tail
    /// record is damaged or sequence numbers skip, [`JournalError::Io`] on
    /// filesystem failures.
    pub fn resume(
        path: impl Into<PathBuf>,
        expected: &JournalHeader,
    ) -> Result<(Self, Replay), JournalError> {
        let (mut log, lines) = LineLog::open(path).map_err(io_err("open"))?;
        let Some(first) = lines.first() else {
            return Err(JournalError::Corrupt {
                line: 1,
                reason: "no complete header line".to_string(),
            });
        };
        let header: JournalHeader = parse_line(&first.bytes, 1)?;
        if header != *expected {
            return Err(JournalError::HeaderMismatch {
                found: format!("{}/{}/{}", header.schema, header.network, header.algo),
                expected: format!("{}/{}/{}", expected.schema, expected.network, expected.algo),
            });
        }

        let mut records: Vec<JournalRecord> = Vec::new();
        // where the kept lines end; the bytes after them are cut
        let mut keep = first.end();
        for (idx, line) in lines.iter().enumerate().skip(1) {
            let line_no = idx + 1;
            match parse_line::<JournalRecord>(&line.bytes, line_no) {
                Ok(rec) => {
                    if rec.seq != records.len() as u64 + 1 {
                        return Err(JournalError::Corrupt {
                            line: line_no,
                            reason: format!(
                                "sequence skipped: found {}, expected {}",
                                rec.seq,
                                records.len() + 1
                            ),
                        });
                    }
                    records.push(rec);
                }
                // A damaged *final* line is a torn write from a crash
                // mid-append (it was never acknowledged); drop it. Damage
                // anywhere earlier means real corruption.
                Err(_) if idx == lines.len() - 1 => break,
                Err(e) => return Err(e),
            }
            keep = line.end();
        }

        let truncated_bytes = log.truncate(keep).map_err(io_err("truncate torn tail"))?;
        let next_seq = records.len() as u64 + 1;
        Ok((Journal { log, next_seq }, Replay { records, truncated_bytes }))
    }

    /// Durably appends a successful operation; returns its sequence number.
    /// The caller must only acknowledge the client after this returns.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the record cannot be made durable — the
    /// caller must then report the operation as failed. The journal then
    /// holds exactly the records acknowledged before, and the next append
    /// reuses the sequence number.
    pub fn append(&mut self, op: &GatewayOp) -> Result<u64, JournalError> {
        let seq = self.next_seq;
        let record = JournalRecord { seq, op: op.clone() };
        let line = serde_json::to_string(&record)
            .map_err(|e| JournalError::Corrupt { line: 0, reason: e.to_string() })?;
        self.log.append(line).map_err(io_err("append"))?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// The next sequence number that will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

fn parse_line<T: Deserialize>(raw: &[u8], line_no: usize) -> Result<T, JournalError> {
    let text = std::str::from_utf8(raw).map_err(|_| JournalError::Corrupt {
        line: line_no,
        reason: "invalid utf-8".to_string(),
    })?;
    serde_json::from_str(text)
        .map_err(|e| JournalError::Corrupt { line: line_no, reason: e.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write as _;
    use wsan_net::linelog::{FailingFile, Fault};

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wsan-gateway-journal");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.jsonl", std::process::id()))
    }

    fn header() -> JournalHeader {
        JournalHeader::new("test-net", "rc/2")
    }

    fn add(name: &str) -> GatewayOp {
        GatewayOp::AddFlow { name: name.to_string(), source: 0, dest: 2, period: 100, deadline: 50 }
    }

    #[test]
    fn create_append_resume_round_trips() {
        let path = temp_path("roundtrip");
        let mut j = Journal::create(&path, &header()).unwrap();
        assert_eq!(j.append(&add("a")).unwrap(), 1);
        assert_eq!(j.append(&GatewayOp::RemoveFlow { name: "a".to_string() }).unwrap(), 2);
        drop(j);
        let (j, replay) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].op, add("a"));
        assert_eq!(j.next_seq(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_replay_keeps_the_prefix() {
        let path = temp_path("torn");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&add("a")).unwrap();
        j.append(&add("b")).unwrap();
        drop(j);
        // simulate kill -9 mid-append: a partial, unterminated record
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":3,\"op\":{\"AddF").unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();
        let (mut j, replay) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert!(replay.truncated_bytes > 0);
        assert!(fs::metadata(&path).unwrap().len() < before);
        // appending continues with the right sequence number
        assert_eq!(j.append(&add("c")).unwrap(), 3);
        drop(j);
        let (_, replay) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(replay.records.len(), 3);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_newline_terminated_tail_is_also_dropped() {
        let path = temp_path("torn-newline");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&add("a")).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":2,\"op\"\n").unwrap();
        drop(f);
        let (_, replay) = Journal::resume(&path, &header()).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert!(replay.truncated_bytes > 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = temp_path("corrupt");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&add("a")).unwrap();
        j.append(&add("b")).unwrap();
        drop(j);
        // damage the first record, keep the second intact
        let text = fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("\"seq\":1", "\"seq\":garbage", 1);
        fs::write(&path, damaged).unwrap();
        let err = Journal::resume(&path, &header()).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 2, .. }), "{err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sequence_skips_are_rejected() {
        let path = temp_path("seqskip");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&add("a")).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"seq\":5,\"op\":{\"RemoveFlow\":{\"name\":\"a\"}}}\nx\n").unwrap();
        drop(f);
        let err = Journal::resume(&path, &header()).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        fs::remove_file(&path).unwrap();
    }

    /// A record whose write or sync fails is reported as failed and leaves
    /// no bytes behind: the next two appends reuse its sequence number and
    /// the one after, and resume replays exactly the acknowledged records.
    #[test]
    fn a_failed_append_leaves_the_journal_resumable() {
        for fault in [Fault::WriteAfter(0), Fault::WriteAfter(20), Fault::SyncAfter(0)] {
            let path = temp_path("failed-append");
            let mut j = Journal::create(&path, &header()).unwrap();
            j.append(&add("a")).unwrap();
            j.log = j.log.map_file(|f| Box::new(FailingFile::new(f, fault, false)));
            let err = j.append(&add("lost")).unwrap_err();
            assert!(matches!(err, JournalError::Io { .. }), "{fault:?}: {err}");
            assert_eq!(j.append(&add("b")).unwrap(), 2, "{fault:?}");
            assert_eq!(j.append(&add("c")).unwrap(), 3, "{fault:?}");
            drop(j);
            let (_, replay) = Journal::resume(&path, &header()).unwrap();
            let ops: Vec<(u64, GatewayOp)> =
                replay.records.into_iter().map(|r| (r.seq, r.op)).collect();
            assert_eq!(ops, [(1, add("a")), (2, add("b")), (3, add("c"))], "{fault:?}");
            assert_eq!(replay.truncated_bytes, 0, "{fault:?}");

            // when the cut back fails as well, every later append is refused
            let (mut j, _) = Journal::resume(&path, &header()).unwrap();
            j.log = j.log.map_file(|f| Box::new(FailingFile::new(f, fault, true)));
            assert!(j.append(&add("lost")).is_err(), "{fault:?}");
            assert!(j.append(&add("d")).is_err(), "{fault:?}");
            assert_eq!(j.next_seq(), 4, "{fault:?}");
            fs::remove_file(&path).unwrap();
        }
    }

    /// The on-disk bytes of a journal are its compatibility contract: a
    /// journal written by one build must resume on another.
    #[test]
    fn a_three_record_journal_keeps_its_exact_bytes() {
        let path = temp_path("pin");
        let mut j = Journal::create(&path, &header()).unwrap();
        j.append(&add("a")).unwrap();
        j.append(&GatewayOp::UpdateRate { name: "a".to_string(), period: 200, deadline: 150 })
            .unwrap();
        j.append(&GatewayOp::RetireLink { tx: 3, rx: 4 }).unwrap();
        drop(j);
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            concat!(
                r#"{"schema":"wsan.gateway-journal/1","network":"test-net","algo":"rc/2"}"#,
                "\n",
                r#"{"seq":1,"op":{"AddFlow":{"name":"a","source":0,"dest":2,"period":100,"deadline":50}}}"#,
                "\n",
                r#"{"seq":2,"op":{"UpdateRate":{"name":"a","period":200,"deadline":150}}}"#,
                "\n",
                r#"{"seq":3,"op":{"RetireLink":{"tx":3,"rx":4}}}"#,
                "\n",
            )
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let path = temp_path("mismatch");
        Journal::create(&path, &header()).unwrap();
        let other = JournalHeader::new("other-net", "rc/2");
        let err = Journal::resume(&path, &other).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }), "{err}");
        fs::remove_file(&path).unwrap();
    }
}
