//! An append-only line log, made durable one line at a time: the one file
//! format under the gateway journal and the campaign manifest.
//!
//! A log is a file of newline-terminated lines: a header line written by
//! [`LineLog::create`], then one line per [`LineLog::append`]. The log owns
//! the decisions the two formats share; what a line means, and what to do
//! with a line that does not parse, stays with the caller.
//!
//! * **Durability.** An append is one `write_all` of `line + '\n'`, then
//!   `sync_data`. It returns only once the line is on disk, so a caller
//!   acknowledges nothing that a crash can take back. `create` also syncs
//!   the parent directory, so the new file's name survives a crash too.
//! * **A failed append leaves no trace.** The log remembers the length of
//!   its complete lines. When a write or a sync fails, it cuts the file
//!   back to that length and syncs, so the next append starts a line of
//!   its own. When that cut fails too, the log refuses every later append:
//!   it can no longer vouch for what the file ends with.
//! * **Recovery.** [`LineLog::open`] returns the file's complete lines,
//!   each with its byte offset. Anything after the last newline is a torn
//!   write from a crash mid-append. `open` writes nothing, so a file the
//!   caller rejects stays as it was. The torn bytes are cut by the first
//!   append, or earlier by [`LineLog::truncate`], which also cuts a damaged
//!   last line on request.
//! * **Rewrites are atomic.** [`rewrite`] replaces a log through a synced
//!   temporary file, a rename and a directory sync, so a crash leaves the
//!   old file or the new one, never a mix.
//!
//! Every file operation of an open log goes through [`LogFile`], the seam a
//! test uses to put a [`FailingFile`] in front of the real one.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// The file operations an open [`LineLog`] makes. Each returns the I/O
/// error it meets.
pub trait LogFile: std::fmt::Debug + Send + Sync {
    /// Writes all of `bytes` at the end of the file; on an error, some of
    /// them may have been written.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Makes every byte written so far durable.
    fn sync(&mut self) -> io::Result<()>;

    /// Cuts the file to its first `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// A file opened for appending: every write lands at the end, so after a
/// cut the next write starts at the cut.
impl LogFile for File {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.set_len(len)
    }
}

/// One complete line of a log, as [`LineLog::open`] read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Byte offset of the line's first byte in the file.
    pub offset: u64,
    /// The line's bytes, without its newline.
    pub bytes: Vec<u8>,
}

impl Line {
    /// Byte offset just past the line's newline.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes.len() as u64 + 1
    }
}

/// An open append-only line log. See the module docs.
#[derive(Debug)]
pub struct LineLog {
    file: Box<dyn LogFile>,
    path: PathBuf,
    /// Length of the complete lines: where the next append starts.
    len: u64,
    /// Length of the file, which runs past `len` after a torn write.
    file_len: u64,
    /// A cut back to `len` failed, so the file's end is unknown.
    broken: bool,
}

impl LineLog {
    /// Creates (truncating) the log at `path` and makes its `header` line
    /// durable, together with the file's directory entry.
    ///
    /// # Errors
    ///
    /// Any I/O error, or `InvalidInput` when `header` holds a newline.
    pub fn create(path: impl Into<PathBuf>, header: String) -> io::Result<Self> {
        let path = path.into();
        // `append` rules out `truncate` when opening, so empty it here
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.set_len(0)?;
        let mut log = LineLog { file: Box::new(file), path, len: 0, file_len: 0, broken: false };
        log.append(header)?;
        sync_dir(&log.path)?;
        Ok(log)
    }

    /// Opens the existing log at `path` and reads its complete lines, in
    /// order. Writes nothing: the bytes after the last newline are cut by
    /// the first append or [`LineLog::truncate`].
    ///
    /// # Errors
    ///
    /// Any I/O error (`NotFound` when there is no file).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Self, Vec<Line>)> {
        let path = path.into();
        let mut file = OpenOptions::new().read(true).append(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut lines = Vec::new();
        let mut offset = 0;
        for line in bytes.split_inclusive(|&b| b == b'\n') {
            let Some(text) = line.strip_suffix(b"\n") else { break };
            lines.push(Line { offset: offset as u64, bytes: text.to_vec() });
            offset += line.len();
        }
        let (len, file_len) = (offset as u64, bytes.len() as u64);
        Ok((LineLog { file: Box::new(file), path, len, file_len, broken: false }, lines))
    }

    /// Keeps the file's first `len` bytes, which must end a complete line,
    /// cuts the rest (a torn write, a damaged last line) and syncs. Returns
    /// the number of bytes cut; 0 touches nothing.
    ///
    /// # Errors
    ///
    /// Any I/O error, after which the log refuses appends, or
    /// `InvalidInput` when `len` runs past the complete lines.
    pub fn truncate(&mut self, len: u64) -> io::Result<u64> {
        if len > self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot keep {len} bytes of a log whose lines end at {}", self.len),
            ));
        }
        let cut = self.file_len - len;
        self.len = len;
        if cut > 0 {
            self.restore()?;
        }
        Ok(cut)
    }

    /// Durably appends `line` and its newline: one write, then a sync.
    /// When either fails, the file is cut back to its complete lines.
    ///
    /// # Errors
    ///
    /// The write's or the sync's error (the line is not in the log), an
    /// error once a failed cut has left the file's end unknown, or
    /// `InvalidInput` when `line` holds a newline.
    pub fn append(&mut self, mut line: String) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::other(format!(
                "log {} refuses appends: a failed append could not be cut back",
                self.path.display()
            )));
        }
        if line.contains('\n') {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "a log line holds a newline"));
        }
        if self.file_len > self.len {
            self.restore()?;
        }
        line.push('\n');
        match self.file.append(line.as_bytes()).and_then(|()| self.file.sync()) {
            Ok(()) => {
                self.len += line.len() as u64;
                self.file_len = self.len;
                Ok(())
            }
            Err(e) => {
                // the cut's own error only matters for later appends,
                // which `broken` refuses
                let _ = self.restore();
                Err(e)
            }
        }
    }

    /// Puts `wrap(file)` in front of the log's file: the seam through
    /// which a test injects failing writes, syncs and cuts.
    pub fn map_file(self, wrap: impl FnOnce(Box<dyn LogFile>) -> Box<dyn LogFile>) -> Self {
        LineLog { file: wrap(self.file), ..self }
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Cuts the file back to `len` and syncs; marks the log broken when
    /// that fails.
    fn restore(&mut self) -> io::Result<()> {
        match self.file.truncate(self.len).and_then(|()| self.file.sync()) {
            Ok(()) => {
                self.file_len = self.len;
                Ok(())
            }
            Err(e) => {
                self.broken = true;
                Err(e)
            }
        }
    }
}

/// Atomically replaces the log at `path` with `lines`: they are written to
/// a temporary file beside it and synced, the file is renamed over `path`,
/// and the directory is synced.
///
/// # Errors
///
/// Any I/O error; `path` then still holds its old contents.
pub fn rewrite<L: AsRef<[u8]>>(path: &Path, lines: impl IntoIterator<Item = L>) -> io::Result<()> {
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(line.as_ref());
        bytes.push(b'\n');
    }
    let mut temp = path.as_os_str().to_owned();
    temp.push(".tmp");
    let mut file = File::create(&temp)?;
    file.write_all(&bytes)?;
    file.sync_data()?;
    std::fs::rename(&temp, path)?;
    sync_dir(path)
}

/// Syncs the directory holding `path`, so a file created or renamed there
/// keeps its name after a crash. Only Unix opens a directory as a file.
fn sync_dir(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A [`LogFile`] that fails on purpose, for tests: it passes every call
/// through to the file it wraps until its fault fires, once.
#[derive(Debug)]
pub struct FailingFile {
    inner: Box<dyn LogFile>,
    fault: Option<Fault>,
    /// Whether every cut fails too.
    cut_fails: bool,
}

/// When a [`FailingFile`] fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The file takes `k` more bytes: the append that would pass them
    /// writes up to the `k`-th byte, then fails.
    WriteAfter(u64),
    /// `n` more syncs succeed; the one after them fails.
    SyncAfter(usize),
}

impl FailingFile {
    /// Wraps `inner`, set to fail once with `fault`; with `cut_fails`
    /// every cut fails as well, so the log cannot undo the fault.
    pub fn new(inner: Box<dyn LogFile>, fault: Fault, cut_fails: bool) -> Self {
        FailingFile { inner, fault: Some(fault), cut_fails }
    }
}

impl LogFile for FailingFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if let Some(Fault::WriteAfter(k)) = self.fault {
            let Some(left) = k.checked_sub(bytes.len() as u64) else {
                self.fault = None;
                self.inner.append(&bytes[..k as usize])?;
                return Err(io::Error::new(io::ErrorKind::WriteZero, "injected short write"));
            };
            self.fault = Some(Fault::WriteAfter(left));
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if let Some(Fault::SyncAfter(n)) = self.fault {
            self.fault = n.checked_sub(1).map(Fault::SyncAfter);
            if n == 0 {
                return Err(io::Error::other("injected sync failure"));
            }
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if self.cut_fails {
            return Err(io::Error::other("injected cut failure"));
        }
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wsan-linelog");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.log", std::process::id()))
    }

    fn texts(lines: &[Line]) -> Vec<&[u8]> {
        lines.iter().map(|l| l.bytes.as_slice()).collect()
    }

    #[test]
    fn lines_round_trip_with_their_offsets() {
        let path = temp_path("roundtrip");
        let mut log = LineLog::create(&path, "head".to_string()).unwrap();
        log.append("a".to_string()).unwrap();
        log.append("bc".to_string()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"head\na\nbc\n");
        let (_, lines) = LineLog::open(&path).unwrap();
        assert_eq!(texts(&lines), [&b"head"[..], b"a", b"bc"]);
        assert_eq!(lines.iter().map(|l| l.offset).collect::<Vec<_>>(), [0, 5, 7]);
        assert!(LineLog::create(&path, "x\ny".to_string()).is_err());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_leaves_a_torn_tail_for_the_first_append_to_cut() {
        let path = temp_path("torn");
        fs::write(&path, b"head\na\npart").unwrap();
        let (mut log, lines) = LineLog::open(&path).unwrap();
        assert_eq!(texts(&lines), [&b"head"[..], b"a"]);
        assert_eq!(fs::read(&path).unwrap(), b"head\na\npart", "open writes nothing");
        log.append("b".to_string()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"head\na\nb\n");

        fs::write(&path, b"head\na\nbad\npart").unwrap();
        let (mut log, lines) = LineLog::open(&path).unwrap();
        let past = log.truncate(lines[2].end() + 1);
        assert_eq!(past.map_err(|e| e.kind()), Err(io::ErrorKind::InvalidInput));
        assert_eq!(log.truncate(lines[2].offset).unwrap(), 8);
        assert_eq!(fs::read(&path).unwrap(), b"head\na\n");
        assert_eq!(log.truncate(lines[2].offset).unwrap(), 0);
        fs::remove_file(&path).unwrap();
    }

    /// A short write or a failed sync leaves the file as it was before the
    /// append, and the next appends start lines of their own; when the cut
    /// back fails as well, the log refuses every later append.
    #[test]
    fn a_failed_append_is_cut_back_and_the_log_goes_on() {
        let faults = [Fault::WriteAfter(0), Fault::WriteAfter(3), Fault::WriteAfter(6)];
        for fault in faults.into_iter().chain([Fault::SyncAfter(0)]) {
            let path = temp_path("fault");
            let mut log = LineLog::create(&path, "head".to_string()).unwrap();
            log.append("first".to_string()).unwrap();
            let mut log = log.map_file(|f| Box::new(FailingFile::new(f, fault, false)));
            assert!(log.append("doomed".to_string()).is_err(), "{fault:?}");
            assert_eq!(fs::read(&path).unwrap(), b"head\nfirst\n", "{fault:?}");
            log.append("second".to_string()).unwrap();
            log.append("third".to_string()).unwrap();
            assert_eq!(fs::read(&path).unwrap(), b"head\nfirst\nsecond\nthird\n", "{fault:?}");

            let mut log = log.map_file(|f| Box::new(FailingFile::new(f, fault, true)));
            assert!(log.append("doomed".to_string()).is_err(), "{fault:?}");
            assert!(log.append("refused".to_string()).is_err(), "{fault:?}");
            assert!(!fs::read(&path).unwrap().ends_with(b"refused\n"), "{fault:?}");
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn rewrite_replaces_the_whole_file() {
        let path = temp_path("rewrite");
        LineLog::create(&path, "old".to_string()).unwrap();
        rewrite(&path, ["head", "kept"]).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"head\nkept\n");
        let mut temp = path.as_os_str().to_owned();
        temp.push(".tmp");
        assert!(!Path::new(&temp).exists());
        fs::remove_file(&path).unwrap();
    }
}
