//! Benchmark-side workload pieces: seeded start offsets and a bulk
//! writer/reader whose data the reader verifies byte for byte.

use slice::core::{calib, ClientIo, Workload};
use slice::nfsproto::{Fhandle, NfsReply, NfsRequest, NfsStatus, ReplyBody, Sattr3, StableHow};
use slice::sim::{SimDuration, SimTime};
use slice::workloads::bulk::MODE_MIRRORED;

/// Delays a workload's start by a seeded offset, as independent
/// processes never start in the same nanosecond. The offsets are the
/// input through which the seed reaches every workload, including those
/// whose generators draw nothing from the simulation RNG.
pub struct Staggered {
    inner: Box<dyn Workload>,
    delay: SimDuration,
    started: bool,
}

impl Staggered {
    pub fn new(inner: Box<dyn Workload>, delay: SimDuration) -> Self {
        Staggered {
            inner,
            delay,
            started: false,
        }
    }
}

impl Workload for Staggered {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        io.wake_in(self.delay);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply) {
        self.inner.on_reply(io, tag, reply);
    }

    fn on_wake(&mut self, io: &mut ClientIo<'_, '_>) {
        if self.started {
            self.inner.on_wake(io);
        } else {
            self.started = true;
            self.inner.start(io);
        }
    }

    fn finished(&self) -> bool {
        self.started && self.inner.finished()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
}

/// The fill of block `block` of a file written with `key`: a cheap
/// xorshift stream, so a reader can tell a misplaced or misdecoded block
/// from the right one.
pub fn fill(key: u64, block: u64, out: &mut [u8]) {
    let mut x = (key ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    for chunk in out.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
    }
}

/// Sequential bulk writer or verifying reader of one file, with the
/// client's write-behind and read-ahead windows (as `BulkIo`).
pub struct PatternIo {
    write: bool,
    name: String,
    key: u64,
    total: u64,
    window: usize,
    fh: Option<Fhandle>,
    next: u64,
    done_bytes: u64,
    outstanding: usize,
    started: Option<SimTime>,
    finished_at: Option<SimTime>,
    /// Reads whose data differed from what was written.
    pub mismatches: u64,
    /// Replies with a status other than OK.
    pub errors: u64,
}

impl PatternIo {
    fn new(write: bool, name: &str, key: u64, total: u64) -> Self {
        PatternIo {
            write,
            name: name.to_string(),
            key,
            total,
            window: if write {
                calib::CLIENT_WRITE_WINDOW
            } else {
                calib::CLIENT_READAHEAD
            },
            fh: None,
            next: 0,
            done_bytes: 0,
            outstanding: 0,
            started: None,
            finished_at: None,
            mismatches: 0,
            errors: 0,
        }
    }

    /// Writes `total` bytes of pattern `key` to a new mirrored-policy file.
    pub fn writer(name: &str, key: u64, total: u64) -> Self {
        Self::new(true, name, key, total)
    }

    /// Reads `name` back and checks every byte against pattern `key`.
    pub fn reader(name: &str, key: u64, total: u64) -> Self {
        Self::new(false, name, key, total)
    }

    /// Bytes acknowledged (written) or verified (read).
    pub fn done_bytes(&self) -> u64 {
        self.done_bytes
    }

    /// Simulated seconds from the first data op to the last reply.
    pub fn secs(&self) -> Option<f64> {
        Some((self.finished_at? - self.started?).as_secs_f64())
    }

    fn pump(&mut self, io: &mut ClientIo<'_, '_>) {
        let fh = self.fh.expect("pump before lookup");
        let block = u64::from(calib::NFS_BLOCK);
        while self.outstanding < self.window && self.next < self.total {
            let len = block.min(self.total - self.next) as u32;
            let req = if self.write {
                let mut data = vec![0u8; len as usize];
                fill(self.key, self.next / block, &mut data);
                NfsRequest::Write {
                    fh,
                    offset: self.next,
                    stable: StableHow::Unstable,
                    data,
                }
            } else {
                NfsRequest::Read {
                    fh,
                    offset: self.next,
                    count: len,
                }
            };
            io.call(self.next / block + 1, req);
            self.next += u64::from(len);
            self.outstanding += 1;
        }
        if self.outstanding == 0 && self.next >= self.total && self.finished_at.is_none() {
            if self.write {
                io.call(
                    0,
                    NfsRequest::Commit {
                        fh,
                        offset: 0,
                        count: 0,
                    },
                );
                self.outstanding = 1;
            } else {
                self.finished_at = Some(io.now());
            }
        }
    }
}

impl Workload for PatternIo {
    fn start(&mut self, io: &mut ClientIo<'_, '_>) {
        let root = Fhandle::root();
        let req = if self.write {
            NfsRequest::Create {
                dir: root,
                name: self.name.clone(),
                attr: Sattr3 {
                    mode: Some(0o644 | MODE_MIRRORED),
                    ..Default::default()
                },
            }
        } else {
            NfsRequest::Lookup {
                dir: root,
                name: self.name.clone(),
            }
        };
        io.call(u64::MAX, req);
    }

    fn on_reply(&mut self, io: &mut ClientIo<'_, '_>, tag: u64, reply: &NfsReply) {
        if reply.status != NfsStatus::Ok {
            self.errors += 1;
        }
        if tag == u64::MAX {
            self.fh = match &reply.body {
                ReplyBody::Create { fh } => *fh,
                ReplyBody::Lookup { fh, .. } => Some(*fh),
                _ => None,
            };
            if self.fh.is_none() {
                // Nothing to stream; finished() stays false and the
                // caller's completion check reports it.
                return;
            }
            self.started = Some(io.now());
            self.pump(io);
            return;
        }
        self.outstanding -= 1;
        if tag == 0 {
            self.finished_at = Some(io.now());
            return;
        }
        let block = tag - 1;
        if self.write {
            if let ReplyBody::Write { count, .. } = &reply.body {
                self.done_bytes += u64::from(*count);
            }
        } else if let ReplyBody::Read { data, .. } = &reply.body {
            let mut want = vec![0u8; data.len()];
            fill(self.key, block, &mut want);
            if *data == want {
                self.done_bytes += data.len() as u64;
            } else {
                self.mismatches += 1;
            }
        }
        self.pump(io);
    }

    fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
