//! Zero-copy ingestion of MPTRACE2 shard files via `mmap`.
//!
//! Billion-event captures don't fit the read-to-`Vec` ingestion path:
//! reading a multi-gigabyte shard up front doubles peak memory and serializes
//! all of I/O before the first event decodes. [`MappedTrace`] memory-maps the
//! file instead (falling back to a buffered read where `mmap` is
//! unavailable), validates the header, and parses the segment-index footer
//! written by [`crate::io::write_trace2`] so decoding can *seek*: each
//! segment records the byte offset of its first event plus the per-thread
//! codec predictor snapshot at that point, letting independent decoders
//! start mid-file and still produce exactly the sequential event stream.
//!
//! Safety/corruption posture: all decoding runs through [`SlabDecoder`]
//! over plain byte slices. It elides per-byte bounds checks only for an
//! event that starts at least one worst-case event length (a tag byte and
//! five 10-byte varints) before the end of the slice, so no read can leave
//! the slice; events nearer the end decode bounds-checked. Malformed bytes
//! surface as `InvalidData` or `UnexpectedEof` errors — never panics,
//! never reads out of the mapping. The differential and corruption test
//! suites hold this decoder equal to a per-event, fully bounds-checked
//! reference decode. A damaged or missing footer only costs seekability
//! (the file degrades to one segment); it is never an error by itself.
//! The mapping is private (`MAP_PRIVATE`) and read-only. Truncating a
//! file *while* it is mapped is undefined behaviour at the OS level
//! (`SIGBUS`); shard files are capture artifacts and must be immutable
//! during analysis, which the capture/merge pipeline already guarantees
//! by renaming shards into place only when complete.
//!
//! MPTRACE1 files are not mappable (no index; the fixed-width format
//! predates sharded capture) — [`crate::io::read_trace`] loads those into
//! memory.

use crate::io::{parse_header2, parse_index, SegmentEntry, SlabDecoder};
use std::fs::File;
use std::io;
use std::path::Path;

/// Raw `mmap`/`munmap` on x86_64 Linux, issued directly via `syscall` so
/// the crate stays dependency-free (no libc).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::io;

    const SYS_MMAP: usize = 9;
    const SYS_MUNMAP: usize = 11;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    /// An owned read-only private mapping.
    pub struct Map {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is immutable shared memory; the raw pointer is owned.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps `len` bytes of `fd` read-only. `len` must be nonzero.
        pub fn new(fd: i32, len: usize) -> io::Result<Map> {
            let ret: isize;
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MMAP as isize => ret,
                    in("rdi") 0usize,          // addr hint: none
                    in("rsi") len,
                    in("rdx") PROT_READ,
                    in("r10") MAP_PRIVATE,
                    in("r8") fd as isize,
                    in("r9") 0usize,           // offset
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
            }
            if ret < 0 && ret > -4096 {
                return Err(io::Error::from_raw_os_error(-ret as i32));
            }
            Ok(Map { ptr: ret as *const u8, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len come from a successful PROT_READ mapping that
            // lives until Drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            let _ret: isize;
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MUNMAP as isize => _ret,
                    in("rdi") self.ptr,
                    in("rsi") self.len,
                    out("rcx") _,
                    out("r11") _,
                    options(nostack),
                );
            }
        }
    }
}

/// Backing bytes of a [`MappedTrace`]: a real mapping where the platform
/// supports our raw-syscall path, an owned buffer otherwise.
enum Backing {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped(sys::Map),
    Owned(Vec<u8>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Backing::Mapped(m) => m.as_slice(),
            Backing::Owned(v) => v.as_slice(),
        }
    }
}

/// A memory-mapped (or in-memory) MPTRACE2 file with its segment index.
///
/// Construction validates the header and parses the index footer; event
/// bytes are decoded lazily through the [`EventSource`](crate::EventSource)s returned by
/// [`source`](MappedTrace::source) / [`segment_source`](MappedTrace::segment_source).
pub struct MappedTrace {
    backing: Backing,
    nthreads: u32,
    count: u64,
    body_start: usize,
    /// Parsed footer entries; `None` when the file has no (valid) index.
    index: Option<Vec<SegmentEntry>>,
}

impl std::fmt::Debug for MappedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedTrace")
            .field("nthreads", &self.nthreads)
            .field("count", &self.count)
            .field("bytes", &self.backing.bytes().len())
            .field("segments", &self.segment_count())
            .finish()
    }
}

impl MappedTrace {
    /// Maps `path` and validates its MPTRACE2 header.
    ///
    /// # Errors
    ///
    /// Propagates open/map I/O errors; returns `InvalidData` for a bad
    /// magic (including MPTRACE1 — use [`crate::io::read_trace`] for
    /// those) or
    /// unreasonable header fields.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(path.as_ref())?;
        let len = file.metadata()?.len();
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            if len > 0 && len <= usize::MAX as u64 {
                use std::os::fd::AsRawFd;
                let map = sys::Map::new(file.as_raw_fd(), len as usize)?;
                return Self::from_backing(Backing::Mapped(map));
            }
        }
        drop(file);
        Self::from_backing(Backing::Owned(std::fs::read(path.as_ref())?))
    }

    /// Builds a [`MappedTrace`] over an in-memory MPTRACE2 file (tests,
    /// benches, and platforms without the mmap fast path).
    ///
    /// # Errors
    ///
    /// Same validation as [`open`](MappedTrace::open).
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<Self> {
        Self::from_backing(Backing::Owned(bytes))
    }

    fn from_backing(backing: Backing) -> io::Result<Self> {
        let (nthreads, count, body_start) = parse_header2(backing.bytes())?;
        let index = parse_index(backing.bytes(), body_start, count);
        Ok(MappedTrace { backing, nthreads, count, body_start, index })
    }

    /// Number of threads recorded in the header.
    pub fn thread_count(&self) -> u32 {
        self.nthreads
    }

    /// Number of events recorded in the header.
    pub fn event_count(&self) -> u64 {
        self.count
    }

    /// Whether a valid segment-index footer was found.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Number of independently decodable segments (1 for unindexed or
    /// empty files).
    pub fn segment_count(&self) -> usize {
        self.index.as_ref().map_or(1, Vec::len)
    }

    /// `(first_event, n_events)` of segment `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= segment_count()` — segment indices come from
    /// iterating `0..segment_count()`, not from file bytes.
    pub fn segment_bounds(&self, i: usize) -> (u64, u64) {
        match &self.index {
            None => {
                assert_eq!(i, 0, "unindexed trace has one segment");
                (0, self.count)
            }
            Some(idx) => {
                let end = idx.get(i + 1).map_or(self.count, |n| n.start_event);
                (idx[i].start_event, end - idx[i].start_event)
            }
        }
    }

    /// A streaming decoder over segment `i` only, seeked via the index
    /// snapshot. Yields exactly the events of
    /// [`segment_bounds`](MappedTrace::segment_bounds)`(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= segment_count()` (see
    /// [`segment_bounds`](MappedTrace::segment_bounds)).
    pub fn segment_source(&self, i: usize) -> SlabDecoder<'_> {
        match &self.index {
            None => {
                assert_eq!(i, 0, "unindexed trace has one segment");
                self.source()
            }
            Some(idx) => {
                let (_, n) = self.segment_bounds(i);
                let data = &self.backing.bytes()[idx[i].byte_offset as usize..];
                SlabDecoder::resume(data, self.nthreads, n, idx[i].codecs.clone())
            }
        }
    }

    /// A streaming decoder over the whole event stream.
    pub fn source(&self) -> SlabDecoder<'_> {
        let data = &self.backing.bytes()[self.body_start..];
        SlabDecoder::resume(data, self.nthreads, self.count, Vec::new())
    }

    /// Decodes the whole file into a materialized [`crate::Trace`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on corrupt event bytes.
    pub fn collect(&self) -> io::Result<crate::Trace> {
        crate::source::collect_trace(self.source())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_trace2, write_trace2_segmented};
    use crate::source::{collect_trace, EventSource};
    use crate::{FreeRunScheduler, TracedMem};

    fn capture() -> crate::Trace {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(3, |ctx| {
            let a = ctx.palloc(256, 64).unwrap();
            for i in 0..40u64 {
                ctx.store_u64(a.add((i % 8) * 8), i);
                if i % 5 == 0 {
                    ctx.persist_barrier();
                }
            }
            ctx.pfree(a).unwrap();
        })
    }

    #[test]
    fn mapped_collect_matches_read_trace() {
        let t = capture();
        let mut buf = Vec::new();
        write_trace2(&t, &mut buf).unwrap();
        let m = MappedTrace::from_bytes(buf).unwrap();
        assert_eq!(m.thread_count(), t.thread_count());
        assert_eq!(m.event_count(), t.events().len() as u64);
        assert_eq!(m.collect().unwrap(), t);
    }

    #[test]
    fn segments_reassemble_exact_stream() {
        let t = capture();
        let mut buf = Vec::new();
        write_trace2_segmented(&t, &mut buf, 16).unwrap();
        let m = MappedTrace::from_bytes(buf).unwrap();
        assert!(m.is_indexed());
        assert!(m.segment_count() > 1, "want multiple segments");
        let mut events = Vec::new();
        let mut covered = 0;
        for i in 0..m.segment_count() {
            let (start, n) = m.segment_bounds(i);
            assert_eq!(start, covered);
            covered += n;
            let mut src = m.segment_source(i);
            while src.fill_slab(&mut events, 5).unwrap() > 0 {}
        }
        assert_eq!(covered, m.event_count());
        assert_eq!(events.as_slice(), t.events());
    }

    #[test]
    fn unindexed_file_degrades_to_single_segment() {
        let t = capture();
        let mut buf = Vec::new();
        write_trace2_segmented(&t, &mut buf, 0).unwrap();
        let m = MappedTrace::from_bytes(buf).unwrap();
        assert!(!m.is_indexed());
        assert_eq!(m.segment_count(), 1);
        assert_eq!(m.segment_bounds(0), (0, t.events().len() as u64));
        assert_eq!(collect_trace(m.segment_source(0)).unwrap(), t);
    }

    #[test]
    fn open_maps_real_files() {
        let t = capture();
        let mut buf = Vec::new();
        write_trace2(&t, &mut buf).unwrap();
        let path = std::env::temp_dir().join(format!("mmapio_open_{}.mptrace2", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let m = MappedTrace::open(&path).unwrap();
        assert_eq!(m.collect().unwrap(), t);
        drop(m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_v1_and_garbage() {
        let t = capture();
        let mut v1 = Vec::new();
        crate::io::write_trace(&t, &mut v1).unwrap();
        assert!(MappedTrace::from_bytes(v1).is_err());
        assert!(MappedTrace::from_bytes(b"NOTATRACE".to_vec()).is_err());
        assert!(MappedTrace::from_bytes(Vec::new()).is_err());
    }
}
