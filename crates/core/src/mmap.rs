//! A tiny safe wrapper around a read-only memory mapping.
//!
//! The corpus reader ([`crate::corpus_io::CorpusReader`]) wants the whole
//! file addressable without making it resident: the kernel pages column
//! data in on demand and evicts it under pressure, so a million-row
//! corpus costs a replay client no more RSS than the rows it is actually
//! touching. This module is the smallest safe surface over `mmap(2)` that
//! supports that — map a file read-only, expose it as `&[u8]`, unmap on
//! drop — with no dependency beyond the libc every Rust binary on a Unix
//! host already links.
//!
//! On non-Unix targets (or when the kernel refuses the mapping),
//! [`MappedFile::map`] returns an error and callers fall back to
//! positioned reads (`pread`); the corpus reader does exactly that.

use std::fs::File;
use std::io;

/// A read-only memory mapping of an entire file.
///
/// The mapping is private (`MAP_PRIVATE`) and read-only (`PROT_READ`), so
/// it can never write back to the file; it is unmapped when dropped.
/// Empty files map to an empty slice without touching `mmap` at all
/// (zero-length mappings are an `EINVAL` on Linux).
#[derive(Debug)]
pub struct MappedFile {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is immutable for its whole lifetime (PROT_READ,
// private) and owned exclusively by this struct, so sharing references
// across threads is as safe as sharing any &[u8].
unsafe impl Send for MappedFile {}
unsafe impl Sync for MappedFile {}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl MappedFile {
    /// Maps `file` read-only in its entirety.
    ///
    /// # Errors
    ///
    /// Returns the underlying OS error when the mapping fails, and an
    /// [`io::ErrorKind::Unsupported`] error on targets without `mmap`;
    /// callers are expected to fall back to positioned reads.
    pub fn map(file: &File) -> io::Result<Self> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "file exceeds address space")
        })?;
        if len == 0 {
            return Ok(Self {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        Self::map_inner(file, len)
    }

    #[cfg(unix)]
    fn map_inner(file: &File, len: usize) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: fd is a valid open file for the duration of the call;
        // we request a fresh private read-only mapping (addr = null) and
        // check for MAP_FAILED before trusting the pointer.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[cfg(not(unix))]
    fn map_inner(_file: &File, _len: usize) -> io::Result<Self> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory mapping is only wired up on Unix targets",
        ))
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len came from a successful mmap that lives until
        // drop, and the mapping is never mutated.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: exactly the region returned by mmap in map_inner.
            unsafe {
                sys::munmap(self.ptr as *mut std::ffi::c_void, self.len);
            }
        }
    }
}

impl std::ops::Deref for MappedFile {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_a_file_and_reads_it_back() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("perspectron_mmap_test_{}", std::process::id()));
        let payload = b"PSPC mapped bytes round-trip";
        std::fs::File::create(&path)
            .and_then(|mut f| f.write_all(payload))
            .expect("write temp file");
        let file = File::open(&path).expect("open");
        let map = MappedFile::map(&file).expect("mmap should work on a unix test host");
        assert_eq!(&map[..], payload);
        assert_eq!(map.len(), payload.len());
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_map_to_an_empty_slice() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("perspectron_mmap_empty_{}", std::process::id()));
        std::fs::File::create(&path).expect("create");
        let file = File::open(&path).expect("open");
        let map = MappedFile::map(&file).expect("empty map");
        assert_eq!(map.len(), 0);
        assert_eq!(&map[..], b"");
        std::fs::remove_file(&path).ok();
    }
}
