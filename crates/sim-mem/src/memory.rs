//! Flat backing memory.

use std::collections::HashMap;
use std::ops::Range;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse, zero-initialized flat physical memory.
///
/// Pages materialize on first touch. Values are little-endian.
///
/// # Example
///
/// ```
/// use sim_mem::Memory;
/// let mut m = Memory::new();
/// m.write(0xfff, 8, 0x1122334455667788); // spans a page boundary
/// assert_eq!(m.read(0xfff, 8), 0x1122334455667788);
/// assert_eq!(m.read(0x1000, 1), 0x77);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: u64) -> u8 {
        self.page(addr)
            .map(|p| p[(addr as usize) & (PAGE_SIZE - 1)])
            .unwrap_or(0)
    }

    /// Reads `size` bytes (1, 2, 4 or 8) little-endian, with one page
    /// lookup per page the access touches. Reading never materializes a
    /// page.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn read(&self, addr: u64, size: u64) -> u64 {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        let mut bytes = [0u8; 8];
        for (at, offset, span) in page_spans(addr, size as usize) {
            if let Some(page) = self.page(at) {
                bytes[span.clone()].copy_from_slice(&page[offset..offset + span.len()]);
            }
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes the low `size` bytes (1, 2, 4 or 8) of `value` little-endian,
    /// with one page lookup per page the access touches.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, 4 or 8.
    pub fn write(&mut self, addr: u64, size: u64, value: u64) {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        self.write_bytes(addr, &value.to_le_bytes()[..size as usize]);
    }

    /// Copies a byte slice into memory at `addr`, with one page lookup per
    /// page the slice touches.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (at, offset, span) in page_spans(addr, bytes.len()) {
            self.page_mut(at)[offset..offset + span.len()].copy_from_slice(&bytes[span]);
        }
    }

    /// Number of materialized 4 KiB pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Splits the `len` bytes from `addr` at page boundaries: for each page
/// touched, an address in it, the access's offset in that page and the
/// access's byte range it holds. Addresses wrap past `u64::MAX`.
fn page_spans(addr: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let at = addr.wrapping_add(done as u64);
            let offset = (at as usize) & (PAGE_SIZE - 1);
            let span = done..len.min(done + PAGE_SIZE - offset);
            done = span.end;
            (at, offset, span)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0xdead_beef, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = Memory::new();
        m.write(0x100, 4, 0xaabbccdd);
        assert_eq!(m.read(0x100, 1), 0xdd);
        assert_eq!(m.read(0x103, 1), 0xaa);
        assert_eq!(m.read(0x100, 4), 0xaabbccdd);
    }

    #[test]
    fn cross_page_write_materializes_both_pages() {
        let mut m = Memory::new();
        m.write(0x1ffc, 8, u64::MAX);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0x1ffc, 8), u64::MAX);
    }

    #[test]
    fn write_bytes_copies_slice() {
        let mut m = Memory::new();
        m.write_bytes(0x40, &[1, 2, 3]);
        assert_eq!(m.read(0x40, 1), 1);
        assert_eq!(m.read(0x42, 1), 3);
    }

    #[test]
    fn accesses_wrap_past_the_end_of_the_address_space() {
        let mut m = Memory::new();
        m.write(u64::MAX - 7, 8, 0x0102_0304_0506_0708);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read(u64::MAX - 7, 8), 0x0102_0304_0506_0708);
        assert_eq!(m.read(u64::MAX, 1), 0x01);
        m.write(u64::MAX - 1, 4, 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read(0, 2), 0xaabb);
        assert_eq!(m.read(u64::MAX - 1, 4), 0xaabb_ccdd);
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn odd_size_panics() {
        Memory::new().read(0, 3);
    }

    #[derive(Debug, Clone)]
    enum Op {
        Read(u64, u64),
        Write(u64, u64, u64),
        WriteBytes(u64, Vec<u8>),
    }

    /// Addresses that crowd page boundaries (both sides of three seams,
    /// and the end of the address space, where accesses wrap to page 0)
    /// or land mid-page.
    fn address() -> impl Strategy<Value = u64> {
        prop_oneof![
            (1u64..4, 0u64..24).prop_map(|(page, back)| (page << PAGE_SHIFT) - 12 + back),
            0u64..0x4000,
            (0u64..24).prop_map(|k| u64::MAX.wrapping_add(k).wrapping_sub(11)),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        let size = (0usize..4).prop_map(|k| [1u64, 2, 4, 8][k]);
        prop_oneof![
            (address(), size.clone()).prop_map(|(a, s)| Op::Read(a, s)),
            (address(), size, any::<u64>()).prop_map(|(a, s, v)| Op::Write(a, s, v)),
            (address(), proptest::collection::vec(any::<u8>(), 0..20))
                .prop_map(|(a, b)| Op::WriteBytes(a, b)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn page_wide_access_matches_a_bytewise_oracle(ops in proptest::collection::vec(op(), 1..40)) {
            let mut m = Memory::new();
            let mut oracle: HashMap<u64, u8> = HashMap::new();
            let put = |oracle: &mut HashMap<u64, u8>, addr: u64, bytes: &[u8]| {
                for (i, &b) in bytes.iter().enumerate() {
                    oracle.insert(addr.wrapping_add(i as u64), b);
                }
            };
            for op in ops {
                match op {
                    Op::Read(addr, size) => {
                        let resident = m.resident_pages();
                        let want = (0..size).fold(0u64, |v, i| {
                            let b = oracle.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                            v | u64::from(b) << (8 * i)
                        });
                        prop_assert_eq!(m.read(addr, size), want, "read {:#x}/{}", addr, size);
                        prop_assert_eq!(m.resident_pages(), resident, "a read materialized a page");
                    }
                    Op::Write(addr, size, value) => {
                        m.write(addr, size, value);
                        put(&mut oracle, addr, &value.to_le_bytes()[..size as usize]);
                    }
                    Op::WriteBytes(addr, bytes) => {
                        m.write_bytes(addr, &bytes);
                        put(&mut oracle, addr, &bytes);
                    }
                }
                let pages: std::collections::HashSet<u64> =
                    oracle.keys().map(|a| a >> PAGE_SHIFT).collect();
                prop_assert_eq!(m.resident_pages(), pages.len(), "pages materialized");
            }
            for (&addr, &b) in &oracle {
                prop_assert_eq!(m.read_byte(addr), b, "byte {:#x}", addr);
            }
        }
    }
}
