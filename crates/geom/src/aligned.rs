//! [`AlignedVec`] — a growable `f64` buffer on a 64-byte-aligned
//! allocation.
//!
//! The packed R-tree snapshot stores its SoA coordinate arenas in these so
//! every lane-padded page span starts on a cache-line (and full-vector)
//! boundary: SIMD loads never split a cache line, and refreeze span-memcpys
//! land aligned data on aligned destinations (offsets are maintained in
//! whole [`crate::simd::LANE_COUNT`]-lane quanta, and one quantum is
//! exactly one 64-byte chunk).
//!
//! The implementation is a thin shim over `Vec<Chunk>` where `Chunk` is a
//! `#[repr(align(64))]` array of eight `f64`s: `Vec`'s allocator must
//! respect the element alignment, so the base pointer — and with it every
//! 8-lane offset — is 64-byte aligned, and reallocation on growth preserves
//! the guarantee for free. Storage is always initialized chunk-wise (new
//! chunks are zero-filled before use), so the whole backing region up to
//! the next chunk boundary is safe to read even when `len` stops mid-chunk.

#![allow(unsafe_code)] // raw f64 views over the chunked storage, see below

/// `f64`s per 64-byte chunk (= [`crate::simd::LANE_COUNT`]).
const CHUNK: usize = 8;

/// One cache line of lanes. `size_of == align_of == 64`, so a `Vec<Chunk>`
/// is a 64-byte-aligned, gap-free `f64` carpet.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct Chunk([f64; CHUNK]);

const ZERO_CHUNK: Chunk = Chunk([0.0; CHUNK]);

/// A growable `f64` buffer whose backing allocation is 64-byte aligned.
///
/// API subset of `Vec<f64>` (push / extend / clear / deref-to-slice),
/// plus the alignment guarantee: `as_slice().as_ptr()` is always a
/// multiple of 64, across growth and clones.
#[derive(Debug, Clone, Default)]
pub struct AlignedVec {
    chunks: Vec<Chunk>,
    len: usize,
}

impl AlignedVec {
    /// An empty buffer (no allocation yet).
    #[inline]
    pub const fn new() -> Self {
        AlignedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// An empty buffer with room for at least `cap` lanes.
    pub fn with_capacity(cap: usize) -> Self {
        AlignedVec {
            chunks: Vec::with_capacity(cap.div_ceil(CHUNK)),
            len: 0,
        }
    }

    /// Number of lanes stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lanes are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lanes the buffer can hold before reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.chunks.capacity() * CHUNK
    }

    /// Drops all lanes; keeps the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.chunks.clear();
    }

    /// Reserves room for at least `additional` more lanes.
    pub fn reserve(&mut self, additional: usize) {
        let want = (self.len + additional).div_ceil(CHUNK);
        self.chunks.reserve(want.saturating_sub(self.chunks.len()));
    }

    /// Appends one lane.
    pub fn push(&mut self, v: f64) {
        if self.len == self.chunks.len() * CHUNK {
            self.chunks.push(ZERO_CHUNK);
        }
        self.chunks[self.len / CHUNK].0[self.len % CHUNK] = v;
        self.len += 1;
    }

    /// Appends every lane of `src` (one grow + one memcpy).
    pub fn extend_from_slice(&mut self, src: &[f64]) {
        let new_len = self.len + src.len();
        // Zero-filling the fresh chunks keeps the invariant that the whole
        // chunked region is initialized; the memcpy below overwrites the
        // lanes that matter.
        self.chunks.resize(new_len.div_ceil(CHUNK), ZERO_CHUNK);
        // SAFETY: `chunks` owns `chunks.len() * CHUNK >= new_len`
        // initialized, gap-free `f64` lanes (Chunk is a repr(C) array with
        // align == size, so there is no padding between chunks); the
        // destination range `[len, new_len)` is in bounds and cannot
        // overlap `src`, which borrows a different allocation.
        unsafe {
            let dst = (self.chunks.as_mut_ptr() as *mut f64).add(self.len);
            std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len());
        }
        self.len = new_len;
    }

    /// The lanes as a plain slice. The pointer is 64-byte aligned.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: the first `len` lanes are initialized (push/extend only
        // ever advance `len` over written or zero-filled storage) and laid
        // out contiguously (repr(C) chunks, align == size).
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr() as *const f64, self.len) }
    }
}

impl std::ops::Deref for AlignedVec {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl FromIterator<f64> for AlignedVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut v = AlignedVec::with_capacity(iter.size_hint().0);
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl From<&[f64]> for AlignedVec {
    fn from(src: &[f64]) -> Self {
        let mut v = AlignedVec::new();
        v.extend_from_slice(src);
        v
    }
}

#[cfg(test)]
mod tests {
    //! CI runs these under AddressSanitizer (nightly). A hand mutation, in
    //! a scratch copy, that it must catch: an off-by-one length in
    //! `extend_from_slice`'s copy (`src.len() + 1`) is a
    //! `global-buffer-overflow` (`READ of size 32`) at the copy, from
    //! `clear_keeps_capacity_and_alignment`; a debug build without ASan
    //! died of `SIGSEGV` in `clone_and_eq_compare_lanes` instead, which
    //! undefined behaviour does not promise.

    use super::*;

    fn is_aligned(v: &AlignedVec) -> bool {
        (v.as_slice().as_ptr() as usize).is_multiple_of(64)
    }

    #[test]
    fn push_grow_preserves_alignment_and_contents() {
        let mut v = AlignedVec::new();
        for i in 0..1000 {
            v.push(i as f64);
            assert!(is_aligned(&v), "misaligned after push {i}");
        }
        assert_eq!(v.len(), 1000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as f64);
        }
    }

    /// Every chunk phase of both `unsafe` blocks: a copy of 0..=17 lanes
    /// (up to two chunk boundaries) onto 0..=8 lanes already stored, in a
    /// fresh buffer and in one cleared from a longer fill, then a second
    /// copy chained on. After each copy: the length, every lane, the
    /// alignment and `len <= capacity()`.
    #[test]
    fn extend_from_slice_copies_across_chunk_boundaries() {
        fn check(v: &AlignedVec, want: &[f64], what: &str) {
            assert_eq!(v.len(), want.len(), "{what}: len");
            assert_eq!(v.as_slice(), want, "{what}: lanes");
            assert!(is_aligned(v), "{what}: misaligned");
            assert!(v.len() <= v.capacity(), "{what}: len beyond capacity");
        }
        for start in 0..=8usize {
            for cleared in [false, true] {
                for n in 0..=17usize {
                    let what = format!("start {start} cleared {cleared} copy {n}");
                    let mut v = AlignedVec::new();
                    if cleared {
                        v.extend_from_slice(&[f64::NAN; 29]);
                        v.clear();
                    }
                    let mut want: Vec<f64> = (0..start).map(|i| -1.0 - i as f64).collect();
                    for &x in &want {
                        v.push(x);
                    }
                    let src: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
                    v.extend_from_slice(&src);
                    want.extend_from_slice(&src);
                    check(&v, &want, &what);
                    let tail = &[7.0, 8.0, 9.0][..n % 4];
                    v.extend_from_slice(tail);
                    want.extend_from_slice(tail);
                    check(&v, &want, &format!("{what}, then {} more", tail.len()));
                }
            }
        }
    }

    #[test]
    fn clone_and_eq_compare_lanes() {
        let v: AlignedVec = (0..19).map(|i| i as f64).collect();
        let w = v.clone();
        assert!(is_aligned(&w));
        assert_eq!(v, w);
        let mut u = w.clone();
        u.push(99.0);
        assert_ne!(v, u);
    }

    #[test]
    fn clear_keeps_capacity_and_alignment() {
        let mut v: AlignedVec = (0..100).map(|i| i as f64).collect();
        v.clear();
        assert!(v.is_empty());
        v.extend_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);
        assert!(is_aligned(&v));
    }

    #[test]
    fn mid_chunk_lengths_are_exact() {
        for n in 0..25 {
            let v: AlignedVec = (0..n).map(|i| i as f64).collect();
            assert_eq!(v.len(), n);
            assert_eq!(v.as_slice().len(), n);
            assert!(is_aligned(&v));
        }
    }
}
