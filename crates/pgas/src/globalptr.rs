//! Global (wide) pointers with optional compression.
//!
//! Chapel represents a class reference as a 128-bit *wide pointer*: a 64-bit
//! virtual address plus 64 bits of locality information. The paper's key
//! enabling trick (§II-A) is *pointer compression*: on current hardware only
//! the low 48 bits of a virtual address are significant, so a 16-bit locale
//! id fits in the upper bits, producing a 64-bit value on which single-word
//! (and therefore RDMA-capable) atomics work. Installations with more than
//! 2^16 locales must fall back to the full-width representation and
//! double-word CAS.
//!
//! Both representations are provided: [`GlobalPtr`] (compressed) and
//! [`WideGlobalPtr`] (full width). The low bit of the address can carry a
//! *mark* (used by Harris-style linked lists); addresses of real objects are
//! at least 2-byte aligned so the bit is otherwise unused.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// Identifier of a simulated locale (compute node).
pub type LocaleId = u16;

const ADDR_BITS: u32 = 48;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
const MARK_BIT: u64 = 1;

/// A compressed global pointer: 16-bit locale id in the top bits, 48-bit
/// virtual address below. `Copy`, 8 bytes, and suitable for storage in an
/// `AtomicU64` — which is precisely what enables RDMA atomics on it.
pub struct GlobalPtr<T> {
    raw: u64,
    _marker: PhantomData<*mut T>,
}

impl<T> GlobalPtr<T> {
    /// The null pointer (locale 0, address 0).
    #[inline]
    pub const fn null() -> Self {
        GlobalPtr {
            raw: 0,
            _marker: PhantomData,
        }
    }

    /// Compress `(locale, addr)` into a single word.
    ///
    /// # Panics
    /// If `addr` does not fit in 48 bits — the same constraint real pointer
    /// compression relies on (x86-64/AArch64 user-space addresses).
    #[inline]
    pub fn new(locale: LocaleId, addr: usize) -> Self {
        let addr = addr as u64;
        assert!(
            addr & !ADDR_MASK == 0,
            "address {addr:#x} exceeds 48 bits; pointer compression requires \
             canonical user-space addresses"
        );
        GlobalPtr {
            raw: ((locale as u64) << ADDR_BITS) | addr,
            _marker: PhantomData,
        }
    }

    /// Build a pointer to a local in-process object.
    #[inline]
    pub fn from_raw_parts(locale: LocaleId, ptr: *mut T) -> Self {
        Self::new(locale, ptr as usize)
    }

    /// Reconstruct from a previously-extracted raw word.
    #[inline]
    pub const fn from_bits(raw: u64) -> Self {
        GlobalPtr {
            raw,
            _marker: PhantomData,
        }
    }

    /// The raw 64-bit representation (what an `AtomicU64` stores).
    #[inline]
    pub const fn into_bits(self) -> u64 {
        self.raw
    }

    /// Owning locale encoded in the pointer. No communication is required
    /// to learn an object's affinity — it is carried in the reference.
    #[inline]
    pub fn locale(self) -> LocaleId {
        (self.raw >> ADDR_BITS) as LocaleId
    }

    /// The 48-bit virtual address with any mark bit cleared.
    #[inline]
    pub fn addr(self) -> usize {
        (self.raw & ADDR_MASK & !MARK_BIT) as usize
    }

    /// True for the all-zero pointer (ignores the mark bit).
    #[inline]
    pub fn is_null(self) -> bool {
        self.raw & ADDR_MASK & !MARK_BIT == 0
    }

    /// In-process raw pointer. Dereferencing is `unsafe` and only valid
    /// while the object is alive; the simulator shares one address space,
    /// which stands in for RDMA-registered memory.
    #[inline]
    pub fn as_ptr(self) -> *mut T {
        self.addr() as *mut T
    }

    /// Dereference the pointer.
    ///
    /// # Safety
    /// The object must be alive and not concurrently mutated in ways that
    /// violate `&T` aliasing. In an epoch-protected region this is exactly
    /// the guarantee the `EpochManager` provides.
    #[inline]
    pub unsafe fn deref<'a>(self) -> &'a T {
        &*self.as_ptr()
    }

    /// True if the Harris mark bit is set.
    #[inline]
    pub fn is_marked(self) -> bool {
        self.raw & MARK_BIT != 0
    }

    /// Copy of this pointer with the mark bit set.
    #[inline]
    pub fn with_mark(self) -> Self {
        GlobalPtr {
            raw: self.raw | MARK_BIT,
            _marker: PhantomData,
        }
    }

    /// Copy of this pointer with the mark bit cleared.
    #[inline]
    pub fn without_mark(self) -> Self {
        GlobalPtr {
            raw: self.raw & !MARK_BIT,
            _marker: PhantomData,
        }
    }

    /// Widen to the 128-bit representation.
    #[inline]
    pub fn widen(self) -> WideGlobalPtr<T> {
        WideGlobalPtr {
            locale: self.locale() as u64,
            addr: self.raw & ADDR_MASK,
            _marker: PhantomData,
        }
    }

    /// Cast to a pointer of another type (same locale and address).
    #[inline]
    pub fn cast<U>(self) -> GlobalPtr<U> {
        GlobalPtr {
            raw: self.raw,
            _marker: PhantomData,
        }
    }
}

// SAFETY: a GlobalPtr is just an address; sharing it between threads is
// safe, and all dereferences are unsafe operations with their own
// obligations.
unsafe impl<T> Send for GlobalPtr<T> {}
// SAFETY: as for `Send`.
unsafe impl<T> Sync for GlobalPtr<T> {}

impl<T> Clone for GlobalPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for GlobalPtr<T> {}

impl<T> PartialEq for GlobalPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for GlobalPtr<T> {}

impl<T> Hash for GlobalPtr<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<T> fmt::Debug for GlobalPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GlobalPtr")
            .field("locale", &self.locale())
            .field("addr", &format_args!("{:#x}", self.addr()))
            .field("marked", &self.is_marked())
            .finish()
    }
}

impl<T> Default for GlobalPtr<T> {
    fn default() -> Self {
        Self::null()
    }
}

/// The uncompressed 128-bit wide pointer: full 64-bit address plus 64 bits
/// of locality information. This is the representation forced on systems
/// with more than 2^16 locales; atomics on it require double-word CAS and
/// remote operations cannot use NIC atomics (§II-A).
pub struct WideGlobalPtr<T> {
    locale: u64,
    addr: u64,
    _marker: PhantomData<*mut T>,
}

impl<T> WideGlobalPtr<T> {
    /// The null wide pointer.
    #[inline]
    pub const fn null() -> Self {
        WideGlobalPtr {
            locale: 0,
            addr: 0,
            _marker: PhantomData,
        }
    }

    /// Construct from an (unrestricted) locale id and full 64-bit address.
    #[inline]
    pub fn new(locale: u64, addr: usize) -> Self {
        WideGlobalPtr {
            locale,
            addr: addr as u64,
            _marker: PhantomData,
        }
    }

    /// Locality word.
    #[inline]
    pub fn locale(&self) -> u64 {
        self.locale
    }

    /// Address word (mark bit cleared).
    #[inline]
    pub fn addr(&self) -> usize {
        (self.addr & !MARK_BIT) as usize
    }

    /// True for the all-zero pointer.
    #[inline]
    pub fn is_null(&self) -> bool {
        self.addr & !MARK_BIT == 0
    }

    /// In-process raw pointer.
    #[inline]
    pub fn as_ptr(&self) -> *mut T {
        self.addr() as *mut T
    }

    /// Pack into a `(high, low)` pair of words for 128-bit atomic storage:
    /// high word = locality, low word = address.
    #[inline]
    pub fn into_words(self) -> (u64, u64) {
        (self.locale, self.addr)
    }

    /// Unpack from the `(high, low)` word pair.
    #[inline]
    pub fn from_words(locale: u64, addr: u64) -> Self {
        WideGlobalPtr {
            locale,
            addr,
            _marker: PhantomData,
        }
    }

    /// Compress, panicking if the address exceeds 48 bits or the locale
    /// exceeds 16 bits (i.e. compression is actually impossible).
    #[inline]
    pub fn compress(self) -> GlobalPtr<T> {
        assert!(
            self.locale < (1 << 16),
            "locale {} does not fit in 16 bits; compression unavailable",
            self.locale
        );
        GlobalPtr::new(self.locale as LocaleId, self.addr as usize)
    }
}

// SAFETY: as for `GlobalPtr`: an address and a locale id, dereferenced
// only through unsafe operations with their own obligations.
unsafe impl<T> Send for WideGlobalPtr<T> {}
// SAFETY: as for `Send`.
unsafe impl<T> Sync for WideGlobalPtr<T> {}

impl<T> Clone for WideGlobalPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for WideGlobalPtr<T> {}

impl<T> PartialEq for WideGlobalPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.locale == other.locale && self.addr == other.addr
    }
}
impl<T> Eq for WideGlobalPtr<T> {}

impl<T> fmt::Debug for WideGlobalPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WideGlobalPtr")
            .field("locale", &self.locale)
            .field("addr", &format_args!("{:#x}", self.addr))
            .finish()
    }
}

impl<T> Default for WideGlobalPtr<T> {
    fn default() -> Self {
        Self::null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let p = GlobalPtr::<u32>::new(7, 0x1234_5678_9abc);
        assert_eq!(p.locale(), 7);
        assert_eq!(p.addr(), 0x1234_5678_9abc);
        assert!(!p.is_null());
        assert!(!p.is_marked());
    }

    #[test]
    fn null_is_null() {
        let p = GlobalPtr::<u64>::null();
        assert!(p.is_null());
        assert_eq!(p.locale(), 0);
        assert_eq!(p.addr(), 0);
        assert_eq!(p, GlobalPtr::default());
    }

    #[test]
    fn max_locale_max_addr() {
        let p = GlobalPtr::<u8>::new(u16::MAX, ADDR_MASK as usize & !1);
        assert_eq!(p.locale(), u16::MAX);
        assert_eq!(p.addr(), (ADDR_MASK & !1) as usize);
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_address_rejected() {
        let _ = GlobalPtr::<u8>::new(0, 1usize << 48);
    }

    #[test]
    fn mark_bit_roundtrip() {
        let base = GlobalPtr::<u64>::new(3, 0x1000);
        let marked = base.with_mark();
        assert!(marked.is_marked());
        assert_eq!(marked.addr(), 0x1000, "addr() masks the mark");
        assert_eq!(marked.locale(), 3);
        assert_eq!(marked.without_mark(), base);
        assert_ne!(marked, base, "mark participates in equality");
    }

    #[test]
    fn marked_null_still_null_by_address() {
        let p = GlobalPtr::<u8>::null().with_mark();
        assert!(p.is_null());
        assert!(p.is_marked());
    }

    #[test]
    fn bits_roundtrip() {
        let p = GlobalPtr::<i32>::new(42, 0xdead_beef0);
        let q = GlobalPtr::<i32>::from_bits(p.into_bits());
        assert_eq!(p, q);
    }

    #[test]
    fn from_local_box() {
        let b = Box::new(99u64);
        let raw = Box::into_raw(b);
        let p = GlobalPtr::from_raw_parts(0, raw);
        assert_eq!(unsafe { *p.deref() }, 99);
        unsafe { drop(Box::from_raw(p.as_ptr())) };
    }

    #[test]
    fn widen_compress_roundtrip() {
        let p = GlobalPtr::<u8>::new(9, 0xabc0);
        let w = p.widen();
        assert_eq!(w.locale(), 9);
        assert_eq!(w.addr(), 0xabc0);
        assert_eq!(w.compress(), p);
    }

    #[test]
    fn wide_words_roundtrip() {
        let w = WideGlobalPtr::<u8>::new(1 << 20, 0x1234);
        let (hi, lo) = w.into_words();
        let w2 = WideGlobalPtr::<u8>::from_words(hi, lo);
        assert_eq!(w, w2);
        assert_eq!(w2.locale(), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "16 bits")]
    fn wide_with_big_locale_cannot_compress() {
        let w = WideGlobalPtr::<u8>::new(1 << 17, 0x1000);
        let _ = w.compress();
    }

    #[test]
    fn cast_preserves_identity() {
        let p = GlobalPtr::<u64>::new(2, 0x2000);
        let q: GlobalPtr<u8> = p.cast();
        assert_eq!(q.locale(), 2);
        assert_eq!(q.addr(), 0x2000);
    }
}
