//! Pointer-compression policy helpers.
//!
//! The mechanics of packing `(locale, address)` into a `u64` live on
//! [`pgas_sim::GlobalPtr`]; this module holds the *policy* described in
//! §II-A of the paper: compression is only sound while the locale id fits
//! in the 16 bits freed up by the 48-bit virtual-address assumption, and
//! installations beyond 2^16 locales must fall back to wide pointers and
//! double-word CAS.

use pgas_sim::PointerMode;

/// Maximum number of locales representable under pointer compression.
pub const MAX_COMPRESSED_LOCALES: usize = 1 << 16;

/// Does a system of `num_locales` locales require the wide-pointer
/// fallback?
#[inline]
pub fn requires_wide(num_locales: usize) -> bool {
    num_locales > MAX_COMPRESSED_LOCALES
}

/// The pointer mode a runtime *should* use for its locale count: the
/// compressed fast path whenever it is sound.
#[inline]
pub fn preferred_mode(num_locales: usize) -> PointerMode {
    if requires_wide(num_locales) {
        PointerMode::Wide
    } else {
        PointerMode::Compressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas_sim::{GlobalPtr, WideGlobalPtr};

    /// Compress a wide pointer, or return it unchanged as `Err` when the
    /// locale id exceeds 16 bits (the caller must stay on the wide path).
    fn try_compress<T>(wide: WideGlobalPtr<T>) -> Result<GlobalPtr<T>, WideGlobalPtr<T>> {
        if wide.locale() < MAX_COMPRESSED_LOCALES as u64 {
            Ok(wide.compress())
        } else {
            Err(wide)
        }
    }

    #[test]
    fn boundary_locale_counts() {
        assert!(!requires_wide(1));
        assert!(!requires_wide(MAX_COMPRESSED_LOCALES));
        assert!(requires_wide(MAX_COMPRESSED_LOCALES + 1));
    }

    #[test]
    fn preferred_mode_matches_requirement() {
        assert_eq!(preferred_mode(64), PointerMode::Compressed);
        assert_eq!(preferred_mode(1 << 20), PointerMode::Wide);
    }

    #[test]
    fn try_compress_small_locale() {
        let w = WideGlobalPtr::<u8>::new(12, 0x4000);
        let c = try_compress(w).expect("fits");
        assert_eq!(c.locale(), 12);
        assert_eq!(c.addr(), 0x4000);
    }

    #[test]
    fn try_compress_huge_locale_fails() {
        let w = WideGlobalPtr::<u8>::new(1 << 17, 0x4000);
        assert!(try_compress(w).is_err());
    }

    mod pack_roundtrip {
        use super::*;
        use proptest::prelude::*;

        const ADDR_BITS: u32 = 48;
        const ADDR_SPACE: u64 = 1 << ADDR_BITS;

        /// Run `f`, which is expected to panic, with the default panic hook
        /// suppressed so hundreds of proptest cases don't spam stderr.
        fn panics(f: impl FnOnce() + std::panic::UnwindSafe) -> bool {
            let hook = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            let r = std::panic::catch_unwind(f);
            std::panic::set_hook(hook);
            r.is_err()
        }

        /// Bias `addr` toward the interesting corners — null, the 48-bit
        /// ceiling, the mark bit's neighbours — far more often than uniform
        /// sampling would hit them. (`sel` picks a corner ~half the time.)
        fn bias_addr(sel: u8, addr: u64) -> u64 {
            match sel {
                0 => 0,
                1 => 1,
                2 => ADDR_SPACE - 1,
                3 => ADDR_SPACE - 2,
                _ => addr,
            }
        }

        proptest! {
            /// Every in-range (locale, addr) survives compression: locale
            /// exactly, address up to the Harris mark bit (which `addr()`
            /// masks and `is_marked()` reports instead).
            #[test]
            fn compressed_pack_unpack_roundtrips(
                locale in 0u16..=u16::MAX,
                sel in 0u8..8,
                raw_addr in 0u64..ADDR_SPACE,
            ) {
                let addr = bias_addr(sel, raw_addr);
                let p = GlobalPtr::<u64>::new(locale, addr as usize);
                prop_assert_eq!(p.locale(), locale);
                prop_assert_eq!(p.addr() as u64, addr & !1);
                prop_assert_eq!(p.is_marked(), addr & 1 == 1);
                prop_assert_eq!(p.is_null(), addr & !1 == 0);

                // The raw-word and wide representations agree with it.
                let q = GlobalPtr::<u64>::from_bits(p.into_bits());
                prop_assert_eq!(q, p);
                let w = p.widen();
                prop_assert_eq!(w.locale(), locale as u64);
                prop_assert_eq!(w.compress(), p);
            }

            /// Any address with a bit at or above position 48 set is not a
            /// canonical user-space address and must be rejected loudly,
            /// never silently truncated.
            #[test]
            fn out_of_range_addresses_are_rejected(
                locale in 0u16..=u16::MAX,
                low in 0u64..ADDR_SPACE,
                bit in ADDR_BITS..u64::BITS,
            ) {
                let bad = low | (1u64 << bit);
                let rejected = panics(move || {
                    let _ = GlobalPtr::<u8>::new(locale, bad as usize);
                });
                prop_assert!(rejected, "address {:#x} was not rejected", bad);
            }

            /// `try_compress` succeeds exactly when the locale fits in 16
            /// bits, and a successful compression is lossless.
            #[test]
            fn try_compress_agrees_with_the_locale_bound(
                raw_locale in 0u64..(1u64 << 24),
                fits in 0u8..2,
                sel in 0u8..8,
                raw_addr in 0u64..ADDR_SPACE,
            ) {
                // Half the cases are forced into the compressible range so
                // both arms get real coverage.
                let locale = if fits == 0 {
                    raw_locale & (MAX_COMPRESSED_LOCALES as u64 - 1)
                } else {
                    raw_locale
                };
                let addr = bias_addr(sel, raw_addr);
                let w = WideGlobalPtr::<u32>::new(locale, addr as usize);
                match try_compress(w) {
                    Ok(c) => {
                        prop_assert!(locale < MAX_COMPRESSED_LOCALES as u64);
                        prop_assert_eq!(c.locale() as u64, locale);
                        prop_assert_eq!(c.addr(), w.addr());
                    }
                    Err(back) => {
                        prop_assert!(locale >= MAX_COMPRESSED_LOCALES as u64);
                        prop_assert_eq!(back, w, "failure returns the input unchanged");
                    }
                }
            }
        }
    }
}
