//! Registry of *remotable handler functions*.
//!
//! The simulator ships closures between locales because every locale lives
//! in one process. A process backend cannot: only data crosses the wire.
//! The portable unit of remote execution is therefore a plain `fn` —
//! registered under a stable name at startup, addressed by a small
//! [`HandlerId`] in active-message descriptors, and invoked on the
//! destination with a byte-slice argument, returning a byte-vector reply.
//!
//! Identical binaries that perform the same [`register`] calls in the same
//! program order assign the same ids, which is how `procbench`'s agent
//! processes agree on handler numbering without any negotiation (the SHMEM
//! "same executable on every PE" contract). Registration is idempotent for
//! a `(name, fn)` pair so test binaries that build several runtimes in one
//! process can re-register freely.

use crate::runtime::RuntimeCore;

/// A remotable handler: executes on the destination locale with the
/// runtime context entered (so [`crate::ctx::here`] and the engine façade
/// work), receives the serialized argument bytes, returns serialized reply
/// bytes.
pub type HandlerFn = fn(&RuntimeCore, &[u8]) -> Vec<u8>;

/// Stable index of a registered handler (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HandlerId(pub u32);

static REGISTRY: parking_lot::Mutex<Vec<(&'static str, HandlerFn)>> =
    parking_lot::Mutex::new(Vec::new());

/// Register `f` under `name`, returning its id. Idempotent: re-registering
/// the same `(name, fn)` pair returns the existing id. Panics if `name` is
/// already bound to a *different* function — handler names must be globally
/// unique so ids agree across processes.
pub fn register(name: &'static str, f: HandlerFn) -> HandlerId {
    let mut reg = REGISTRY.lock();
    if let Some(idx) = reg.iter().position(|(n, _)| *n == name) {
        assert!(
            std::ptr::fn_addr_eq(reg[idx].1, f),
            "handler name {name:?} already registered with a different function"
        );
        return HandlerId(idx as u32);
    }
    reg.push((name, f));
    HandlerId((reg.len() - 1) as u32)
}

/// Look up a handler id by name, if registered.
pub fn resolve(name: &str) -> Option<HandlerId> {
    REGISTRY
        .lock()
        .iter()
        .position(|(n, _)| *n == name)
        .map(|i| HandlerId(i as u32))
}

/// The name a handler id was registered under. Panics on an unknown id.
pub fn name_of(id: HandlerId) -> &'static str {
    REGISTRY.lock()[id.0 as usize].0
}

/// Invoke a registered handler on this process. Panics on an unknown id
/// (a wire-level protocol error: the sender's binary registered more
/// handlers than ours).
pub fn invoke(id: HandlerId, core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
    let f = {
        let reg = REGISTRY.lock();
        let Some(&(_, f)) = reg.get(id.0 as usize) else {
            panic!(
                "unknown handler id {} (only {} registered); agent binaries \
                 must register identical handler sets in the same order",
                id.0,
                reg.len()
            );
        };
        f
    };
    f(core, args)
}

/// Number of handlers registered so far.
pub fn count() -> usize {
    REGISTRY.lock().len()
}

/// Run handler `h` on locale `dest` (blocking round trip), from inside any
/// runtime task. The engine-portable sibling of [`crate::RuntimeCore::on`].
pub fn call(dest: crate::LocaleId, h: HandlerId, args: &[u8]) -> Vec<u8> {
    crate::ctx::with_core(|c, _| c.engine().on_handler(c, dest, h, args))
}

/// Fire handler `h` on locale `dest` without waiting; the returned
/// [`Completion`](crate::engine::Completion) resolves when the handler has
/// run (its reply bytes are discarded).
pub fn call_async(dest: crate::LocaleId, h: HandlerId, args: Vec<u8>) -> crate::engine::Completion {
    crate::ctx::with_core(|c, _| c.engine().on_handler_async(c, dest, h, args))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo(_core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
        args.to_vec()
    }

    fn double(_core: &RuntimeCore, args: &[u8]) -> Vec<u8> {
        args.iter().map(|b| b.wrapping_mul(2)).collect()
    }

    #[test]
    fn register_is_idempotent_and_resolves() {
        let a = register("test.echo", echo);
        let b = register("test.echo", echo);
        assert_eq!(a, b);
        assert_eq!(resolve("test.echo"), Some(a));
        assert_eq!(name_of(a), "test.echo");
        let c = register("test.double", double);
        assert_ne!(a, c);
        assert_eq!(resolve("missing"), None);
    }

    #[test]
    #[should_panic(expected = "different function")]
    fn conflicting_registration_panics() {
        register("test.conflict", echo);
        register("test.conflict", double);
    }
}
