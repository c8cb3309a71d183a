//! SIGTERM/SIGINT → a process-wide shutdown flag.
//!
//! The workspace carries no `libc` crate (offline container), so the one
//! foreign call this needs — `signal(2)` — is declared by hand in the one
//! `#[allow(unsafe_code)]` island of the crate.  The handler body is the
//! minimal async-signal-safe action: a relaxed store into an `AtomicBool`.
//! Everything else (draining workers, flushing connections) happens on
//! ordinary threads that poll [`requested`].
//!
//! glibc's `signal()` installs BSD semantics (`SA_RESTART`), so the
//! server's blocking `accept` simply restarts after the handler runs.  The
//! server therefore runs a small thread that polls [`requested`] and, once
//! it is set, wakes the accept with a loopback connection.

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide "stop accepting, drain, exit 0" flag.  Set by the
/// signal handler and by a `shutdown` protocol request.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether shutdown has been requested (by signal or by protocol).
#[must_use]
pub fn requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

/// Requests shutdown (the `shutdown` protocol request lands here).
pub fn request() {
    SHUTDOWN.store(true, Ordering::Relaxed);
}

/// Resets the flag — test support only, so consecutive in-process servers
/// in one test binary do not see each other's shutdown.
pub fn reset() {
    SHUTDOWN.store(false, Ordering::Relaxed);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod ffi {
    /// `SIGINT` / `SIGTERM` numbers are part of the POSIX ABI on every
    /// platform this repo targets.
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        /// POSIX `signal(2)`; `sighandler_t` is pointer-sized, declared as
        /// `usize` to keep the binding dependency-free.
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        super::request();
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is the POSIX libc entry point; the handler is an
        // `extern "C" fn(i32)` that performs only an atomic store, which is
        // async-signal-safe.  The return value (the previous handler) is
        // deliberately ignored.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod ffi {
    /// Non-Unix fallback: no signal wiring; the `shutdown` protocol request
    /// still works.
    pub fn install() {}
}

/// Installs the SIGINT/SIGTERM handlers (idempotent).
pub fn install() {
    ffi::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flag_round_trips() {
        reset();
        assert!(!requested());
        request();
        assert!(requested());
        reset();
        assert!(!requested());
        // Installing handlers must not flip the flag.
        install();
        assert!(!requested());
    }
}
