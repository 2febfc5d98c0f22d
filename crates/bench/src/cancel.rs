//! Ctrl-C → cooperative sweep cancellation for the bench binaries.
//!
//! The handler only flips `sim_core::sweep`'s process-global cancel flag
//! (an atomic store — async-signal-safe); the sweep engine notices it at
//! the next cell boundary, drains the in-flight window (caching each cell,
//! when a cache is on), and returns [`sim_core::Error::Interrupted`], which
//! the binaries map to exit code 130 (128 + SIGINT) plus a resume hint.
//!
//! Raw `signal(2)` FFI keeps this dependency-free; the second Ctrl-C is
//! left at the default disposition so a wedged run can still be killed.

/// `SIGINT` on every platform this repo targets.
const SIGINT: i32 = 2;

/// `SIG_DFL`: restore the default disposition inside the handler so a
/// second Ctrl-C terminates the process immediately.
const SIG_DFL: usize = 0;

unsafe extern "C" {
    /// POSIX `signal(2)` from the platform libc (no crate dependency).
    fn signal(signum: i32, handler: usize) -> usize;
}

extern "C" fn on_sigint(_signum: i32) {
    // Async-signal-safe: one atomic store, one signal() syscall.
    sim_core::sweep::request_global_cancel();
    unsafe {
        signal(SIGINT, SIG_DFL);
    }
}

/// Install the Ctrl-C handler. Call once at binary start; the first
/// SIGINT requests a cooperative drain, the second kills the process.
pub fn install_sigint_handler() {
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}
