//! Sub-millisecond readiness waits for the load generator. `poll(2)` and
//! socket read timeouts round to milliseconds, which would smear ACK stamps
//! and send times on the `stream_rows` schedule; `ppoll(2)` takes a
//! nanosecond timeout.

use std::net::TcpStream;
use std::time::Duration;

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    pub const POLLIN: c_short = 0x1;
    pub const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn prctl(
            option: c_int,
            arg2: c_ulong,
            arg3: c_ulong,
            arg4: c_ulong,
            arg5: c_ulong,
        ) -> c_int;
    }
}

/// Block until `stream` is readable or `timeout` passes.
#[cfg(target_os = "linux")]
pub fn readable(stream: &TcpStream, timeout: Duration) {
    use std::os::unix::io::AsRawFd;
    let mut fd = sys::PollFd {
        fd: stream.as_raw_fd(),
        events: sys::POLLIN,
        revents: 0,
    };
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as _,
        tv_nsec: timeout.subsec_nanos() as _,
    };
    // SAFETY: `fd` and `ts` are live, properly initialised `repr(C)` values
    // for the duration of the call, `nfds` is 1 matching the single entry,
    // and a null sigmask means "leave the signal mask alone". The result is
    // ignored: an error or a timeout both just end the wait early.
    unsafe {
        sys::ppoll(&mut fd, 1, &ts, std::ptr::null());
    }
}

#[cfg(not(target_os = "linux"))]
pub fn readable(_stream: &TcpStream, timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(100)));
}

/// Ask for 1 µs timer slack on the calling thread, so timed waits end
/// close to their deadline instead of up to 50 µs late.
#[cfg(target_os = "linux")]
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes the slack in nanoseconds as its only
    // argument and touches no memory; the unused arguments are zero.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

#[cfg(not(target_os = "linux"))]
pub fn tight_timer_slack() {}
