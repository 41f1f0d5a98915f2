//! Virtual time for the discrete-event simulation.
//!
//! [`SimTime`] is an absolute instant and [`Dur`] a span, both in integer
//! nanoseconds. Integer nanoseconds keep the simulation deterministic (no
//! floating-point drift in the event queue) while still resolving sub-µs
//! device latencies such as shared-memory access.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use vani_rt::{FromJson, Json, JsonError, ToJson};

/// An absolute instant in simulated time, in nanoseconds since job start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl ToJson for SimTime {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for SimTime {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        u64::from_json(j).map(SimTime)
    }
}

impl ToJson for Dur {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl FromJson for Dur {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        u64::from_json(j).map(Dur)
    }
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e9).round() as u64)
    }

    /// Construct from whole nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Span from an earlier instant to this one (saturating).
    pub fn since(self, earlier: SimTime) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// Construct from whole nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        Dur(ns)
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        Dur(us * 1_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Dur(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Dur(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (saturating at zero for negatives).
    pub fn from_secs_f64(s: f64) -> Self {
        Dur((s.max(0.0) * 1e9).round() as u64)
    }

    /// This span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds in this span.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time to move `bytes` through a channel of `bytes_per_sec` bandwidth.
    ///
    /// Zero bandwidth is treated as infinitely slow and panics in debug
    /// builds; callers model unreachable devices explicitly instead.
    pub fn for_transfer(bytes: u64, bytes_per_sec: u64) -> Dur {
        debug_assert!(bytes_per_sec > 0, "bandwidth must be positive");
        if bytes == 0 {
            return Dur::ZERO;
        }
        // ns = bytes * 1e9 / bw, computed in u128 to avoid overflow for
        // terabyte transfers.
        let ns = (bytes as u128 * 1_000_000_000u128) / bytes_per_sec as u128;
        Dur(ns.min(u64::MAX as u128) as u64)
    }

    /// The implied bandwidth of moving `bytes` in this span, bytes/second.
    /// Returns `f64::INFINITY` for zero-length spans of non-zero bytes.
    pub fn bandwidth(self, bytes: u64) -> f64 {
        if self.0 == 0 {
            if bytes == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            bytes as f64 / self.as_secs_f64()
        }
    }
}

impl Add<Dur> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Dur) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Dur> for SimTime {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Dur> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Dur) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Dur {
    type Output = Dur;
    fn sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Dur {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_exact_for_round_numbers() {
        // 1 MiB at 1 MiB/s is exactly one second.
        let d = Dur::for_transfer(1 << 20, 1 << 20);
        assert_eq!(d, Dur::from_secs(1));
    }

    #[test]
    fn transfer_time_handles_huge_transfers() {
        // 1 TiB at 1 GiB/s = 1024 seconds; must not overflow u64 math.
        let d = Dur::for_transfer(1 << 40, 1 << 30);
        assert_eq!(d, Dur::from_secs(1024));
    }

    #[test]
    fn zero_byte_transfer_is_free() {
        assert_eq!(Dur::for_transfer(0, 100), Dur::ZERO);
    }

    #[test]
    fn bandwidth_round_trips_transfer() {
        let bytes = 64 * 1024 * 1024u64;
        let bw = 3_000_000_000u64;
        let d = Dur::for_transfer(bytes, bw);
        let measured = d.bandwidth(bytes);
        assert!((measured - bw as f64).abs() / (bw as f64) < 1e-6);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.since(b), Dur::ZERO);
        assert_eq!(b.since(a), Dur::from_secs(1));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", Dur::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", Dur::from_micros(250)), "250.00us");
        assert_eq!(format!("{}", Dur::from_millis(3)), "3.00ms");
        assert_eq!(format!("{}", Dur::from_secs(2)), "2.000s");
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs(5) + Dur::from_millis(500);
        assert!((t.as_secs_f64() - 5.5).abs() < 1e-9);
        let back = t - Dur::from_millis(500);
        assert_eq!(back, SimTime::from_secs(5));
    }
}
