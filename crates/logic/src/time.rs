//! Simulated-time primitives shared by every crate in the workspace.
//!
//! The paper's scheduling theory (§IV) reasons about *validity intervals*,
//! *decision deadlines*, and *activation times*. All of these are represented
//! here as integer microseconds so that event ordering in the discrete-event
//! simulator is exact and deterministic (no floating-point tie ambiguity).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, measured in microseconds since the start of the
/// simulation.
///
/// # Examples
///
/// ```
/// use dde_logic::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(2);
/// assert_eq!(t.as_micros(), 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use dde_logic::time::SimDuration;
///
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never expires".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as "effectively infinite
    /// validity" (e.g. the existence of a bridge, §II-A).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "invalid duration in seconds: {s}"
        );
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to clock `bytes` bytes onto a medium of `bits_per_sec`:
    /// `bytes · 8 · 10⁶ / bits_per_sec` microseconds, rounded down,
    /// clamped at [`SimDuration::MAX`]. The one formula behind every link
    /// and planning channel.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn of_transmission(bytes: u64, bits_per_sec: u64) -> SimDuration {
        // Any real object fits the 64-bit path (up to 2.3 TB); the wide
        // divide is a library call, kept for what does not.
        let micros = match bytes.checked_mul(8_000_000) {
            Some(bit_micros) => bit_micros / bits_per_sec,
            None => {
                let wide = bytes as u128 * 8_000_000 / bits_per_sec as u128;
                wide.min(u64::MAX as u128) as u64
            }
        };
        SimDuration(micros)
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimTime::MAX {
            write!(f, "t=∞")
        } else {
            write!(f, "t={:.6}s", self.as_secs_f64())
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == SimDuration::MAX {
            write!(f, "∞")
        } else {
            write!(f, "{:.6}s", self.as_secs_f64())
        }
    }
}

impl From<core::time::Duration> for SimDuration {
    fn from(d: core::time::Duration) -> Self {
        SimDuration(d.as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimTime::from_secs_f64(0.25).as_micros(), 250_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(t - SimTime::from_secs(7), SimDuration::from_secs(3));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(SimTime::ZERO - SimDuration::from_secs(1), SimTime::ZERO);
        assert_eq!(
            SimTime::ZERO.saturating_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_micros(1))
            .is_none());
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_secs(2),
            SimTime::ZERO,
            SimTime::from_millis(1),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::ZERO,
                SimTime::from_millis(1),
                SimTime::from_secs(2)
            ]
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "t=1.500000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
        assert_eq!(SimTime::MAX.to_string(), "t=∞");
        assert_eq!(SimDuration::MAX.to_string(), "∞");
    }

    /// The formula as links and channels each spelled it before it moved
    /// here: all in 128 bits.
    fn wide_transmission(bytes: u64, bps: u64) -> SimDuration {
        let micros = (bytes as u128 * 8 * 1_000_000) / bps as u128;
        SimDuration::from_micros(micros.min(u64::MAX as u128) as u64)
    }

    #[test]
    fn transmission_time_examples() {
        assert_eq!(
            SimDuration::of_transmission(125_000, 1_000_000),
            SimDuration::from_secs(1)
        );
        assert_eq!(SimDuration::of_transmission(0, 1), SimDuration::ZERO);
        assert_eq!(
            SimDuration::of_transmission(u64::MAX, 1),
            SimDuration::MAX,
            "saturates"
        );
        assert_eq!(
            SimDuration::of_transmission(u64::MAX, u64::MAX),
            SimDuration::from_micros(8_000_000)
        );
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn transmission_over_a_zero_rate_medium_panics() {
        let _ = SimDuration::of_transmission(1, 0);
    }

    proptest! {
        /// Both arithmetic paths agree with the all-128-bit expression:
        /// around the point where `bytes · 8·10⁶` leaves 64 bits, at the
        /// ends of the byte range, and at the rates that matter.
        #[test]
        fn transmission_matches_the_wide_formula(
            near in 0u64..4_000_000,
            anywhere in any::<u64>(),
            odd_rate in 1u64..u64::MAX,
        ) {
            let boundary = u64::MAX / 8_000_000;
            let sizes = [
                0,
                1,
                boundary.saturating_sub(near),
                boundary,
                boundary + 1,
                boundary.saturating_add(near),
                anywhere,
                u64::MAX,
            ];
            for bytes in sizes {
                for bps in [1, 1_000_000, u64::MAX, odd_rate] {
                    prop_assert_eq!(
                        SimDuration::of_transmission(bytes, bps),
                        wide_transmission(bytes, bps),
                        "{} bytes at {} bps", bytes, bps
                    );
                }
            }
        }
    }

    #[test]
    fn from_std_duration() {
        let d: SimDuration = core::time::Duration::from_millis(42).into();
        assert_eq!(d, SimDuration::from_millis(42));
    }
}
