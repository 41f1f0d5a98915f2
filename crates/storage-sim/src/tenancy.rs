//! Multi-tenant interference schedules for the shared PFS.
//!
//! On a production machine the parallel file system is never dedicated to
//! one job: every NSD data server and MDS metadata server is shared by all
//! concurrently running tenants. The fleet plane models that contention
//! with a **mean-field load schedule**: each job is simulated with a
//! piecewise-constant [`InterferenceSchedule`] describing, for every
//! window of its own timeline, how much *competing* demand the other
//! tenants place on the shared servers.
//!
//! The contention semantics follow processor sharing: a server whose
//! capacity is `C` and which carries competing demand `load × C` gives a
//! tenant an effective rate of `C / (1 + load)`, so stripe and metadata
//! service times stretch by the factor `1 + load` while the window covers
//! the operation's arrival instant. Data-path and metadata-path loads are
//! tracked separately — a metadata-storm neighbor hurts opens without
//! touching stream bandwidth, and vice versa.
//!
//! Determinism contract (mirrors [`crate::faults::FaultPlan`]):
//!
//! * the schedule is **pure data** — installing it draws nothing from any
//!   RNG stream and consumes no entropy;
//! * an *empty* schedule is bit-identical to never installing one, which
//!   is what reduces a single-tenant fleet to today's dedicated runs;
//! * factors depend only on the operation's arrival time, so replaying a
//!   trace under the same schedule reproduces the same timings exactly.

use sim_core::SimTime;

/// One window of competing tenant demand on the shared servers.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadWindow {
    /// Window start (inclusive), on this job's own timeline.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Competing data-path demand as a fraction of the aggregate NSD
    /// bandwidth (1.0 = the neighbors alone could saturate the servers).
    pub data_load: f64,
    /// Competing metadata-path demand as a fraction of the aggregate MDS
    /// service capacity.
    pub meta_load: f64,
    /// Fraction of the shared storage capacity that is actually *serving*
    /// during this window, in `(0, 1]`. The fleet's failure domains couple
    /// storage to the node pool (rack-co-located NSDs / burst buffers), so
    /// while part of the pool is down the survivors serve the same demand
    /// with less hardware: service times stretch by `1 / capacity` on top
    /// of the processor-sharing load factor. `1.0` (the default, and the
    /// only value pre-failure-domain schedules carry) is bit-identical to
    /// the capacity-unaware model.
    pub capacity: f64,
}

impl LoadWindow {
    /// Whether `t` falls inside the window.
    pub(crate) fn covers(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// The complete interference schedule one tenant observes during its run.
/// Pure data; see the module docs for semantics and determinism.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InterferenceSchedule {
    /// Competing-load windows. Windows may overlap; loads add.
    pub windows: Vec<LoadWindow>,
}

impl InterferenceSchedule {
    /// An empty schedule (a dedicated machine).
    pub fn none() -> Self {
        InterferenceSchedule::default()
    }

    /// Whether the schedule carries no load at all (and no degraded
    /// capacity): an empty schedule is bit-identical to never installing
    /// one, so a window whose only effect is `capacity < 1` counts as load.
    pub fn is_empty(&self) -> bool {
        self.windows
            .iter()
            .all(|w| w.data_load <= 0.0 && w.meta_load <= 0.0 && w.capacity >= 1.0)
    }

    /// Add a window of competing demand (builder style).
    pub fn with_window(
        mut self,
        from: SimTime,
        until: SimTime,
        data_load: f64,
        meta_load: f64,
    ) -> Self {
        self.windows.push(LoadWindow {
            from,
            until,
            data_load,
            meta_load,
            capacity: 1.0,
        });
        self
    }

    /// Add a window of competing demand served by a degraded storage pool
    /// (builder style). `capacity` is clamped into `(0, 1]`.
    pub fn with_window_capacity(
        mut self,
        from: SimTime,
        until: SimTime,
        data_load: f64,
        meta_load: f64,
        capacity: f64,
    ) -> Self {
        let capacity = if capacity.is_finite() {
            capacity.clamp(1e-6, 1.0)
        } else {
            1.0
        };
        self.windows.push(LoadWindow {
            from,
            until,
            data_load,
            meta_load,
            capacity,
        });
        self
    }

    /// Surviving-capacity fraction at instant `t`: the *minimum* capacity
    /// over covering windows (overlapping failure domains do not restore
    /// hardware), `1.0` when no degraded window covers `t`.
    fn capacity_at(&self, t: SimTime) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.covers(t) && w.capacity < 1.0)
            .map(|w| w.capacity)
            .fold(1.0, f64::min)
    }

    /// Data-path service-time stretch factor at instant `t`:
    /// `(1 + Σ data_load) / capacity` over covering windows; `1.0` on a
    /// dedicated, fully healthy machine.
    pub fn data_factor(&self, t: SimTime) -> f64 {
        (1.0 + self
            .windows
            .iter()
            .filter(|w| w.covers(t) && w.data_load > 0.0)
            .map(|w| w.data_load)
            .sum::<f64>())
            / self.capacity_at(t)
    }

    /// Metadata-path service-time stretch factor at instant `t`.
    pub fn meta_factor(&self, t: SimTime) -> f64 {
        (1.0 + self
            .windows
            .iter()
            .filter(|w| w.covers(t) && w.meta_load > 0.0)
            .map(|w| w.meta_load)
            .sum::<f64>())
            / self.capacity_at(t)
    }

    /// Mean data-path load over `[SimTime::ZERO, horizon)`, weighted by
    /// window duration — the "how noisy were my neighbors" scalar the
    /// fleet reports aggregate. Zero for an empty horizon.
    pub fn mean_data_load(&self, horizon: SimTime) -> f64 {
        let h = horizon.as_nanos();
        if h == 0 {
            return 0.0;
        }
        let mut weighted = 0.0f64;
        for w in &self.windows {
            if w.data_load <= 0.0 {
                continue;
            }
            let lo = w.from.as_nanos().min(h);
            let hi = w.until.as_nanos().min(h);
            if hi > lo {
                weighted += w.data_load * (hi - lo) as f64;
            }
        }
        weighted / h as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_schedule_has_unit_factors() {
        let s = InterferenceSchedule::none();
        assert!(s.is_empty());
        assert_eq!(s.data_factor(t(5)), 1.0);
        assert_eq!(s.meta_factor(t(5)), 1.0);
        assert_eq!(s.mean_data_load(t(100)), 0.0);
    }

    #[test]
    fn zero_load_windows_count_as_empty() {
        let s = InterferenceSchedule::none().with_window(t(0), t(10), 0.0, 0.0);
        assert!(s.is_empty());
        assert_eq!(s.data_factor(t(5)), 1.0);
    }

    #[test]
    fn overlapping_windows_add_their_loads() {
        let s = InterferenceSchedule::none()
            .with_window(t(0), t(10), 0.5, 0.0)
            .with_window(t(5), t(20), 1.0, 0.25);
        assert_eq!(s.data_factor(t(2)), 1.5);
        assert_eq!(s.data_factor(t(7)), 2.5);
        assert_eq!(s.data_factor(t(15)), 2.0);
        assert_eq!(s.data_factor(t(25)), 1.0);
        assert_eq!(s.meta_factor(t(2)), 1.0);
        assert_eq!(s.meta_factor(t(7)), 1.25);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let s = InterferenceSchedule::none().with_window(t(10), t(20), 1.0, 1.0);
        assert_eq!(s.data_factor(t(10)), 2.0);
        assert_eq!(s.data_factor(t(20)), 1.0);
    }

    #[test]
    fn mean_load_is_duration_weighted_and_clamped_to_horizon() {
        let s = InterferenceSchedule::none()
            .with_window(t(0), t(50), 1.0, 0.0)
            .with_window(t(50), t(200), 2.0, 0.0);
        // Over a 100 s horizon: 50 s at 1.0 + 50 s at 2.0 = mean 1.5.
        assert!((s.mean_data_load(t(100)) - 1.5).abs() < 1e-12);
        assert_eq!(s.mean_data_load(SimTime::ZERO), 0.0);
    }

    #[test]
    fn degraded_capacity_stretches_both_paths() {
        let s = InterferenceSchedule::none()
            .with_window(t(0), t(10), 0.5, 0.0)
            .with_window_capacity(t(5), t(20), 0.0, 0.0, 0.8);
        assert!(!s.is_empty());
        // Healthy region: pure processor sharing.
        assert_eq!(s.data_factor(t(2)), 1.5);
        // Degraded overlap: (1 + 0.5) / 0.8.
        assert!((s.data_factor(t(7)) - 1.5 / 0.8).abs() < 1e-12);
        // Degraded, no competing load: 1 / 0.8 on both paths.
        assert!((s.data_factor(t(15)) - 1.25).abs() < 1e-12);
        assert!((s.meta_factor(t(15)) - 1.25).abs() < 1e-12);
        assert_eq!(s.data_factor(t(25)), 1.0);
    }

    #[test]
    fn overlapping_capacity_windows_take_the_minimum() {
        let s = InterferenceSchedule::none()
            .with_window_capacity(t(0), t(10), 0.0, 0.0, 0.9)
            .with_window_capacity(t(5), t(10), 0.0, 0.0, 0.5);
        assert!((s.data_factor(t(2)) - 1.0 / 0.9).abs() < 1e-12);
        assert!((s.data_factor(t(7)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn full_capacity_window_stays_empty_and_serializes_unchanged() {
        let s = InterferenceSchedule::none().with_window_capacity(t(0), t(10), 0.0, 0.0, 1.0);
        assert!(s.is_empty());
        // A full-capacity window is the same window as one built without
        // a capacity at all.
        let legacy = InterferenceSchedule::none().with_window(t(0), t(10), 0.0, 0.0);
        assert_eq!(s, legacy);
    }
}
