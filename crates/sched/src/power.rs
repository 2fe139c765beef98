//! Per-cycle power accounting: profiles and incremental ledgers.

use serde::{Deserialize, Serialize};

use crate::budget::PowerBudget;
use crate::schedule::Schedule;
use crate::timing::TimingMap;

use pchls_cdfg::NodeId;

/// Tolerance used when comparing accumulated floating-point power sums to
/// a bound, so that summation order cannot flip a feasibility decision.
pub(crate) const POWER_EPS: f64 = 1e-9;

/// The power drawn in every clock cycle of a schedule.
///
/// This is the quantity Figure 1 of the paper plots: the per-cycle profile
/// whose spikes shorten battery life.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerProfile {
    per_cycle: Vec<f64>,
}

impl PowerProfile {
    /// Computes the profile of `schedule` under `timing`.
    #[must_use]
    pub fn of(schedule: &Schedule, timing: &TimingMap) -> PowerProfile {
        let mut per_cycle = vec![0.0; schedule.latency(timing) as usize];
        for (i, &s) in schedule.starts().iter().enumerate() {
            let id = NodeId::new(i as u32);
            let t = timing.of(id);
            for c in s..s + t.delay {
                per_cycle[c as usize] += t.power;
            }
        }
        PowerProfile { per_cycle }
    }

    /// Wraps a raw per-cycle vector (e.g. from a datapath simulation).
    #[must_use]
    pub fn from_cycles(per_cycle: Vec<f64>) -> PowerProfile {
        PowerProfile { per_cycle }
    }

    /// Power drawn in each cycle, indexed from cycle 0.
    #[must_use]
    pub fn per_cycle(&self) -> &[f64] {
        &self.per_cycle
    }

    /// Number of cycles covered (the schedule latency).
    #[must_use]
    pub fn cycles(&self) -> u32 {
        self.per_cycle.len() as u32
    }

    /// The maximum power drawn in any single cycle.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.per_cycle.iter().copied().fold(0.0, f64::max)
    }

    /// Mean power over the whole schedule (0 for an empty profile).
    #[must_use]
    pub fn average(&self) -> f64 {
        if self.per_cycle.is_empty() {
            0.0
        } else {
            self.energy() / self.per_cycle.len() as f64
        }
    }

    /// Total energy: the sum of per-cycle powers.
    #[must_use]
    pub fn energy(&self) -> f64 {
        self.per_cycle.iter().sum()
    }

    /// Peak-to-average ratio, the "spikiness" the paper's Figure 1
    /// illustrates. Returns 0 for an empty profile.
    #[must_use]
    pub fn peak_to_average(&self) -> f64 {
        let avg = self.average();
        if avg == 0.0 {
            0.0
        } else {
            self.peak() / avg
        }
    }

    /// The first cycle whose power exceeds the budget's bound *for that
    /// cycle* (with tolerance), if any, together with the power drawn
    /// there.
    #[must_use]
    pub fn first_violation(&self, budget: &PowerBudget) -> Option<(u32, f64)> {
        self.per_cycle
            .iter()
            .enumerate()
            .find(|&(c, &p)| p > budget.bound_at(c as u32) + POWER_EPS)
            .map(|(c, &p)| (c as u32, p))
    }

    /// Renders the profile as a rows-of-`#` ASCII bar chart, one line per
    /// cycle — handy for eyeballing Figure 1-style comparisons.
    #[must_use]
    pub fn to_ascii(&self, width: usize) -> String {
        let peak = self.peak();
        let mut out = String::new();
        for (c, &p) in self.per_cycle.iter().enumerate() {
            let bars = if peak > 0.0 {
                ((p / peak) * width as f64).round() as usize
            } else {
                0
            };
            out.push_str(&format!("{c:>4} |{} {p:.1}\n", "#".repeat(bars)));
        }
        out
    }

    /// As [`to_ascii`](PowerProfile::to_ascii), but overlaying the
    /// budget envelope: each line marks the cycle's bound with `|` at
    /// its scaled position (so a stepwise or sagging budget is visible
    /// as a moving wall, not a single scalar peak line), annotates the
    /// bound value, and flags cycles whose draw exceeds their bound with
    /// `!!`. Infinite bounds render without a wall.
    #[must_use]
    pub fn to_ascii_budget(&self, width: usize, budget: &PowerBudget) -> String {
        // One scale for both bars and walls, so their positions compare.
        let finite_peak = (0..self.per_cycle.len() as u32)
            .map(|c| budget.bound_at(c))
            .filter(|b| b.is_finite())
            .fold(self.peak(), f64::max);
        let mut out = String::new();
        for (c, &p) in self.per_cycle.iter().enumerate() {
            let bound = budget.bound_at(c as u32);
            let scale = |v: f64| {
                if finite_peak > 0.0 {
                    ((v / finite_peak) * width as f64).round() as usize
                } else {
                    0
                }
            };
            let bars = scale(p).min(width);
            let mut row = vec![b' '; width + 1];
            for cell in row.iter_mut().take(bars) {
                *cell = b'#';
            }
            if bound.is_finite() {
                row[scale(bound).min(width)] = b'|';
            }
            let row = String::from_utf8(row).expect("ASCII row");
            let violated = p > bound + POWER_EPS;
            let mark = if violated { " !!" } else { "" };
            let bound_txt = if bound.is_finite() {
                format!(" (P<{bound:.1})")
            } else {
                String::new()
            };
            out.push_str(&format!("{c:>4} {row} {p:.1}{bound_txt}{mark}\n"));
        }
        out
    }
}

/// An incremental per-cycle power ledger under a fixed budget envelope,
/// used by the power-constrained schedulers and the synthesis loop to
/// reserve and release execution intervals.
///
/// The paper's scalar bound `P<` is the constant envelope, so one
/// structure serves every budget: a **segment tree of per-cycle slack
/// minima**, `slack[c] = bound[c] − used[c]`. An operation drawing
/// `power` fits an interval iff `power ≤ slack + ε` holds at the
/// interval's *minimum* slack (IEEE-754 subtraction is monotone, so the
/// minimum decides for every leaf). Usage is a flat per-cycle vector;
/// each slack leaf is recomputed from `(bound[c], used[c])` whenever
/// that cycle's usage changes, so the slack is a pure function of the
/// usage state and snapshot/restore rollback stays bit-exact for free.
///
/// [`PowerLedger::fits`] answers in O(log horizon) instead of O(delay),
/// and [`PowerLedger::earliest_fit`] skips past each infeasible region
/// in one O(log horizon) descent to its **rightmost** violating cycle
/// (every start whose window covers that cycle is infeasible, so the
/// search resumes just past it — the "max headroom skip").
///
/// Horizons up to `SCAN_LIMIT` (64) cycles — the paper's benchmarks —
/// skip the internal nodes entirely and scan the slack leaves exactly
/// like the naive ledger: at that scale a handful of contiguous loads
/// beats any tree walk, and the asymptotics only matter for the large
/// random graphs of the `scale` workload. The leaves are the same
/// either way, so every answer is too.
///
/// The slack form of the check, `power ≤ (bound − used) + ε`, differs
/// from the textbook `used + power ≤ bound + ε` only when `power` lies
/// within a few ulps of `bound − used + ε` (see the
/// `slack_predicate_pins_the_boundary` unit test).
///
/// [`NaivePowerLedger`] retains the cycle-scanning implementation as the
/// differential-testing reference.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLedger {
    /// The exact power reserved in each cycle of the horizon.
    used: Vec<f64>,
    /// The materialized per-cycle bound.
    bounds: Vec<f64>,
    /// Flat binary segment tree of slack: `slack[size + c] = bounds[c] -
    /// used[c]`, internal nodes the min of their children (maintained
    /// only outside leaf-scan mode). Leaves beyond the horizon stay at
    /// `+inf` (the min identity) so padding never influences a query.
    slack: Vec<f64>,
    /// Number of leaves (horizon rounded up to a power of two).
    size: usize,
    /// Leaf-scan mode: the horizon is small enough that queries scan
    /// the leaves directly and internal minima are not maintained.
    scan: bool,
    /// The peak bound within the horizon (used for the can-never-fit
    /// quick reject).
    max_power: f64,
}

/// Largest power-of-two leaf count for which [`PowerLedger`] stays in
/// leaf-scan mode.
const SCAN_LIMIT: usize = 64;

/// Longest window the tree mode still answers with a direct (unrolled)
/// leaf scan instead of a tree walk. With the 4-wide reduction below, a
/// 32-cycle window is 8 independent min steps — still cheaper than
/// descending and re-ascending ~2·log₂(horizon) internal nodes.
const CHUNK_LIMIT: usize = 32;

/// Minimum of `values` with four independent accumulators so the f64
/// `min` chains don't serialize — the compiler keeps the accumulators in
/// separate registers (auto-vectorizing where the target allows).
/// Returns `+inf` for an empty slice. `f64::min` here is commutative and
/// associative over the ledger's slack values (never NaN, see
/// [`PowerLedger::reserve`]'s fits-first contract), so the reassociated
/// reduction equals the sequential fold bit for bit.
fn unrolled_min(values: &[f64]) -> f64 {
    let mut acc = [f64::INFINITY; 4];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        acc[0] = acc[0].min(c[0]);
        acc[1] = acc[1].min(c[1]);
        acc[2] = acc[2].min(c[2]);
        acc[3] = acc[3].min(c[3]);
    }
    let mut m = (acc[0].min(acc[1])).min(acc[2].min(acc[3]));
    for &v in tail {
        m = m.min(v);
    }
    m
}

/// The one feasibility predicate: anything that is not `≤ slack + ε` —
/// greater *or* unordered (NaN) — violates, so the negated operator is
/// deliberate (`power > slack + ε` would silently pass NaN).
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn violates(power: f64, slack: f64) -> bool {
    !(power <= slack + POWER_EPS)
}

impl PowerLedger {
    /// Creates an empty ledger over `horizon` cycles under `budget`
    /// (a constant budget is the paper's scalar `P<`).
    #[must_use]
    pub fn new(horizon: u32, budget: &PowerBudget) -> PowerLedger {
        let bounds = budget.materialize(horizon);
        let size = bounds.len().next_power_of_two().max(1);
        let scan = size <= SCAN_LIMIT;
        // Nothing is reserved yet, so every slack leaf is its bound.
        let mut slack = vec![f64::INFINITY; 2 * size];
        slack[size..size + bounds.len()].copy_from_slice(&bounds);
        if !scan {
            for i in (1..size).rev() {
                slack[i] = slack[2 * i].min(slack[2 * i + 1]);
            }
        }
        PowerLedger {
            used: vec![0.0; bounds.len()],
            bounds,
            slack,
            size,
            scan,
            max_power: budget.peak_within(horizon),
        }
    }

    /// The budget's peak bound within the horizon (the bound itself for
    /// a constant budget; see [`PowerLedger::bound`] for the per-cycle
    /// value).
    #[must_use]
    pub fn max_power(&self) -> f64 {
        self.max_power
    }

    /// The bound in force at `cycle` (the peak bound beyond the
    /// horizon).
    #[must_use]
    pub fn bound(&self, cycle: u32) -> f64 {
        self.bounds
            .get(cycle as usize)
            .copied()
            .unwrap_or(self.max_power)
    }

    /// The scheduling horizon in cycles.
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.used.len() as u32
    }

    /// Power already reserved in `cycle` (0 beyond the horizon).
    #[must_use]
    pub fn used(&self, cycle: u32) -> f64 {
        self.used.get(cycle as usize).copied().unwrap_or(0.0)
    }

    /// The slack leaves of cycles `[l, r)`.
    fn slack_leaves(&self, l: usize, r: usize) -> &[f64] {
        &self.slack[self.size + l..self.size + r]
    }

    /// Minimum slack over cycles `[l, r)` (`+inf` when empty).
    fn range_min_slack(&self, mut l: usize, mut r: usize) -> f64 {
        let mut m = f64::INFINITY;
        l += self.size;
        r += self.size;
        while l < r {
            if l & 1 == 1 {
                m = m.min(self.slack[l]);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                m = m.min(self.slack[r]);
            }
            l >>= 1;
            r >>= 1;
        }
        m
    }

    /// Re-derives the slack over the (non-empty) cycle range `[l, r)`
    /// after its usage was rewritten: the leaves always, the internal
    /// minima outside leaf-scan mode. Per level only the parents
    /// spanning the range are touched, so the total work is
    /// O(r - l + log horizon).
    fn refresh(&mut self, l: usize, r: usize) {
        for c in l..r {
            self.slack[self.size + c] = self.bounds[c] - self.used[c];
        }
        if self.scan {
            return;
        }
        let mut lo = l + self.size;
        let mut hi = r + self.size - 1;
        while lo > 1 {
            lo >>= 1;
            hi >>= 1;
            for i in lo..=hi {
                self.slack[i] = self.slack[2 * i].min(self.slack[2 * i + 1]);
            }
        }
    }

    /// Whether an operation drawing `power` per cycle can execute during
    /// `[start, start + delay)` without the budget overflowing, entirely
    /// within the horizon.
    #[must_use]
    pub fn fits(&self, start: u32, delay: u32, power: f64) -> bool {
        let (start, end) = (start as usize, start as usize + delay as usize);
        if end > self.used.len() {
            return false;
        }
        if delay == 0 {
            return true;
        }
        // Short intervals (the norm: module delays are 1–2 cycles) are a
        // few contiguous loads reduced 4-wide — faster than any tree
        // walk, and the window's minimum decides exactly like the naive
        // per-cycle check over the same values.
        let min = if self.scan || delay as usize <= CHUNK_LIMIT {
            unrolled_min(self.slack_leaves(start, end))
        } else {
            self.range_min_slack(start, end)
        };
        !violates(power, min)
    }

    /// Reserves `power` in every cycle of `[start, start + delay)`.
    ///
    /// # Panics
    ///
    /// Panics if the interval does not fit (callers must check
    /// [`PowerLedger::fits`] first); reserving blindly would corrupt the
    /// budget accounting.
    pub fn reserve(&mut self, start: u32, delay: u32, power: f64) {
        assert!(
            self.fits(start, delay, power),
            "reserve([{start}, {}), {power}) violates the budget",
            start + delay
        );
        if delay == 0 {
            return;
        }
        let (s, e) = (start as usize, start as usize + delay as usize);
        for u in &mut self.used[s..e] {
            *u += power;
        }
        self.refresh(s, e);
    }

    /// Releases a previous reservation.
    ///
    /// Floating-point subtraction can leave ~1 ulp of residue; callers
    /// that need bit-exact rollback (the synthesis loop's candidate
    /// attempts) should pair [`PowerLedger::snapshot`] /
    /// [`PowerLedger::restore`] instead.
    pub fn release(&mut self, start: u32, delay: u32, power: f64) {
        if delay == 0 {
            return;
        }
        let (s, e) = (start as usize, start as usize + delay as usize);
        assert!(e <= self.used.len(), "release beyond the horizon");
        for u in &mut self.used[s..e] {
            *u = (*u - power).max(0.0);
        }
        self.refresh(s, e);
    }

    /// The exact per-cycle reservations over `[start, start + delay)`
    /// (clipped to the horizon), for later [`PowerLedger::restore`].
    #[must_use]
    pub fn snapshot(&self, start: u32, delay: u32) -> Vec<f64> {
        let end = (start as usize + delay as usize).min(self.used.len());
        self.used[(start as usize).min(end)..end].to_vec()
    }

    /// Writes back a [`PowerLedger::snapshot`], undoing every reservation
    /// and release on those cycles since the snapshot was taken —
    /// bit-exact, unlike arithmetic [`PowerLedger::release`].
    pub fn restore(&mut self, start: u32, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let s = start as usize;
        let e = s + values.len();
        assert!(e <= self.used.len(), "restore beyond the horizon");
        self.used[s..e].copy_from_slice(values);
        self.refresh(s, e);
    }

    /// The rightmost cycle in `[l, r)` whose slack rejects `power`, if
    /// any — the exact negation of the `fits` comparison, so the offset
    /// search agrees with the probe bit for bit.
    fn last_violation(&self, l: usize, r: usize, power: f64) -> Option<usize> {
        // Short windows (the norm: delays are 1–2 cycles) scan their
        // leaves directly; the descent only pays off on long intervals.
        if self.scan || r - l <= CHUNK_LIMIT {
            // Clean-range pre-check: the whole window passes iff its
            // minimum slack does (the common case on the offset search's
            // final probe), so the position scan only runs when a
            // violation is known to exist. NaN `power` makes `violates`
            // total, so the minimum still falls through.
            let leaves = self.slack_leaves(l, r);
            if !violates(power, unrolled_min(leaves)) {
                return None;
            }
            return leaves
                .iter()
                .rposition(|&s| violates(power, s))
                .map(|i| l + i);
        }
        last_violation_in(&self.slack, self.size, 1, 0, self.size, l, r, power)
    }

    /// The first covered cycle of `[start, start + delay)` whose own
    /// per-cycle check rejects an additional draw of `power` — the
    /// precise counterpart of a failed [`PowerLedger::fits`], used to
    /// point error diagnostics at the violating cycle (and its own
    /// bound) instead of the interval's start. Cycles at or past the
    /// horizon report as the horizon itself (an out-of-range interval
    /// has no in-budget witness).
    #[must_use]
    pub fn first_unfit_cycle(&self, start: u32, delay: u32, power: f64) -> Option<u32> {
        if self.fits(start, delay, power) {
            return None;
        }
        let end = start.saturating_add(delay);
        if end > self.horizon() {
            return Some(self.horizon());
        }
        let leaves = self.slack_leaves(start as usize, end as usize);
        let first = leaves.iter().position(|&s| violates(power, s));
        Some(first.map_or(start, |i| start + i as u32))
    }

    /// The earliest start `s ≥ min_start` such that `[s, s+delay)` fits,
    /// or `None` if no such start exists within the horizon.
    ///
    /// This is exactly the paper's offset search — "if there is power
    /// available in the execution time interval … schedule, otherwise
    /// increase the offset by one" — but instead of re-scanning cycle by
    /// cycle, each failed probe jumps past its rightmost violating cycle
    /// `v` (every start in `[s, v]` keeps `v` inside its window, so all
    /// of them are infeasible and the returned start is identical to the
    /// naive scan's).
    #[must_use]
    pub fn earliest_fit(&self, min_start: u32, delay: u32, power: f64) -> Option<u32> {
        self.earliest_fit_by(min_start, delay, power, self.horizon())
    }

    /// As [`PowerLedger::earliest_fit`], but only considering starts
    /// whose interval also finishes by `latest_finish` — the bounded
    /// offset search the synthesis kernel runs against each candidate's
    /// deadline, without scanning the rest of the horizon.
    #[must_use]
    pub fn earliest_fit_by(
        &self,
        min_start: u32,
        delay: u32,
        power: f64,
        latest_finish: u32,
    ) -> Option<u32> {
        if power > self.max_power + POWER_EPS {
            return None;
        }
        let bound = latest_finish.min(self.horizon());
        if delay == 0 {
            return (min_start <= bound).then_some(min_start);
        }
        let mut s = min_start;
        while s + delay <= bound {
            match self.last_violation(s as usize, (s + delay) as usize, power) {
                None => return Some(s),
                Some(v) => s = v as u32 + 1,
            }
        }
        None
    }
}

/// Rightmost leaf of `[l, r)` under `node` of the slack-min segment tree
/// `slack` (covering `[node_l, node_r)`) that rejects `power`. A node
/// whose cached minimum admits `power` is pruned outright (its whole
/// interval, hence the intersection with `[l, r)`, is clean); a
/// rejecting node may owe its minimum to leaves outside `[l, r)`, which
/// the right-before-left recursion resolves.
#[allow(clippy::too_many_arguments)]
fn last_violation_in(
    slack: &[f64],
    size: usize,
    node: usize,
    node_l: usize,
    node_r: usize,
    l: usize,
    r: usize,
    power: f64,
) -> Option<usize> {
    if node_r <= l || r <= node_l || !violates(power, slack[node]) {
        return None;
    }
    if node >= size {
        return Some(node - size);
    }
    let mid = (node_l + node_r) / 2;
    last_violation_in(slack, size, 2 * node + 1, mid, node_r, l, r, power)
        .or_else(|| last_violation_in(slack, size, 2 * node, node_l, mid, l, r, power))
}

/// The original cycle-scanning power ledger, kept as the reference
/// implementation the segment-tree [`PowerLedger`] is differential-tested
/// against (`crates/sched/tests/properties.rs`). Every operation has the
/// naive complexity the paper's pseudocode implies: O(delay) probes,
/// O(horizon × delay) offset searches. It evaluates the same per-cycle
/// slack predicate, computed from scratch on every query.
#[derive(Debug, Clone, PartialEq)]
pub struct NaivePowerLedger {
    used: Vec<f64>,
    /// The materialized per-cycle bound.
    bounds: Vec<f64>,
    max_power: f64,
}

impl NaivePowerLedger {
    /// As [`PowerLedger::new`].
    #[must_use]
    pub fn new(horizon: u32, budget: &PowerBudget) -> NaivePowerLedger {
        NaivePowerLedger {
            used: vec![0.0; horizon as usize],
            bounds: budget.materialize(horizon),
            max_power: budget.peak_within(horizon),
        }
    }

    /// As [`PowerLedger::horizon`].
    #[must_use]
    pub fn horizon(&self) -> u32 {
        self.used.len() as u32
    }

    /// As [`PowerLedger::used`].
    #[must_use]
    pub fn used(&self, cycle: u32) -> f64 {
        self.used.get(cycle as usize).copied().unwrap_or(0.0)
    }

    /// As [`PowerLedger::fits`], by scanning every cycle.
    #[must_use]
    pub fn fits(&self, start: u32, delay: u32, power: f64) -> bool {
        let end = start as usize + delay as usize;
        end <= self.used.len()
            && (start as usize..end).all(|c| !violates(power, self.bounds[c] - self.used[c]))
    }

    /// As [`PowerLedger::reserve`].
    ///
    /// # Panics
    ///
    /// Panics if the interval does not fit.
    pub fn reserve(&mut self, start: u32, delay: u32, power: f64) {
        assert!(
            self.fits(start, delay, power),
            "reserve([{start}, {}), {power}) violates the budget",
            start + delay
        );
        for c in start..start + delay {
            self.used[c as usize] += power;
        }
    }

    /// As [`PowerLedger::release`].
    pub fn release(&mut self, start: u32, delay: u32, power: f64) {
        for c in start..start + delay {
            let u = &mut self.used[c as usize];
            *u = (*u - power).max(0.0);
        }
    }

    /// As [`PowerLedger::snapshot`].
    #[must_use]
    pub fn snapshot(&self, start: u32, delay: u32) -> Vec<f64> {
        let end = (start as usize + delay as usize).min(self.used.len());
        self.used[(start as usize).min(end)..end].to_vec()
    }

    /// As [`PowerLedger::restore`].
    pub fn restore(&mut self, start: u32, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let s = start as usize;
        self.used[s..s + values.len()].copy_from_slice(values);
    }

    /// As [`PowerLedger::earliest_fit`], by increasing the offset one
    /// cycle at a time.
    #[must_use]
    pub fn earliest_fit(&self, min_start: u32, delay: u32, power: f64) -> Option<u32> {
        if power > self.max_power + POWER_EPS {
            return None;
        }
        let horizon = self.horizon();
        let mut s = min_start;
        while s + delay <= horizon {
            if self.fits(s, delay, power) {
                return Some(s);
            }
            s += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::OpTiming;

    /// A ledger under the paper's scalar bound `P<`.
    fn scalar(horizon: u32, bound: f64) -> PowerLedger {
        PowerLedger::new(horizon, &PowerBudget::constant(bound))
    }

    #[test]
    fn unrolled_reductions_match_sequential_folds() {
        // Lengths straddling the 4-wide chunking (0, tails of 1–3, exact
        // multiples) against the plain folds they reassociate.
        for len in 0..=21usize {
            let values: Vec<f64> = (0..len)
                .map(|i| ((i * 37 + 11) % 17) as f64 - 5.0)
                .collect();
            let fold_min = values.iter().copied().fold(f64::INFINITY, f64::min);
            assert_eq!(unrolled_min(&values).to_bits(), fold_min.to_bits(), "{len}");
        }
        assert_eq!(unrolled_min(&[]), f64::INFINITY);
    }

    #[test]
    fn ledger_reserve_release_round_trip() {
        let mut l = scalar(10, 5.0);
        assert!(l.fits(2, 3, 4.0));
        l.reserve(2, 3, 4.0);
        assert!(!l.fits(3, 1, 2.0));
        assert!(l.fits(3, 1, 1.0));
        l.release(2, 3, 4.0);
        assert!(l.fits(3, 1, 5.0));
    }

    #[test]
    fn earliest_fit_skips_busy_cycles() {
        let mut l = scalar(10, 5.0);
        l.reserve(0, 4, 3.0);
        // 3 power/cycle for 2 cycles cannot fit until cycle 4.
        assert_eq!(l.earliest_fit(0, 2, 3.0), Some(4));
        // 2 power/cycle fits immediately.
        assert_eq!(l.earliest_fit(0, 2, 2.0), Some(0));
    }

    #[test]
    fn earliest_fit_rejects_oversized_ops() {
        let l = scalar(10, 5.0);
        assert_eq!(l.earliest_fit(0, 1, 6.0), None);
    }

    #[test]
    fn earliest_fit_respects_horizon() {
        let l = scalar(4, 5.0);
        assert_eq!(l.earliest_fit(3, 2, 1.0), None);
        assert_eq!(l.earliest_fit(3, 1, 1.0), Some(3));
    }

    #[test]
    fn infinite_budget_always_fits() {
        let l = scalar(4, f64::INFINITY);
        assert!(l.fits(0, 4, 1e18));
    }

    #[test]
    fn profile_statistics() {
        let s = Schedule::new(vec![0, 0, 1]);
        let t = TimingMap::from_entries(vec![
            OpTiming {
                delay: 1,
                power: 2.0,
            },
            OpTiming {
                delay: 2,
                power: 3.0,
            },
            OpTiming {
                delay: 1,
                power: 1.0,
            },
        ]);
        let p = PowerProfile::of(&s, &t);
        assert_eq!(p.per_cycle(), &[5.0, 4.0]);
        assert_eq!(p.cycles(), 2);
        assert!((p.peak() - 5.0).abs() < 1e-12);
        assert!((p.energy() - 9.0).abs() < 1e-12);
        assert!((p.average() - 4.5).abs() < 1e-12);
        assert!((p.peak_to_average() - 5.0 / 4.5).abs() < 1e-12);
        assert_eq!(
            p.first_violation(&PowerBudget::constant(4.5)),
            Some((0, 5.0))
        );
        assert_eq!(p.first_violation(&PowerBudget::constant(5.0)), None);
    }

    #[test]
    fn ascii_chart_has_one_line_per_cycle() {
        let p = PowerProfile::from_cycles(vec![1.0, 2.0, 0.5]);
        let chart = p.to_ascii(20);
        assert_eq!(chart.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "violates the budget")]
    fn blind_reserve_panics() {
        let mut l = scalar(4, 1.0);
        l.reserve(0, 1, 2.0);
    }

    #[test]
    fn equal_bound_budgets_build_equal_ledgers() {
        // However the constant is spelled, the ledger is the same value,
        // so scalar-constrained synthesis cannot depend on the spelling.
        for budget in [
            PowerBudget::constant(5.0),
            PowerBudget::steps(vec![(0, 5.0)]),
            PowerBudget::steps(vec![(0, 5.0), (4, 5.0)]),
            PowerBudget::per_cycle(vec![5.0; 10]),
            PowerBudget::per_cycle(vec![5.0; 3]),
        ] {
            for horizon in [0, 10, 100] {
                assert_eq!(
                    PowerLedger::new(horizon, &budget),
                    scalar(horizon, 5.0),
                    "{budget:?} over {horizon}"
                );
            }
        }
        // Infinity is a constant too.
        assert_eq!(
            PowerLedger::new(10, &PowerBudget::per_cycle(vec![f64::INFINITY])),
            PowerLedger::new(10, &PowerBudget::unbounded())
        );
        // A zero horizon still reports the opening bound.
        let empty = PowerLedger::new(0, &PowerBudget::steps(vec![(0, 7.0), (3, 2.0)]));
        assert_eq!(empty.max_power(), 7.0);
        assert_eq!(empty.bound(0), 7.0);
    }

    #[test]
    fn slack_predicate_pins_the_boundary() {
        // The one check is `p ≤ (B − used) + ε`. Within a few ulps of
        // the boundary it differs from `used + p ≤ B + ε`: this draw
        // passes the latter and fails the former, and the fast and the
        // naive ledger must both apply the former.
        let (bound, used, p) = (12.5, 10.0, 2.500_000_001_000_000_5);
        assert!(used + p <= bound + POWER_EPS);
        assert!(p > (bound - used) + POWER_EPS);
        let budget = PowerBudget::constant(bound);
        let mut fast = PowerLedger::new(4, &budget);
        let mut naive = NaivePowerLedger::new(4, &budget);
        fast.reserve(1, 2, used);
        naive.reserve(1, 2, used);
        assert!(!fast.fits(1, 1, p));
        assert!(!naive.fits(1, 1, p));
        assert_eq!(fast.earliest_fit(0, 2, p), None);
        assert_eq!(naive.earliest_fit(0, 2, p), None);
        assert_eq!(fast.first_unfit_cycle(0, 2, p), Some(1));
        // Exactly at the boundary the draw fits on both sides.
        assert!(fast.fits(1, 1, 2.5) && naive.fits(1, 1, 2.5));
        assert_eq!(fast.earliest_fit(1, 3, 2.5), naive.earliest_fit(1, 3, 2.5));
    }

    #[test]
    fn envelope_ledger_enforces_each_cycles_own_bound() {
        let budget = PowerBudget::steps(vec![(0, 10.0), (4, 3.0)]);
        let l = PowerLedger::new(8, &budget);
        assert_eq!(l.bound(0), 10.0);
        assert_eq!(l.bound(4), 3.0);
        // 5 power/cycle fits the opening phase but not the tail.
        assert!(l.fits(0, 4, 5.0));
        assert!(!l.fits(2, 4, 5.0)); // crosses into the 3.0 phase
        assert!(!l.fits(4, 2, 5.0));
        assert!(l.fits(4, 2, 3.0));
        // The offset search lands inside whichever phase admits the op.
        assert_eq!(l.earliest_fit(0, 2, 5.0), Some(0));
        assert_eq!(l.earliest_fit(3, 2, 5.0), None);
        assert_eq!(l.earliest_fit(0, 2, 3.0), Some(0));
        // Above the peak bound: nothing ever fits.
        assert_eq!(l.earliest_fit(0, 1, 11.0), None);
    }

    #[test]
    fn envelope_reservations_consume_slack() {
        let budget = PowerBudget::per_cycle(vec![10.0, 10.0, 4.0, 4.0]);
        let mut l = PowerLedger::new(4, &budget);
        l.reserve(0, 4, 3.0);
        assert!(l.fits(0, 2, 7.0));
        assert!(!l.fits(0, 3, 2.0)); // cycle 2 has 1.0 slack left
        assert!(l.fits(2, 2, 1.0));
        let snap = l.snapshot(0, 4);
        l.reserve(2, 2, 1.0);
        assert!(!l.fits(2, 1, 0.5));
        l.restore(0, &snap[..]);
        assert!(l.fits(2, 2, 1.0), "restore must refresh slack");
    }

    #[test]
    fn envelope_tree_mode_matches_leaf_scan_answers() {
        // One envelope past the scan limit: same queries through the
        // slack-min tree and through a scan-sized twin of each phase.
        let mut bounds = vec![9.0; 200];
        for b in bounds.iter_mut().skip(100) {
            *b = 4.0;
        }
        let mut l = PowerLedger::new(200, &PowerBudget::per_cycle(bounds));
        l.reserve(50, 100, 2.0);
        assert!(l.fits(0, 50, 8.9));
        assert!(!l.fits(0, 51, 8.0));
        assert!(!l.fits(120, 40, 2.5));
        assert!(l.fits(150, 50, 2.0));
        // Long-window earliest_fit crosses the phase boundary with the
        // headroom skip.
        assert_eq!(l.earliest_fit(0, 60, 6.5), Some(0));
        // 8.0 exceeds the 7.0 slack inside the reservation and the 4.0
        // tail bound, so no 60-cycle window past cycle 0 ever fits.
        assert_eq!(l.earliest_fit(1, 60, 8.0), None);
        // 2.5 exceeds the 2.0 slack of the reserved tail cells
        // [100, 150): the headroom skip must jump the search straight
        // past the whole region.
        assert_eq!(l.earliest_fit(61, 40, 2.5), Some(150));
    }

    #[test]
    fn profile_violations_against_a_budget() {
        let p = PowerProfile::from_cycles(vec![5.0, 5.0, 5.0]);
        let constant = PowerBudget::constant(4.0);
        assert_eq!(p.first_violation(&constant), Some((0, 5.0)));
        let steps = PowerBudget::steps(vec![(0, 6.0), (2, 4.0)]);
        assert_eq!(p.first_violation(&steps), Some((2, 5.0)));
        assert_eq!(p.first_violation(&PowerBudget::constant(5.0)), None);
    }

    #[test]
    fn budget_ascii_overlay_marks_bounds_and_violations() {
        let p = PowerProfile::from_cycles(vec![2.0, 8.0]);
        let chart = p.to_ascii_budget(20, &PowerBudget::steps(vec![(0, 10.0), (1, 5.0)]));
        assert_eq!(chart.lines().count(), 2);
        assert!(chart.contains("(P<10.0)"));
        assert!(chart.contains("(P<5.0)"));
        assert!(chart.lines().nth(1).unwrap().ends_with("!!"));
        // Unbounded cycles render without a wall or annotation.
        let free = p.to_ascii_budget(20, &PowerBudget::unbounded());
        assert!(!free.contains("(P<"));
    }
}
