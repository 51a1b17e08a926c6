//! ds-chaos: deterministic fault injection at the fabric boundary.
//!
//! A [`FaultPlan`] schedules message faults (drop, delay, duplicate,
//! reorder) and node stalls by cycle window, source port, and message
//! kind. The plan is pure data: the fabric applies message rules
//! through a [`FaultInjector`] sitting between the interconnect model
//! and its deliveries, and `ds_core::Node` applies stall rules to its
//! own tick. Everything is deterministic — a seeded plan plus a fixed
//! configuration reproduces the same faulted run bit for bit, across
//! the skipping and non-skipping engines.
//!
//! With an empty plan the system never constructs an injector, so the
//! fault path costs nothing and golden results stay byte-identical.
//!
//! Reordering is modelled as *reorder-by-deferral*: a matched delivery
//! is held back and released after the next delivery batch (or after a
//! bounded number of cycles, preserving liveness), so a later message
//! overtakes it. This is exactly the §4.4 ring complication — operands
//! from different senders observed in different orders — made
//! injectable on any fabric.

use crate::{Cycle, Delivery, MsgKind, PortId};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};
use std::collections::BinaryHeap;

/// Cycles a reorder-deferred delivery is held at most before it is
/// force-released (liveness bound; see module docs).
const REORDER_HOLD_MAX: u64 = 64;

/// What to do with a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently discard the delivery.
    Drop,
    /// Hold the delivery back for this many cycles.
    Delay(u64),
    /// Deliver normally *and* deliver a copy this many cycles later.
    Duplicate(u64),
    /// Defer the delivery past the next delivery batch so a later
    /// message overtakes it.
    Reorder,
}

/// One message-fault rule. A delivery matches when the current cycle is
/// inside `[from, to)`, the sender matches `src` (or `src` is `None`),
/// and the message kind matches `msg` (or `msg` is `None`). Among
/// matches, the rule fires on every `every`-th one, at most `max_fires`
/// times total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// The fault applied on a fire.
    pub kind: FaultKind,
    /// First cycle (inclusive) the rule is armed.
    pub from: Cycle,
    /// First cycle (exclusive) the rule is disarmed; `Cycle::MAX` keeps
    /// it armed forever.
    pub to: Cycle,
    /// Match only messages sent from this port (`None` = any).
    pub src: Option<PortId>,
    /// Match only this message kind (`None` = any).
    pub msg: Option<MsgKind>,
    /// Fire on every n-th matching delivery (1 = every match).
    pub every: u64,
    /// Total fire budget (`u64::MAX` = unbounded).
    pub max_fires: u64,
}

impl FaultRule {
    /// A rule matching every broadcast, armed forever, firing on every
    /// `every`-th match up to `max_fires` times.
    pub fn broadcasts(kind: FaultKind, every: u64, max_fires: u64) -> Self {
        FaultRule {
            kind,
            from: 0,
            to: Cycle::MAX,
            src: None,
            msg: Some(MsgKind::Broadcast),
            every,
            max_fires,
        }
    }
}

/// Stall one node's tick: the node's core does not step for
/// `[at, at + cycles)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallRule {
    /// The stalled node.
    pub node: PortId,
    /// First stalled cycle.
    pub at: Cycle,
    /// Stall length in cycles.
    pub cycles: u64,
}

/// A complete, deterministic fault schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Message-fault rules, first match wins.
    pub rules: Vec<FaultRule>,
    /// Node-stall rules.
    pub stalls: Vec<StallRule>,
}

impl FaultPlan {
    /// True when the plan injects nothing (the default): the system
    /// skips injector construction entirely and behaves byte-identically
    /// to a build without ds-chaos.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.stalls.is_empty()
    }

    /// A deterministic pseudo-random plan for an `nodes`-node machine:
    /// `rule_count` bounded-budget message rules plus up to one stall
    /// per node. The same `(seed, nodes, rule_count)` triple always
    /// yields the same plan. Budgets are finite so a hardened protocol
    /// always outruns the plan (liveness under every seeded grid).
    pub fn seeded(seed: u64, nodes: usize, rule_count: usize) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rules = Vec::with_capacity(rule_count);
        for _ in 0..rule_count {
            let kind = match rng.gen_range(0u32..4) {
                0 => FaultKind::Drop,
                1 => FaultKind::Delay(rng.gen_range(1u64..=400)),
                2 => FaultKind::Duplicate(rng.gen_range(1u64..=200)),
                _ => FaultKind::Reorder,
            };
            let from = rng.gen_range(0u64..20_000);
            rules.push(FaultRule {
                kind,
                from,
                to: from + rng.gen_range(5_000u64..=100_000),
                src: if rng.gen_bool(0.5) { Some(rng.gen_range(0..nodes.max(1))) } else { None },
                msg: Some(MsgKind::Broadcast),
                every: rng.gen_range(1u64..=4),
                max_fires: rng.gen_range(1u64..=16),
            });
        }
        let mut stalls = Vec::with_capacity(nodes);
        for node in 0..nodes {
            if rng.gen_bool(0.5) {
                stalls.push(StallRule {
                    node,
                    at: rng.gen_range(0u64..30_000),
                    cycles: rng.gen_range(1u64..=500),
                });
            }
        }
        FaultPlan { rules, stalls }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate plan (zero-period rule, empty window,
    /// zero-length stall).
    pub fn validate(&self) {
        for r in &self.rules {
            assert!(r.every >= 1, "fault rule period must be at least 1");
            assert!(r.from < r.to, "fault rule window must be non-empty");
        }
        for s in &self.stalls {
            assert!(s.cycles >= 1, "stall must last at least one cycle");
        }
    }
}

/// What the injector did, for reporting and for the `ds-chaos` matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Deliveries discarded.
    pub dropped: u64,
    /// Deliveries deferred by a delay rule.
    pub delayed: u64,
    /// Extra copies injected.
    pub duplicated: u64,
    /// Deliveries deferred past a later batch.
    pub reordered: u64,
}

/// Per-rule match bookkeeping.
#[derive(Debug, Clone)]
struct RuleState {
    rule: FaultRule,
    seen: u64,
    fired: u64,
}

/// A delivery waiting in the injector's release heap. Ordered by
/// `(release, seq)` so ties release in injection order — fully
/// deterministic.
#[derive(Debug, Clone)]
struct Deferred {
    release: Cycle,
    seq: u64,
    d: Delivery,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.release == other.release && self.seq == other.seq
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // release on top.
        (other.release, other.seq).cmp(&(self.release, self.seq))
    }
}

/// Applies a [`FaultPlan`]'s message rules to the fabric's delivery
/// stream. Sits after the interconnect model's `step_into`: the model
/// stays untouched and both bus and ring are faulted identically.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rules: Vec<RuleState>,
    /// Min-heap of delayed / duplicated deliveries keyed by release
    /// cycle.
    deferred: BinaryHeap<Deferred>,
    /// Reorder-deferred deliveries, released after the next batch.
    held: Vec<Delivery>,
    /// Cycle the oldest held delivery entered `held`.
    held_since: Cycle,
    seq: u64,
    stats: FaultStats,
    /// Reused staging buffer (keeps the hot loop allocation-free).
    scratch: Vec<Delivery>,
}

impl FaultInjector {
    /// Builds an injector for `plan`'s message rules (stall rules are
    /// applied by the nodes, not here).
    pub fn new(plan: &FaultPlan) -> Self {
        plan.validate();
        let mut rules = Vec::with_capacity(plan.rules.len());
        for r in &plan.rules {
            rules.push(RuleState { rule: *r, seen: 0, fired: 0 });
        }
        FaultInjector {
            rules,
            deferred: BinaryHeap::with_capacity(32),
            held: Vec::with_capacity(8),
            held_since: 0,
            seq: 0,
            stats: FaultStats::default(),
            scratch: Vec::with_capacity(8),
        }
    }

    /// Injection statistics so far.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The first rule that matches and fires for a delivery at `now`,
    /// if any; advances rule counters.
    fn fault_match(&mut self, now: Cycle, d: &Delivery) -> Option<FaultKind> {
        for rs in &mut self.rules {
            let r = &rs.rule;
            if now < r.from || now >= r.to {
                continue;
            }
            if let Some(src) = r.src {
                if d.msg.src != src {
                    continue;
                }
            }
            if let Some(kind) = r.msg {
                if d.msg.kind != kind {
                    continue;
                }
            }
            rs.seen += 1;
            if rs.fired < r.max_fires && rs.seen.is_multiple_of(r.every) {
                rs.fired += 1;
                return Some(r.kind);
            }
            // First matching rule claims the message even when it
            // declines to fire, so rule order is meaningful.
            return None;
        }
        None
    }

    /// Rewrites this cycle's delivery batch in place: releases due
    /// deferred deliveries, applies matching rules to fresh ones, and
    /// flushes reorder holds behind the batch. Allocation-free once the
    /// internal buffers have grown.
    pub fn inject_step(&mut self, now: Cycle, out: &mut Vec<Delivery>) {
        let mut fresh = std::mem::take(&mut self.scratch);
        fresh.clear();
        std::mem::swap(&mut fresh, out);
        // Due delayed/duplicated copies deliver first (they are older).
        while let Some(top) = self.deferred.peek() {
            if top.release > now {
                break;
            }
            // The peek above guarantees the pop succeeds.
            if let Some(def) = self.deferred.pop() {
                out.push(Delivery { at: now, ..def.d });
            }
        }
        for d in fresh.drain(..) {
            match self.fault_match(now, &d) {
                None => out.push(d),
                Some(FaultKind::Drop) => self.stats.dropped += 1,
                Some(FaultKind::Delay(k)) => {
                    self.stats.delayed += 1;
                    self.defer(now + k.max(1), d);
                }
                Some(FaultKind::Duplicate(k)) => {
                    self.stats.duplicated += 1;
                    self.defer(now + k.max(1), d);
                    out.push(d);
                }
                Some(FaultKind::Reorder) => {
                    self.stats.reordered += 1;
                    if self.held.is_empty() {
                        self.held_since = now;
                    }
                    self.held.push(d);
                }
            }
        }
        // Reorder holds release *behind* the next non-empty batch — a
        // later message has now overtaken them — or after the liveness
        // bound.
        if !self.held.is_empty() && (!out.is_empty() || now >= self.held_since + REORDER_HOLD_MAX)
        {
            for d in self.held.drain(..) {
                out.push(Delivery { at: now, ..d });
            }
        }
        self.scratch = fresh;
    }

    fn defer(&mut self, release: Cycle, d: Delivery) {
        self.deferred.push(Deferred { release, seq: self.seq, d });
        self.seq += 1;
    }

    /// Earliest future cycle (strictly after `now`) at which the
    /// injector itself can release a delivery; `Cycle::MAX` when it
    /// holds nothing. Folded into the fabric's event horizon so cycle
    /// skipping never jumps over a deferred release.
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let mut horizon = Cycle::MAX;
        if let Some(top) = self.deferred.peek() {
            horizon = top.release.max(now + 1);
        }
        if !self.held.is_empty() {
            // Held deliveries can release on any next batch; the
            // conservative horizon is the next cycle.
            horizon = horizon.min(now + 1);
        }
        horizon
    }

    /// True when no delivery is deferred or held.
    pub fn is_idle(&self) -> bool {
        self.deferred.is_empty() && self.held.is_empty()
    }

    /// Appends every deferred or held message to `out` (deadlock-report
    /// introspection).
    pub fn pending_into(&self, out: &mut Vec<crate::Message>) {
        for def in self.deferred.iter() {
            out.push(def.d.msg);
        }
        for d in &self.held {
            out.push(d.msg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;

    fn bcast(src: PortId, dest: PortId, seq: u64) -> Delivery {
        Delivery {
            dest,
            at: 0,
            msg: Message {
                src,
                dest: None,
                kind: MsgKind::Broadcast,
                line_addr: 0x1000 + seq * 0x40,
                payload_bytes: 32,
                seq,
                enqueued_at: 0,
            },
        }
    }

    fn plan_of(rule: FaultRule) -> FaultPlan {
        FaultPlan { rules: vec![rule], stalls: Vec::new() }
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        p.validate();
    }

    #[test]
    fn drop_rule_discards_matches() {
        let mut inj =
            FaultInjector::new(&plan_of(FaultRule::broadcasts(FaultKind::Drop, 2, u64::MAX)));
        let mut out = vec![bcast(0, 1, 0), bcast(0, 1, 1), bcast(0, 1, 2), bcast(0, 1, 3)];
        inj.inject_step(10, &mut out);
        assert_eq!(out.len(), 2, "every 2nd match dropped");
        assert_eq!(inj.stats().dropped, 2);
        assert!(inj.is_idle());
    }

    #[test]
    fn delay_rule_defers_and_releases() {
        let mut inj =
            FaultInjector::new(&plan_of(FaultRule::broadcasts(FaultKind::Delay(5), 1, 1)));
        let mut out = vec![bcast(0, 1, 0)];
        inj.inject_step(10, &mut out);
        assert!(out.is_empty(), "delivery deferred");
        assert!(!inj.is_idle());
        assert_eq!(inj.next_event(10), 15);
        inj.inject_step(14, &mut out);
        assert!(out.is_empty(), "not due yet");
        inj.inject_step(15, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, 15, "arrival restamped to the release cycle");
        assert!(inj.is_idle());
    }

    #[test]
    fn duplicate_rule_emits_now_and_later() {
        let mut inj =
            FaultInjector::new(&plan_of(FaultRule::broadcasts(FaultKind::Duplicate(3), 1, 1)));
        let mut out = vec![bcast(0, 1, 0)];
        inj.inject_step(0, &mut out);
        assert_eq!(out.len(), 1, "original passes through");
        out.clear();
        inj.inject_step(3, &mut out);
        assert_eq!(out.len(), 1, "copy released");
        assert_eq!(inj.stats().duplicated, 1);
    }

    #[test]
    fn reorder_releases_behind_the_next_batch() {
        let mut inj =
            FaultInjector::new(&plan_of(FaultRule::broadcasts(FaultKind::Reorder, 1, 1)));
        let mut out = vec![bcast(0, 1, 0)];
        inj.inject_step(0, &mut out);
        assert!(out.is_empty(), "held");
        out.push(bcast(1, 0, 1));
        inj.inject_step(5, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].msg.seq, 1, "later message overtakes");
        assert_eq!(out[1].msg.seq, 0, "held message released behind it");
    }

    #[test]
    fn reorder_hold_is_bounded_for_liveness() {
        let mut inj =
            FaultInjector::new(&plan_of(FaultRule::broadcasts(FaultKind::Reorder, 1, 1)));
        let mut out = vec![bcast(0, 1, 0)];
        inj.inject_step(0, &mut out);
        assert!(out.is_empty());
        inj.inject_step(REORDER_HOLD_MAX, &mut out);
        assert_eq!(out.len(), 1, "released at the liveness bound without a batch");
    }

    #[test]
    fn window_and_src_filters_apply() {
        let rule = FaultRule {
            kind: FaultKind::Drop,
            from: 100,
            to: 200,
            src: Some(1),
            msg: Some(MsgKind::Broadcast),
            every: 1,
            max_fires: u64::MAX,
        };
        let mut inj = FaultInjector::new(&plan_of(rule));
        let mut out = vec![bcast(1, 0, 0)];
        inj.inject_step(50, &mut out);
        assert_eq!(out.len(), 1, "outside the window");
        let mut out = vec![bcast(0, 1, 1)];
        inj.inject_step(150, &mut out);
        assert_eq!(out.len(), 1, "wrong source");
        let mut out = vec![bcast(1, 0, 2)];
        inj.inject_step(150, &mut out);
        assert!(out.is_empty(), "in-window match from port 1 dropped");
    }

    #[test]
    fn fire_budget_caps_a_rule() {
        let mut inj = FaultInjector::new(&plan_of(FaultRule::broadcasts(FaultKind::Drop, 1, 2)));
        let mut out = vec![bcast(0, 1, 0), bcast(0, 1, 1), bcast(0, 1, 2)];
        inj.inject_step(0, &mut out);
        assert_eq!(out.len(), 1, "budget of 2 exhausted");
        assert_eq!(inj.stats().dropped, 2);
    }

    #[test]
    fn seeded_plans_are_reproducible_and_bounded() {
        let a = FaultPlan::seeded(42, 4, 6);
        let b = FaultPlan::seeded(42, 4, 6);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(43, 4, 6), "different seed, different plan");
        a.validate();
        assert_eq!(a.rules.len(), 6);
        for r in &a.rules {
            assert!(r.max_fires <= 16, "seeded budgets stay finite");
        }
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn empty_window_rejected() {
        let rule = FaultRule { from: 10, to: 10, ..FaultRule::broadcasts(FaultKind::Drop, 1, 1) };
        plan_of(rule).validate();
    }
}
