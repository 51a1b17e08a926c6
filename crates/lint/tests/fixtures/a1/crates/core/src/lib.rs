//! a1 fixture: an allocation hidden two calls below a cycle-loop
//! root. No file-scope scan can see it; the call-graph rule must, and
//! the diagnostic must carry the full chain.

pub struct Node {
    scratch: Vec<u8>,
}

impl Node {
    pub fn step_node(&mut self, now: u64) {
        self.refill(now);
    }

    fn refill(&mut self, now: u64) {
        self.scratch.clear();
        deep_helper(now);
    }
}

// SEEDED VIOLATION (a1): allocates, and is reachable from
// Node::step_node via Node::refill.
fn deep_helper(now: u64) -> usize {
    let v = vec![now; 4];
    v.len()
}

// Allowed twin: same shape, suppressed at the site — must NOT fire.
fn allowed_helper(now: u64) -> usize {
    // ds-lint: allow(a1) fixture: documented amortized growth
    let v = vec![now; 4];
    v.len()
}

pub fn tickle(now: u64) -> usize {
    allowed_helper(now)
}

pub fn tick_all(now: u64) -> usize {
    tickle(now)
}

// The critical-path analyzer's per-retirement family: `edge*` names
// root the cycle path like `step*`/`record*` do.
pub struct Win {
    pcs: [u64; 4],
    len: usize,
}

impl Win {
    pub fn edge_retire(&mut self, pc: u64) {
        self.pcs[self.len % 4] = pc;
        self.len += 1;
        retire_scratch(pc);
    }
}

// SEEDED VIOLATION (a1): allocates, and is reachable from the
// `edge*` root Win::edge_retire.
fn retire_scratch(pc: u64) -> usize {
    let v = vec![pc; 2];
    v.len()
}

// The ds-chaos family: `inject*`/`fault*`/`watchdog*` names root the
// cycle path — the injector's delivery rewrite runs at every fabric
// delivery of a faulted run.
pub struct Injector {
    held: [u64; 4],
    len: usize,
}

impl Injector {
    pub fn inject_step(&mut self, now: u64) {
        self.held[self.len % 4] = now;
        self.len += 1;
        held_scratch(now);
    }
}

// SEEDED VIOLATION (a1): allocates, and is reachable from the
// `inject*` root Injector::inject_step.
fn held_scratch(now: u64) -> usize {
    let v = vec![now; 2];
    v.len()
}
