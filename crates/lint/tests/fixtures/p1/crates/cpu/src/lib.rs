//! p1 fixture: a panic path below an `advance_to*` root —
//! the event-horizon engine's entry point family.

pub struct Core {
    slots: [Option<u8>; 4],
}

impl Core {
    pub fn advance_to(&mut self, cycle: u64) {
        self.retire(cycle);
    }

    // SEEDED VIOLATION (p1): `.unwrap()` reachable from
    // Core::advance_to via Core::retire.
    fn retire(&mut self, cycle: u64) -> u8 {
        self.slot(cycle).unwrap()
    }

    fn slot(&self, cycle: u64) -> Option<u8> {
        self.slots[(cycle % 4) as usize]
    }
}

/// The critical-path analyzer's recording family: `edge*` names root
/// the cycle path too.
pub fn edge_note(core: &Core, cycle: u64) -> u8 {
    last_arrival(core, cycle)
}

// SEEDED VIOLATION (p1): `.unwrap()` reachable from the `edge*` root
// edge_note via last_arrival.
fn last_arrival(core: &Core, cycle: u64) -> u8 {
    core.slot(cycle).unwrap()
}

/// The ds-chaos family: `watchdog*` names root the cycle path — the
/// forward-progress check runs every cycle of a faulted run.
pub fn watchdog_check(core: &Core, cycle: u64) -> u8 {
    stuck_probe(core, cycle)
}

// SEEDED VIOLATION (p1): `.unwrap()` reachable from the `watchdog*`
// root watchdog_check via stuck_probe.
fn stuck_probe(core: &Core, cycle: u64) -> u8 {
    core.slot(cycle).unwrap()
}
