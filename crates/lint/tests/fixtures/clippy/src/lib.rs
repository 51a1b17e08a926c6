//! One violation of each invariant clippy and rustc hold for the
//! simulation crates. Every item here must fail
//! `cargo clippy -- -D warnings`; none of them may ever be fixed.

// d1: hash-ordered containers.
pub fn d1_hash_map() -> std::collections::HashMap<u64, u64> {
    Default::default()
}

pub fn d1_hash_set() -> std::collections::HashSet<u64> {
    Default::default()
}

// d2: wall clock.
pub fn d2_instant_now() {
    let _ = std::time::Instant::now;
}

pub fn d2_system_time() -> Option<std::time::SystemTime> {
    None
}

// d2: host threading.
pub fn d2_mutex() -> Option<std::sync::Mutex<u64>> {
    None
}

pub fn d2_atomic() -> Option<std::sync::atomic::AtomicU64> {
    None
}

pub fn d2_thread_spawn() {
    let _ = std::thread::spawn(|| ());
}

// p1: panic paths.
pub fn p1_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn p1_expect(x: Option<u8>) -> u8 {
    x.expect("seeded")
}

pub fn p1_panic() {
    panic!("seeded");
}

pub fn p1_unreachable() {
    unreachable!("seeded");
}

pub fn p1_unsafe(x: &u8) -> u8 {
    unsafe { *(x as *const u8) }
}
