//! Compile a DSC program (the workspace's small C-like language) and
//! run it on the DataScalar machine.
//!
//! ```sh
//! cargo run --release --example compile_and_run              # built-in demo
//! cargo run --release --example compile_and_run -- prog.dsc  # your program
//! ```

use datascalar::compile;
use datascalar::core_model::{DsConfig, DsSystem, TraditionalConfig, TraditionalSystem};

/// A histogram-equalisation-flavoured demo: bucket counts over
/// pseudo-random data, then a prefix sum — array-heavy, branchy, and
/// entirely written in DSC.
const DEMO: &str = r#"
    int data[4096];
    int hist[64];

    int lcg(int seed) {
        return (seed * 1103515245 + 12345) & 1073741823;
    }

    int main() {
        // Generate input.
        int s; s = 42;
        for (int i = 0; i < 4096; i = i + 1) {
            s = lcg(s);
            data[i] = s % 64;
        }
        // Histogram.
        for (int i = 0; i < 4096; i = i + 1) {
            hist[data[i]] = hist[data[i]] + 1;
        }
        // Prefix sum; return the median bucket's cumulative count.
        int acc; int median;
        for (int b = 0; b < 64; b = b + 1) {
            acc = acc + hist[b];
            if (acc >= 2048 && median == 0) { median = b; }
        }
        return median * 100000 + acc;
    }
"#;

fn main() {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }),
        None => DEMO.to_string(),
    };
    let program = compile(&source).unwrap_or_else(|e| {
        eprintln!("compile error: {e}");
        std::process::exit(1);
    });
    println!(
        "compiled to {} DS-1 instructions, {} data bytes",
        program.text.len(),
        program.data.len()
    );

    let mut ds = DsSystem::new(DsConfig::with_nodes(2), &program);
    let ds_r = ds.run().expect("runs");
    let result = ds.mem().read_u64(program.symbol("result").expect("result"));
    println!("main() returned    : {result}");
    println!(
        "DataScalar x2      : {:.2} IPC, {} cycles, {} broadcasts",
        ds_r.ipc(),
        ds_r.cycles,
        ds_r.bus.broadcasts
    );

    let config = TraditionalConfig::with_onchip_share(2);
    let mut trad = TraditionalSystem::new(&config, &program);
    let trad_r = trad.run().expect("runs");
    println!("traditional (1/2)  : {:.2} IPC, {} cycles", trad_r.ipc(), trad_r.cycles);
    println!("speedup            : {:.2}x", ds_r.ipc() / trad_r.ipc());
}
