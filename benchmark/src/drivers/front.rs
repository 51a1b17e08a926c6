//! `ds-asm` / `ds-isa`: program construction and decode. Both feed
//! `setup_s`; neither should move `insts_per_s`.

use super::{time_batches, Ctx};
use crate::spans::Tracer;
use crate::spec::Kind;
use ds_isa::Inst;
use std::hint::black_box;

/// `asm.build_s` (seconds per `Workload.build`) and `isa.decode_ns`
/// (`Inst::decode` over the text words).
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, out: &mut Vec<(String, f64)>) {
    let Kind::Sim { kernel, scale, .. } = ctx.spec.kind else {
        return;
    };
    let build = ds_workloads::by_name(kernel)
        .expect("collected from this kernel")
        .build;
    let build_ns = time_batches(
        tracer,
        "driver.asm.build",
        ctx.batches,
        |_| (),
        |()| {
            black_box(build(scale));
            1
        },
    );
    out.push(("asm.build_s".to_string(), build_ns * 1e-9));

    let words: Vec<u64> = ctx.program.text.iter().map(|i| i.encode()).collect();
    let passes = (50_000 / words.len().max(1)).max(1);
    let decode_ns = time_batches(
        tracer,
        "driver.isa.decode",
        ctx.batches,
        |_| (),
        |()| {
            for _ in 0..passes {
                for &w in &words {
                    black_box(Inst::decode(black_box(w)).is_ok());
                }
            }
            (passes * words.len()) as u64
        },
    );
    out.push(("isa.decode_ns".to_string(), decode_ns));
}
