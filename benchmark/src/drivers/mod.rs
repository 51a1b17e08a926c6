//! Layer drivers: each calls one layer's public functions directly, on
//! inputs derived from the workload, and reports host ns per
//! operation.
//!
//! Every `ns_*` number is the fast-fifth mean over at least
//! [`MIN_BATCHES`] timed batches, one span per batch. The numbers
//! estimate what a layer costs *in isolation* (warm caches, no
//! neighbours); the `share.*` composition built from them is labelled
//! an estimate for that reason.

pub mod cpu;
pub mod front;
pub mod mem;
pub mod net;
pub mod obs;
pub mod protocol;

use crate::sim::Reference;
use crate::spans::Tracer;
use crate::spec::{Kind, WorkloadSpec};
use crate::stats::fast_fifth_mean;
use ds_asm::Program;
use ds_cpu::{ExecRecord, FuncCore};
use ds_mem::{MemImage, PageTable, PageTableBuilder, Segment};

/// Timed batches per driver.
pub const MIN_BATCHES: usize = 20;

/// Instructions per `OooCore` batch; `MIN_BATCHES` of these are kept
/// as full `ExecRecord`s.
pub const OOO_WINDOW: usize = 16_384;

/// One data reference of the workload's committed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Effective address.
    pub addr: u64,
    /// Store (else load).
    pub store: bool,
}

/// What the drivers derive their inputs from.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The workload.
    pub spec: &'a WorkloadSpec,
    /// Its simulated facts (rates and mixes the synthetic streams
    /// follow).
    pub reference: &'a Reference,
    /// Its program.
    pub program: Program,
    /// The first `batches * OOO_WINDOW` committed instructions.
    pub records: Vec<ExecRecord>,
    /// Every load and store among the first `max_insts` committed
    /// instructions, in order.
    pub refs: Vec<MemRef>,
    /// The page table `DsSystem::new` builds for this machine.
    pub page_table: PageTable,
    /// Node count.
    pub nodes: usize,
    /// `--seed`.
    pub seed: u64,
    /// Timed batches per driver.
    pub batches: usize,
}

impl<'a> Ctx<'a> {
    /// Collects the reference stream once, from `FuncCore::step`
    /// `ExecRecord`s. `None` for the sweep, which has no single
    /// program.
    pub fn collect(
        spec: &'a WorkloadSpec,
        reference: &'a Reference,
        seed: u64,
        batches: usize,
    ) -> Option<Self> {
        let Kind::Sim {
            kernel,
            scale,
            nodes,
            max_insts,
            ..
        } = spec.kind
        else {
            return None;
        };
        let program = (ds_workloads::by_name(kernel)?.build)(scale);
        let mut image = MemImage::new();
        program.load(&mut image);
        let mut cpu = FuncCore::with_stack(program.entry, program.stack_top);
        let keep = batches * OOO_WINDOW;
        let mut records = Vec::with_capacity(keep.min(max_insts as usize));
        let mut refs = Vec::new();
        for _ in 0..max_insts {
            let Ok(Some(rec)) = cpu.step(&mut image) else {
                break;
            };
            if records.len() < keep {
                records.push(rec);
            }
            if rec.is_load() || rec.is_store() {
                refs.push(MemRef {
                    addr: rec.mem_addr,
                    store: rec.is_store(),
                });
            }
        }
        // The same construction as `DsSystem::new` under the default
        // `DsConfig` (text replicated, one-page round-robin blocks).
        let config = spec.config(None, false)?;
        let mut ptb = PageTableBuilder::new(config.page_bytes, nodes);
        for (start, end, seg) in program.regions() {
            ptb.add_region(start, end, seg);
        }
        ptb.replicate_segment(Segment::Text);
        ptb.distribute_round_robin(config.dist_block_pages);
        Some(Ctx {
            spec,
            reference,
            program,
            records,
            refs,
            page_table: ptb.build(),
            nodes,
            seed,
            batches,
        })
    }
}

/// Runs `batches` timed batches: `prepare` (untimed) builds a batch's
/// state, `work` (timed, one span named `name`) returns how many
/// operations it did. Returns ns per operation, fast-fifth mean.
pub fn time_batches<S>(
    tracer: &mut Tracer,
    name: &str,
    batches: usize,
    mut prepare: impl FnMut(usize) -> S,
    mut work: impl FnMut(&mut S) -> u64,
) -> f64 {
    let mut ns_per_op = Vec::with_capacity(batches);
    for i in 0..batches {
        let mut state = prepare(i);
        tracer.set_rep(i as u64);
        let id = tracer.begin(name);
        let ops = work(&mut state);
        let secs = tracer.end(id);
        tracer.count(id, "ops", ops as f64);
        if ops > 0 {
            ns_per_op.push(secs * 1e9 / ops as f64);
        }
    }
    fast_fifth_mean(&ns_per_op)
}

/// Runs every driver that applies to the workload; returns
/// `(metric name, value)` pairs. Metrics of drivers that do not apply
/// are absent (the ledger reports them as 0).
pub fn run_all(ctx: &Ctx<'_>, tracer: &mut Tracer) -> Vec<(String, f64)> {
    let root = tracer.begin("drivers");
    let mut out = Vec::new();
    front::run(ctx, tracer, &mut out);
    cpu::run(ctx, tracer, &mut out);
    mem::run(ctx, tracer, &mut out);
    net::run(ctx, tracer, &mut out);
    protocol::run(ctx, tracer, &mut out);
    if ctx.spec.obs {
        obs::run(ctx, tracer, &mut out);
    }
    tracer.end(root);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sim::{tests::tiny, Runner};
    use ds_net::FabricKind;

    /// Runs `f` on a tiny collected context.
    pub(crate) fn with_ctx(
        kernel: &'static str,
        nodes: usize,
        fabric: FabricKind,
        f: impl FnOnce(&Ctx<'_>, &mut Tracer),
    ) {
        let spec = tiny(kernel, nodes, fabric);
        let runner = Runner::new(&spec).expect("warm-up");
        let ctx = Ctx::collect(&spec, &runner.reference, 1, 1).expect("Sim workloads collect");
        f(&ctx, &mut Tracer::new("tiny"));
    }

    #[test]
    fn collection_keeps_the_committed_prefix_and_its_references() {
        with_ctx("compress", 2, FabricKind::Bus, |ctx, _| {
            assert_eq!(
                ctx.records.len(),
                8_000,
                "max_insts is below one OoO window"
            );
            assert!(ctx
                .records
                .iter()
                .enumerate()
                .all(|(i, r)| r.icount == i as u64));
            let mem_ops = ctx
                .records
                .iter()
                .filter(|r| r.is_load() || r.is_store())
                .count();
            assert_eq!(ctx.refs.len(), mem_ops);
            assert!(ctx.refs.iter().any(|r| r.store) && ctx.refs.iter().any(|r| !r.store));
            assert_eq!(ctx.page_table.nodes(), 2);
        });
    }

    #[test]
    fn every_driver_reports_for_one_tiny_batch() {
        let spec = WorkloadSpec {
            obs: true,
            ..tiny("compress", 2, FabricKind::Bus)
        };
        let runner = Runner::new(&spec).expect("warm-up");
        let ctx = Ctx::collect(&spec, &runner.reference, 1, 1).expect("collect");
        let mut tracer = Tracer::new("tiny");
        let out = run_all(&ctx, &mut tracer);
        let names: Vec<&str> = out.iter().map(|(k, _)| k.as_str()).collect();
        for want in [
            "asm.build_s",
            "isa.decode_ns",
            "cpu.func.ns_per_inst",
            "cpu.trace.ns_per_inst",
            "cpu.ooo.ns_per_inst",
            "cpu.ooo.ns_per_cycle",
            "cpu.ooo.next_event_ns",
            "mem.cache.ns_per_access",
            "mem.cache.hit_ratio",
            "mem.bank.ns_per_access",
            "mem.image.ns_per_rw",
            "mem.page.ns_per_lookup",
            "net.bus.ns_per_step",
            "net.bus.ns_per_msg",
            "net.next_event_ns",
            "core.bshr.ns_per_op",
            "core.dcub.ns_per_op",
            "core.linemap.ns_per_op",
            "obs.record_ns",
            "obs.charge_ns",
            "obs.charge_pc_ns",
            "obs.edge_ns",
            "obs.sample_ns",
        ] {
            assert!(names.contains(&want), "{want} missing from {names:?}");
        }
        assert!(
            !names.iter().any(|k| k.starts_with("net.ring")),
            "ring numbers only on the ring"
        );
        assert!(
            out.iter()
                .all(|(k, v)| v.is_finite() && *v > 0.0 || k == "mem.cache.hit_ratio"),
            "{out:?}"
        );
        let catalog: Vec<String> = crate::spec::per_layer()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert!(
            names.iter().all(|k| catalog.contains(&k.to_string())),
            "drivers only report catalogued names"
        );
        let spans = tracer.spans();
        assert!(spans
            .iter()
            .filter(|s| s.name.starts_with("driver."))
            .all(|s| s.parent == Some(0)));
        assert!(
            spans
                .iter()
                .filter(|s| s.name.starts_with("driver."))
                .count()
                >= out.len() - 4
        );
    }
}
