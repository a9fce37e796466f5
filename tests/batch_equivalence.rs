//! The batched serving path and the parallel grid must be *semantically
//! invisible*: for every platform, `serve_batch_into` (and the batched runner
//! built on it) produces metrics byte-identical to the per-access reference
//! loop, and the parallel grid matches a serial sweep cell for cell.

use hams::platforms::{
    run_grid, run_grid_serial, run_workload, run_workload_batched, run_workload_serial,
    BatchOutcome, BatchRequest, PlatformKind, ScaleProfile,
};
use hams::sim::Nanos;
use hams::workloads::{TraceGenerator, WorkloadSpec};

fn tiny() -> ScaleProfile {
    ScaleProfile {
        capacity_divisor: 4096,
        accesses: 1_200,
        seed: 23,
    }
}

#[test]
fn batched_runner_equals_serial_runner_for_every_platform() {
    let scale = tiny();
    for workload in ["rndRd", "update"] {
        let spec = WorkloadSpec::by_name(workload).unwrap();
        for kind in PlatformKind::all() {
            let mut serial = kind.build(&scale);
            let mut batched = kind.build(&scale);
            let s = run_workload_serial(serial.as_mut(), spec, &scale);
            let b = run_workload(batched.as_mut(), spec, &scale);
            assert_eq!(
                s,
                b,
                "{} on {workload}: batched metrics diverged from the per-access loop",
                kind.label()
            );
        }
    }
}

#[test]
fn serve_batch_outcomes_equal_the_access_loop_for_every_platform() {
    let scale = tiny();
    let spec = scale.scale_spec(WorkloadSpec::by_name("rndWr").unwrap());
    let batch: Vec<BatchRequest> = TraceGenerator::new(spec, scale.seed, 512)
        .map(|access| BatchRequest {
            access,
            compute: Nanos::from_nanos(access.compute_instructions % 50),
        })
        .collect();
    let start = Nanos::from_micros(2);

    for kind in PlatformKind::all() {
        let mut reference = kind.build(&scale);
        let mut expected = Vec::with_capacity(batch.len());
        let mut t = start;
        for request in &batch {
            let outcome = reference.access(&request.access, t + request.compute);
            t = outcome.finished_at;
            expected.push(outcome);
        }

        let mut batched = kind.build(&scale);
        let mut result = BatchOutcome::with_capacity(batch.len());
        batched.serve_batch_into(&batch, start, &mut result);
        assert_eq!(
            result.outcomes,
            expected,
            "{}: serve_batch_into outcomes diverged from the access loop",
            kind.label()
        );
        assert_eq!(result.finished_at(start), t);
        // Observable platform state must converge too, not just timings.
        assert_eq!(batched.hit_rate(), reference.hit_rate(), "{}", kind.label());
        assert_eq!(
            batched.memory_delay(),
            reference.memory_delay(),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn batch_size_is_metrically_invisible() {
    let scale = tiny();
    let spec = WorkloadSpec::by_name("seqWr").unwrap();
    for kind in [
        PlatformKind::HamsLE,
        PlatformKind::Mmap,
        PlatformKind::FlatFlashP,
    ] {
        let reference = {
            let mut p = kind.build(&scale);
            run_workload_batched(p.as_mut(), spec, &scale, 1)
        };
        for batch_size in [3, 32, 777, usize::MAX] {
            let mut p = kind.build(&scale);
            let m = run_workload_batched(p.as_mut(), spec, &scale, batch_size);
            assert_eq!(reference, m, "{} at batch size {batch_size}", kind.label());
        }
    }
}

#[test]
fn parallel_grid_equals_serial_grid_over_the_table_iii_cells() {
    let scale = tiny();
    let kinds = PlatformKind::all();
    let specs: Vec<WorkloadSpec> = ["rndRd", "rndWr", "rndSel"]
        .iter()
        .map(|n| WorkloadSpec::by_name(n).unwrap())
        .collect();
    let parallel = run_grid(&kinds, &specs, &scale);
    let serial = run_grid_serial(&kinds, &specs, &scale);
    assert_eq!(parallel.len(), kinds.len() * specs.len());
    assert_eq!(
        parallel, serial,
        "parallel grid diverged from the serial sweep"
    );
}
