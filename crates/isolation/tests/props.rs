//! Property-based tests on the quarantine state machine and CSR model.

use mercurial_fault::CoreUid;
use mercurial_isolation::csr::Task;
use mercurial_isolation::{CoreState, CsrSimulator, QuarantineRegistry};
use mercurial_trace::{EventKind, Recorder, TraceFlags};
use proptest::prelude::*;

/// The operations a fuzzer can throw at the registry.
#[derive(Debug, Clone, Copy)]
enum Op {
    Suspect,
    Quarantine,
    Confirm,
    Exonerate,
    Restore,
    Retire,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Suspect),
        Just(Op::Quarantine),
        Just(Op::Confirm),
        Just(Op::Exonerate),
        Just(Op::Restore),
        Just(Op::Retire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under arbitrary operation sequences the registry never reaches an
    /// inconsistent state: history length equals accepted transitions,
    /// retired cores never leave Retired, and schedulability matches the
    /// state exactly. Telemetry follows the accepted transitions: each
    /// one emits exactly one `core.*` instant, named after the target
    /// state, for the core at its hour; a rejected one emits nothing; and
    /// the `core.transitions` counter equals the accepted count.
    #[test]
    fn quarantine_state_machine_is_sound(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let core = CoreUid::new(1, 0, 0);
        let mut reg = QuarantineRegistry::new();
        let mut rec = Recorder::with_flags(TraceFlags::enabled());
        let mut accepted = 0usize;
        let mut was_retired = false;
        for (i, op) in ops.iter().enumerate() {
            let hour = i as f64;
            let (to, event) = match op {
                Op::Suspect => (CoreState::Suspect, "core.suspect"),
                Op::Quarantine => (CoreState::Quarantined, "core.quarantine"),
                Op::Confirm => (CoreState::Confirmed, "core.confirm"),
                Op::Exonerate => (CoreState::Exonerated, "core.exonerate"),
                Op::Restore => (CoreState::Healthy, "core.restore"),
                Op::Retire => (CoreState::Retired, "core.retire"),
            };
            let result = reg.transition(core, to, hour, "fuzz", &mut rec);
            let events = rec.take_events();
            if result.is_ok() {
                accepted += 1;
                prop_assert_eq!(events.len(), 1, "an accepted transition emits one instant");
                let e = &events[0];
                prop_assert_eq!(e.kind, EventKind::Instant);
                prop_assert_eq!(e.name, event);
                prop_assert_eq!(e.core, Some(core.as_u64()));
                prop_assert_eq!(e.hour, hour);
            } else {
                prop_assert!(events.is_empty(), "a rejected transition emits nothing");
            }
            if was_retired {
                prop_assert!(result.is_err(), "nothing is legal after Retired");
            }
            if reg.state(core) == CoreState::Retired {
                was_retired = true;
            }
            // Schedulability is exactly Healthy-or-Suspect.
            prop_assert_eq!(
                reg.is_schedulable(core),
                matches!(reg.state(core), CoreState::Healthy | CoreState::Suspect)
            );
        }
        prop_assert_eq!(reg.history(core).len(), accepted);
        prop_assert_eq!(
            rec.metrics().expect("enabled recorder").counter("core.transitions"),
            accepted as u64
        );
        // The audit trail is contiguous: each transition starts where the
        // previous ended.
        for w in reg.history(core).windows(2) {
            prop_assert_eq!(w[0].to, w[1].from);
        }
    }

    /// CSR conserves tasks: whatever mix of spawns and removals, no
    /// unpinned task is ever lost, and IRQs never point at dead cores.
    #[test]
    fn csr_conserves_tasks(
        cores in 2u16..8,
        spawns in proptest::collection::vec(any::<bool>(), 1..40),
        remove_count in 1u16..4,
    ) {
        let mut os = CsrSimulator::new(0, 0, cores, 2 * cores as u32);
        let mut pinned_spawned = 0usize;
        let mut unpinned_spawned = 0usize;
        for (i, &pin) in spawns.iter().enumerate() {
            let task = if pin {
                Task::pinned(i as u64, (i as u16) % cores)
            } else {
                Task::unpinned(i as u64)
            };
            if os.spawn(task).is_some() {
                if pin {
                    pinned_spawned += 1;
                } else {
                    unpinned_spawned += 1;
                }
            }
        }
        let mut killed_total = 0usize;
        let removals = remove_count.min(cores - 1);
        for c in 0..removals {
            let outcome = os.remove_core(c);
            killed_total += outcome.killed.len();
            prop_assert!(os.irqs_consistent());
        }
        // Unpinned tasks survive every removal; only pinned ones can die.
        prop_assert!(killed_total <= pinned_spawned);
        prop_assert_eq!(
            os.total_tasks(),
            pinned_spawned + unpinned_spawned - killed_total
        );
    }
}
