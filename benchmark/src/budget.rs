//! The per-invocation budget: where a replayed invocation's host time
//! goes, layer by layer, as far as measuring from outside can tell.
//!
//! Each row is `kernel ns × counted operations per invocation`. Kernels of
//! upper layers contain the simcore work they cause (a warm invoke sleeps,
//! records and charges), so a kernel enters its own layer's row at its
//! **self cost**: its time minus the primitives it performs, priced at the
//! primitive kernels. All simcore primitives, whoever caused them, land in
//! the simcore row, counted by the engine itself during the replay. What
//! the rows do not cover — async state machines, cache misses at 12 000
//! functions, allocator traffic — is `budget.unattributed_pct`. The
//! formulas are repeated in the README.

use crate::kernels::{KernelReport, Prims};
use crate::metric::{Kind, Metric};
use crate::workloads::ReplayCounts;

/// Layers with a budget row, in order.
pub const LAYERS: [&str; 8] = [
    "trace",
    "simcore",
    "faas",
    "net",
    "payload",
    "pricing",
    "gateway",
    "resilience",
];

/// Names and units of every `budget.*` metric, in output order.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|layer| (format!("budget.{layer}_ns_per_inv"), "ns/inv"))
        .collect();
    out.push(("budget.unattributed_pct".to_owned(), "%"));
    out
}

/// All-zero rows, for workloads that replay nothing.
pub fn not_applicable() -> Vec<Metric> {
    names()
        .into_iter()
        .map(|(name, unit)| Metric::new(name, 0.0, unit, Kind::Derived))
        .collect()
}

/// The budget of one replay: `measured_ns_per_inv` is its untraced host
/// time per invocation.
pub fn replay(c: &ReplayCounts, k: &KernelReport, measured_ns_per_inv: f64) -> Vec<Metric> {
    let inv = c.invocations.max(1) as f64;
    let attempts = c.attempts as f64 / inv;
    let cold = c.cold_starts as f64 / c.attempts.max(1) as f64;
    let offered = c.gw_offered as f64 / inv;
    let admitted = c.gw_admitted as f64 / inv;

    // What one of each simcore primitive costs.
    let fire = k.value("simcore.sleep_ns");
    let cancel = (k.value("simcore.timeout_cancel_ns") - fire).max(0.0);
    let spawn = k.value("simcore.spawn_ns");
    let sample = k.value("simcore.recorder_record_ns");
    let sem = k.value("simcore.sem_acquire_ns");
    let charge = k.value("pricing.charge_id_ns");
    let prims_cost =
        |p: Prims| p.fires * fire + p.cancels * cancel + p.spawns * spawn + p.samples * sample;
    let self_cost = |kernel: &str| (k.value(kernel) - prims_cost(k.prims(kernel))).max(0.0);

    let trace = k.value("trace.gen_ns_per_event") + 2.0 * k.value("trace.sketch_insert_ns");

    let link_self = self_cost("simcore.link_transfer_ns_lo");
    let engine = Prims {
        fires: c.engine.timer_fires as f64 / inv,
        cancels: c.engine.timer_cancels as f64 / inv,
        spawns: c.engine.tasks_spawned as f64 / inv,
        samples: c.recorder_samples as f64 / inv,
    };
    let digest = k.value("simcore.recorder_digest_ms") * 1e6 * c.recorder_samples as f64
        / k.digest_samples.max(1) as f64
        / inv;
    // One in-flight permit per invocation, one account-concurrency permit
    // per attempt, one NIC transfer per attempt.
    let simcore = prims_cost(engine) + (1.0 + attempts) * sem + attempts * link_self + digest;

    // A platform invoke charges twice and takes the account permit; both
    // are priced in other rows.
    let invoke_self = |kernel: &str| (self_cost(kernel) - 2.0 * charge - sem).max(0.0);
    let faas = attempts
        * ((1.0 - cold) * invoke_self("faas.warm_invoke_ns")
            + cold * invoke_self("faas.cold_invoke_ns"))
        + k.value("faas.register_ns") * c.functions as f64 / inv
        + k.value("faas.reap_idle_us") * 1e3 * c.reaps as f64 / inv;

    let net = attempts
        * (k.value("net.nic_transfer_ns") - k.value("simcore.link_transfer_ns_lo")).max(0.0);
    let payload = k.value("payload.synthetic_new_ns");
    let pricing = (2.0 * attempts + offered) * charge + k.value("pricing.report_us") * 1e3 / inv;

    // An admitted request pays the whole `Gateway::invoke` wrapper (its
    // one charge is in the pricing row); a shed one pays admission only.
    let gateway = admitted * (self_cost("gateway.invoke_overhead_ns") - charge).max(0.0)
        + (offered - admitted) * k.value("gateway.admit_ns");

    // Every request makes one final client attempt; the ones before it
    // failed and backed off.
    let client_attempts = if c.gw_offered > 0 { offered } else { attempts };
    let resilience = if c.retrying {
        self_cost("resilience.retry_ok_overhead_ns")
            + (client_attempts - 1.0).max(0.0) * self_cost("resilience.retry_failed_attempt_ns")
    } else {
        0.0
    };

    let rows = [
        trace, simcore, faas, net, payload, pricing, gateway, resilience,
    ];
    let attributed: f64 = rows.iter().sum();
    let mut values = rows.to_vec();
    values.push((1.0 - attributed / measured_ns_per_inv) * 100.0);
    names()
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| Metric::new(name, value, unit, Kind::Derived))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasim::simcore::SimProfile;

    fn kernels() -> KernelReport {
        let mut k = KernelReport {
            digest_samples: 1_000,
            ..KernelReport::default()
        };
        for (name, value) in [
            ("simcore.sleep_ns", 100.0),
            ("simcore.timeout_cancel_ns", 150.0),
            ("simcore.spawn_ns", 50.0),
            ("simcore.recorder_record_ns", 10.0),
            ("simcore.sem_acquire_ns", 20.0),
            ("simcore.recorder_digest_ms", 0.001),
            ("simcore.link_transfer_ns_lo", 400.0),
            ("net.nic_transfer_ns", 430.0),
            ("pricing.charge_id_ns", 5.0),
            ("pricing.report_us", 1.0),
            ("trace.gen_ns_per_event", 200.0),
            ("trace.sketch_insert_ns", 10.0),
            ("payload.synthetic_new_ns", 15.0),
            ("faas.warm_invoke_ns", 1_000.0),
            ("faas.cold_invoke_ns", 3_000.0),
            ("faas.register_ns", 500.0),
            ("faas.reap_idle_us", 100.0),
            ("gateway.admit_ns", 30.0),
            ("gateway.invoke_overhead_ns", 300.0),
            ("resilience.retry_ok_overhead_ns", 40.0),
            ("resilience.retry_failed_attempt_ns", 260.0),
        ] {
            k.metrics.push(Metric::new(name, value, "ns", Kind::Kernel));
        }
        let one_timer = Prims {
            fires: 1.0,
            ..Prims::default()
        };
        k.prims = vec![
            (
                "simcore.link_transfer_ns_lo",
                Prims {
                    fires: 2.0,
                    ..Prims::default()
                },
            ),
            (
                "faas.warm_invoke_ns",
                Prims {
                    fires: 1.0,
                    cancels: 1.0,
                    spawns: 0.0,
                    samples: 2.0,
                },
            ),
            (
                "faas.cold_invoke_ns",
                Prims {
                    fires: 2.0,
                    cancels: 1.0,
                    spawns: 0.0,
                    samples: 2.0,
                },
            ),
            ("gateway.invoke_overhead_ns", one_timer),
            ("resilience.retry_ok_overhead_ns", Prims::default()),
            ("resilience.retry_failed_attempt_ns", one_timer),
        ];
        k
    }

    fn counts() -> ReplayCounts {
        ReplayCounts {
            invocations: 1_000,
            attempts: 1_000,
            cold_starts: 100,
            engine: SimProfile {
                timer_fires: 4_000,
                timer_cancels: 1_000,
                tasks_spawned: 1_000,
                ..SimProfile::default()
            },
            recorder_samples: 2_000,
            functions: 100,
            reaps: 2,
            ..ReplayCounts::default()
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn row(rows: &[Metric], layer: &str) -> f64 {
        rows.iter()
            .find(|m| m.name == format!("budget.{layer}_ns_per_inv"))
            .unwrap()
            .value
    }

    #[test]
    fn direct_replay_has_no_front_door_rows_and_the_rest_add_up() {
        let rows = replay(&counts(), &kernels(), 2_000.0);
        assert_eq!(rows.len(), LAYERS.len() + 1);
        assert_eq!(row(&rows, "gateway"), 0.0);
        assert_eq!(row(&rows, "resilience"), 0.0);
        assert_eq!(row(&rows, "trace"), 220.0);
        // 4 fires + 1 cancel + 1 spawn + 2 samples, 2 permits, the link's
        // self cost (400 - 2 fires), the digest share (2 ns).
        assert!(close(
            row(&rows, "simcore"),
            400.0 + 50.0 + 50.0 + 20.0 + 40.0 + 200.0 + 2.0
        ));
        // warm self 1000-100-50-20 = 830, less 2 charges and a permit = 800;
        // cold self 3000-200-50-20 = 2730 -> 2700; plus register and reaps.
        assert!(close(
            row(&rows, "faas"),
            0.9 * 800.0 + 0.1 * 2_700.0 + 50.0 + 200.0
        ));
        assert!(close(row(&rows, "net"), 30.0));
        assert!(close(row(&rows, "payload"), 15.0));
        assert!(close(row(&rows, "pricing"), 10.0 + 1.0));
        let attributed: f64 = LAYERS.iter().map(|l| row(&rows, l)).sum();
        let unattributed = rows.last().unwrap();
        assert_eq!(unattributed.name, "budget.unattributed_pct");
        assert!(close(
            unattributed.value,
            (1.0 - attributed / 2_000.0) * 100.0
        ));
    }

    #[test]
    fn front_door_rows_follow_offered_admitted_and_retries() {
        let c = ReplayCounts {
            gw_offered: 1_200,
            gw_admitted: 1_100,
            attempts: 1_100,
            retrying: true,
            ..counts()
        };
        let rows = replay(&c, &kernels(), 5_000.0);
        // admitted 1.1 x (300 - 100 fire - 5 charge) + shed 0.1 x 30
        assert!(close(row(&rows, "gateway"), 1.1 * 195.0 + 0.1 * 30.0));
        // one ok wrapper + 0.2 failed client attempts x (260 - 100)
        assert!(close(row(&rows, "resilience"), 40.0 + 0.2 * 160.0));
        assert!(close(row(&rows, "pricing"), (2.2 + 1.2) * 5.0 + 1.0));
    }

    #[test]
    fn not_applicable_is_all_zero_with_the_same_names() {
        let rows = not_applicable();
        assert!(rows.iter().all(|m| m.value == 0.0));
        let same: Vec<String> = replay(&counts(), &kernels(), 1.0)
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(rows.into_iter().map(|m| m.name).collect::<Vec<_>>(), same);
    }
}
