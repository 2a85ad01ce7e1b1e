//! Integration tests spanning crates: end-to-end workflows that exercise
//! the FaaS platform together with storage, queues, the network, and
//! billing — the compositions the paper's §2 catalogs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use faasim::faas::{add_queue_trigger, decode_batch, FnError, FunctionSpec};
use faasim::kv::Consistency;
use faasim::payload::Payload;
use faasim::pricing::Service;
use faasim::queue::QueueConfig;
use faasim::simcore::{join_all, SimDuration};
use faasim::{Cloud, CloudProfile};

fn cloud() -> Cloud {
    Cloud::new(CloudProfile::aws_2018().exact(), 123)
}

#[test]
fn blob_event_to_function_to_queue_pipeline() {
    // upload -> function -> queue, the §2 composition pattern, with every
    // hop billed: the uploader invokes the function once per object.
    let c = cloud();
    c.blob.create_bucket("in");
    c.queue.create_queue("out", QueueConfig::default());
    let blob = c.blob.clone();
    let queue = c.queue.clone();
    c.faas.register(FunctionSpec::new(
        "fan",
        512,
        SimDuration::from_secs(60),
        move |ctx, key| {
            let blob = blob.clone();
            let queue = queue.clone();
            async move {
                let key = String::from_utf8_lossy(&key.to_vec()).to_string();
                let body = blob.get(ctx.host(), "in", &key).await.expect("object");
                queue
                    .send(ctx.host(), "out", body)
                    .await
                    .expect("out queue");
                Ok(Payload::new())
            }
        },
    ));

    let host = c.client_host();
    let blob = c.blob.clone();
    let faas = c.faas.clone();
    c.sim.spawn(async move {
        let uploads = (0..10u8).map(|i| {
            let (host, blob, faas) = (host.clone(), blob.clone(), faas.clone());
            async move {
                let key = format!("doc-{i}");
                blob.put(&host, "in", &key, Payload::from(vec![i; 100]))
                    .await
                    .unwrap();
                faas.invoke("fan", key.into_bytes()).await.result.unwrap();
            }
        });
        join_all(uploads.collect()).await;
    });
    c.sim.run();
    assert_eq!(c.queue.queue_len("out"), 10);
    assert_eq!(c.recorder.counter("faas.invoke.cold") + c.recorder.counter("faas.invoke.warm"), 10);
    // Every service shows up on one bill.
    assert!(c.ledger.total_for(Service::Blob) > 0.0);
    assert!(c.ledger.total_for(Service::Queue) > 0.0);
    assert!(c.ledger.total_for(Service::Faas) > 0.0);
}

#[test]
fn warm_state_is_best_effort_only() {
    // §3 constraint (1): "functions must be written assuming that state
    // will not be recoverable across invocations."
    let c = cloud();
    c.faas.register(FunctionSpec::new(
        "counter",
        128,
        SimDuration::from_secs(30),
        |ctx, _| async move {
            let cache = ctx.container_cache();
            let mut cache = cache.borrow_mut();
            let n = cache.get("n").map(|b| b.bytes()[0]).unwrap_or(0) + 1;
            cache.insert("n".into(), Payload::from(vec![n]));
            Ok(Payload::from(vec![n]))
        },
    ));
    let faas = c.faas.clone();
    let sim = c.sim.clone();
    let (warm_counts, after_expiry) = c.sim.block_on(async move {
        let mut warm = Vec::new();
        for _ in 0..3 {
            let out = faas.invoke("counter", Payload::new()).await;
            warm.push(out.result.unwrap().bytes()[0]);
        }
        // Idle past the keep-alive window: the container (and its state)
        // is reclaimed.
        sim.sleep(SimDuration::from_mins(20)).await;
        faas.reap_idle();
        let out = faas.invoke("counter", Payload::new()).await;
        (warm, out.result.unwrap().bytes()[0])
    });
    assert_eq!(warm_counts, vec![1, 2, 3]);
    assert_eq!(after_expiry, 1, "state must vanish with the container");
}

#[test]
fn queue_trigger_at_least_once_after_function_crash() {
    let c = cloud();
    c.queue.create_queue(
        "jobs",
        QueueConfig {
            visibility_timeout: SimDuration::from_secs(5),
            dead_letter: None,
        },
    );
    let attempts = Rc::new(Cell::new(0u32));
    let seen: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
    let a = attempts.clone();
    let s = seen.clone();
    c.faas.register(FunctionSpec::new(
        "worker",
        256,
        SimDuration::from_secs(30),
        move |_ctx, payload| {
            let a = a.clone();
            let s = s.clone();
            async move {
                a.set(a.get() + 1);
                if a.get() == 1 {
                    // First attempt dies before acking.
                    return Err(FnError::Handler("crash".into()));
                }
                for m in decode_batch(&payload).unwrap() {
                    s.borrow_mut().push(m.bytes()[0]);
                }
                Ok(Payload::new())
            }
        },
    ));
    let _t = add_queue_trigger(&c.faas, &c.queue, &c.fabric, "worker", "jobs", 10);
    let host = c.client_host();
    let queue = c.queue.clone();
    c.sim.spawn(async move {
        queue.send(&host, "jobs", Payload::from(vec![42])).await.unwrap();
    });
    c.sim
        .run_until(c.sim.now() + SimDuration::from_secs(60));
    assert_eq!(attempts.get(), 2, "crash then redelivery");
    assert_eq!(*seen.borrow(), vec![42]);
    assert_eq!(c.queue.queue_len("jobs"), 0, "acked after success");
}

#[test]
fn fan_out_scales_without_provisioning() {
    // 100 concurrent invocations: the platform spins up containers on its
    // own; nothing was provisioned beforehand.
    let c = cloud();
    c.faas.register(FunctionSpec::new(
        "work",
        640,
        SimDuration::from_secs(60),
        |ctx, _| async move {
            ctx.cpu(SimDuration::from_millis(100)).await;
            Ok(Payload::new())
        },
    ));
    assert_eq!(c.faas.container_count(), 0);
    let faas = c.faas.clone();
    c.sim.block_on(async move {
        let futs: Vec<_> = (0..100)
            .map(|_| {
                let f = faas.clone();
                async move {
                    let out = f.invoke("work", Payload::new()).await;
                    assert!(out.result.is_ok());
                }
            })
            .collect();
        join_all(futs).await;
    });
    assert_eq!(c.faas.container_count(), 100);
    // Packing: 20 containers per host VM.
    assert_eq!(c.faas.host_count(), 5);
}

#[test]
fn storage_mediated_state_visible_across_functions() {
    // The event-driven "global state" pattern: two functions share state
    // only through the KV store.
    let c = cloud();
    c.kv.create_table("state");
    let kv_w = c.kv.clone();
    c.faas.register(FunctionSpec::new(
        "writer",
        128,
        SimDuration::from_secs(30),
        move |ctx, payload| {
            let kv = kv_w.clone();
            async move {
                kv.put(ctx.host(), "state", "shared", payload)
                    .await
                    .expect("table");
                Ok(Payload::new())
            }
        },
    ));
    let kv_r = c.kv.clone();
    c.faas.register(FunctionSpec::new(
        "reader",
        128,
        SimDuration::from_secs(30),
        move |ctx, _| {
            let kv = kv_r.clone();
            async move {
                let item = kv
                    .get(ctx.host(), "state", "shared", Consistency::Strong)
                    .await
                    .expect("written");
                Ok(item.value)
            }
        },
    ));
    let faas = c.faas.clone();
    let got = c.sim.block_on(async move {
        faas.invoke("writer", Payload::from_static(b"handoff")).await;
        faas.invoke("reader", Payload::new()).await.result.unwrap()
    });
    assert!(got.eq_bytes(b"handoff"));
}

#[test]
fn ec2_and_lambda_share_the_same_storage() {
    // A VM produces, a function consumes — one storage namespace.
    let c = cloud();
    c.blob.create_bucket("shared");
    let vm = c.ec2.provision_ready("m5.large", 0).unwrap();
    let blob = c.blob.clone();
    let host = vm.host().clone();
    c.sim.block_on(async move {
        blob.put(&host, "shared", "from-vm", Payload::from_static(b"serverful"))
            .await
            .unwrap();
    });
    let blob = c.blob.clone();
    c.faas.register(FunctionSpec::new(
        "consume",
        128,
        SimDuration::from_secs(30),
        move |ctx, _| {
            let blob = blob.clone();
            async move { Ok(blob.get(ctx.host(), "shared", "from-vm").await.unwrap()) }
        },
    ));
    let faas = c.faas.clone();
    let got = c
        .sim
        .block_on(async move { faas.invoke("consume", Payload::new()).await.result.unwrap() });
    assert!(got.eq_bytes(b"serverful"));
    vm.terminate();
    assert!(c.ledger.total_for(Service::Compute) > 0.0);
}
