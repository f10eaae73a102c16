//! Engine-level tracing contract: attaching a [`Tracer`] via
//! `with_observability` must leave every response bit-identical, produce
//! one `"engine.recall"` trace per submission with queue/evaluate/select
//! attribution, and keep the queue-depth gauge honest after the drain.

use std::sync::Arc;

use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
use spinamm_core::hierarchy::HierarchicalAmm;
use spinamm_core::partition::PartitionedAmm;
use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
use spinamm_telemetry::MemoryRecorder;
use spinamm_trace::{TraceConfig, Tracer};

fn patterns(count: usize, len: usize) -> Vec<Vec<u32>> {
    (0..count)
        .map(|k| {
            (0..len)
                .map(|i| ((i * 7 + k * 11 + k * k) % 32) as u32)
                .collect()
        })
        .collect()
}

fn queries(patterns: &[Vec<u32>], n: usize) -> Vec<Vec<u32>> {
    patterns
        .iter()
        .cycle()
        .take(n)
        .enumerate()
        .map(|(qi, p)| {
            let mut q = p.clone();
            let idx = qi % q.len();
            q[idx] = (q[idx] + 3) % 32;
            q
        })
        .collect()
}

fn traced_engine(deployment: Deployment, workers: usize) -> (RecallEngine, Arc<Tracer>) {
    let tracer = Arc::new(Tracer::new(&TraceConfig::default()));
    let engine = RecallEngine::with_observability(
        deployment,
        &EngineConfig::builder()
            .workers(workers)
            .queue_capacity(4)
            .build(),
        Arc::new(MemoryRecorder::default()),
        Some(Arc::clone(&tracer)),
    );
    (engine, tracer)
}

#[test]
fn traced_flat_engine_is_bit_identical_with_full_span_coverage() {
    let p = patterns(4, 12);
    let cfg = AmmConfig {
        fidelity: Fidelity::Driven,
        ..AmmConfig::default()
    };
    let module = AssociativeMemoryModule::build(&p, &cfg).unwrap();
    let mut sequential = Deployment::Flat(module.clone());
    let inputs = queries(&p, 10);

    let (engine, tracer) = traced_engine(Deployment::Flat(module), 3);
    let got = engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    for (q, response) in inputs.iter().zip(&got) {
        assert_eq!(*response, sequential.recall(q).unwrap());
    }

    assert_eq!(tracer.request_count(), inputs.len() as u64);
    assert_eq!(tracer.sampled_count(), inputs.len() as u64);
    assert_eq!(tracer.latency().count(), inputs.len() as u64);
    let traces = tracer.traces();
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        assert_eq!(trace.kind, "engine.recall");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        assert!(names.contains(&"queue_wait"), "{names:?}");
        assert!(names.contains(&"evaluate"), "{names:?}");
        assert!(names.contains(&"select"), "{names:?}");
        // The evaluate phase carries worker attribution and nests the
        // module's own drive/settle spans beneath it.
        let eval = trace.spans.iter().find(|s| s.name == "evaluate").unwrap();
        assert!(eval.attrs.iter().any(|&(k, _)| k == "worker"));
        assert!(names.contains(&"settle"), "{names:?}");
    }
}

#[test]
fn traced_partitioned_engine_records_shard_spans() {
    let p = patterns(4, 12);
    let cfg = AmmConfig::default();
    let part = PartitionedAmm::build(&p, 3, &cfg).unwrap();
    let mut sequential = Deployment::Partitioned(part.clone());
    let inputs = queries(&p, 8);

    let (engine, tracer) = traced_engine(Deployment::Partitioned(part), 2);
    let got = engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    for (q, response) in inputs.iter().zip(&got) {
        assert_eq!(*response, sequential.recall(q).unwrap());
    }

    let traces = tracer.traces();
    assert_eq!(traces.len(), inputs.len());
    for trace in &traces {
        let settles = trace
            .spans
            .iter()
            .filter(|s| s.name == "shard.settle")
            .count();
        assert_eq!(settles, 3, "one settle span per shard");
        assert!(trace.spans.iter().any(|s| s.name == "shard.select"));
    }
}

#[test]
fn traced_hierarchical_engine_covers_both_stages() {
    let p = patterns(6, 12);
    let cfg = AmmConfig::default();
    let hier = HierarchicalAmm::build(&p, 2, &cfg).unwrap();
    let mut sequential = Deployment::Hierarchical(hier.clone());
    let inputs = queries(&p, 8);

    let (engine, tracer) = traced_engine(Deployment::Hierarchical(hier), 3);
    let got = engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    for (q, response) in inputs.iter().zip(&got) {
        assert_eq!(*response, sequential.recall(q).unwrap());
    }

    for trace in &tracer.traces() {
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name).collect();
        // Stage A and stage B each contribute a queue hop and an evaluate.
        let hops = names.iter().filter(|&&n| n == "queue_wait").count();
        assert_eq!(hops, 2, "{names:?}");
        assert!(names.contains(&"evaluate"), "{names:?}");
        assert!(names.contains(&"evaluate.member"), "{names:?}");
        assert!(names.contains(&"select"), "{names:?}");
        assert!(names.contains(&"select.member"), "{names:?}");
        let member = trace
            .spans
            .iter()
            .find(|s| s.name == "select.member")
            .unwrap();
        assert!(member.attrs.iter().any(|&(k, _)| k == "cluster"));
    }
}

#[test]
fn queue_gauges_recover_after_drain_and_wait_histogram_fills() {
    let p = patterns(4, 12);
    let module = AssociativeMemoryModule::build(&p, &AmmConfig::default()).unwrap();
    let recorder = Arc::new(MemoryRecorder::default());
    let engine = RecallEngine::with_recorder(
        Deployment::Flat(module),
        &EngineConfig::builder().workers(2).queue_capacity(3).build(),
        recorder.clone(),
    );
    let inputs = queries(&p, 9);
    engine.recall_many(&inputs).unwrap();
    engine.shutdown();

    let snap = recorder.snapshot();
    // Completion re-samples the gauge, so a drained engine reads 0 rather
    // than the submission high-water mark.
    assert_eq!(snap.gauges.get("engine.queue_depth"), Some(&0.0));
    let waits = snap.histogram_stats("engine.queue_wait_ns").unwrap();
    assert_eq!(waits.count, inputs.len() as u64);
    assert!(waits.min >= 0.0);
    assert!(snap.percentile("engine.queue_wait_ns", 0.99) >= snap.gauges["engine.queue_depth"]);
}

#[test]
fn engine_without_tracer_records_no_traces() {
    let p = patterns(3, 10);
    let module = AssociativeMemoryModule::build(&p, &AmmConfig::default()).unwrap();
    let engine = RecallEngine::new(
        Deployment::Flat(module),
        &EngineConfig::builder().workers(2).queue_capacity(2).build(),
    );
    let inputs = queries(&p, 4);
    engine.recall_many(&inputs).unwrap();
    engine.shutdown();
    // Nothing to assert beyond "no panic": the default engine carries no
    // tracer and the disabled-handle paths must all be inert.
}
