//! Tracing must be purely observational: with a tracer attached (at any
//! sample rate) every recall result is bit-identical to the untraced run,
//! and the module RNG advances identically — proven by running extra
//! *untraced* recalls afterwards and requiring those to match too.

use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
use spinamm_core::hierarchy::HierarchicalAmm;
use spinamm_core::partition::PartitionedAmm;
use spinamm_core::request::RecallRequest;
use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
use spinamm_trace::{TraceConfig, Tracer};

fn workload(seed: u64) -> PatternWorkload {
    PatternWorkload::generate(&WorkloadConfig {
        pattern_count: 6,
        vector_len: 16,
        bits: 5,
        query_count: 12,
        query_noise: 0.15,
        seed,
        noise_magnitude: 2,
        similarity: 0.0,
    })
    .unwrap()
}

fn config(fidelity: Fidelity) -> AmmConfig {
    AmmConfig {
        fidelity,
        thermal: true,
        latch_noise: true,
        ..AmmConfig::default()
    }
}

#[test]
fn traced_recalls_are_bit_identical_including_rng_stream() {
    for fidelity in [Fidelity::Driven, Fidelity::Parasitic] {
        let w = workload(33);
        let cfg = config(fidelity);
        let mut plain = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
        let mut traced = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
        let tracer = Tracer::new(&TraceConfig::default());
        let req = RecallRequest::DEFAULT.with_tracer(&tracer);
        for (_, q) in &w.queries {
            let want = plain.recall(q).unwrap();
            let got = traced.recall_request(q, &req).unwrap();
            assert_eq!(got, want, "traced result diverged ({fidelity:?})");
        }
        assert_eq!(tracer.sampled_count(), w.queries.len() as u64);
        // RNG stream check: the next *untraced* recalls must still agree.
        for (_, q) in w.queries.iter().take(3) {
            assert_eq!(
                traced.recall(q).unwrap(),
                plain.recall(q).unwrap(),
                "RNG stream diverged after traced run ({fidelity:?})"
            );
        }
    }
}

#[test]
fn partial_sampling_rate_does_not_perturb_results() {
    let w = workload(34);
    let cfg = config(Fidelity::Parasitic);
    let mut plain = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
    let mut traced = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
    let tracer = Tracer::new(&TraceConfig {
        sample_rate: 0.4,
        seed: 7,
        ..TraceConfig::default()
    });
    let req = RecallRequest::DEFAULT.with_tracer(&tracer);
    for (_, q) in &w.queries {
        assert_eq!(
            traced.recall_request(q, &req).unwrap(),
            plain.recall(q).unwrap()
        );
    }
    assert_eq!(tracer.request_count(), w.queries.len() as u64);
    assert!(tracer.sampled_count() < tracer.request_count());
    // Every request feeds the latency histogram, sampled or not.
    assert_eq!(tracer.latency().count(), w.queries.len() as u64);
}

#[test]
fn traced_batch_and_partitioned_paths_stay_bit_identical() {
    let w = workload(35);
    let cfg = config(Fidelity::Parasitic);
    let queries: Vec<Vec<u32>> = w.queries.iter().map(|(_, q)| q.clone()).collect();

    let mut plain = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
    let mut traced = AssociativeMemoryModule::build(&w.patterns, &cfg).unwrap();
    let tracer = Tracer::new(&TraceConfig::default());
    let req = RecallRequest::DEFAULT.with_tracer(&tracer).with_workers(2);
    let want = plain.recall_batch(&queries).unwrap();
    let got = traced.recall_batch_request(&queries, &req).unwrap();
    assert_eq!(got, want, "traced batch diverged");
    // The whole batch is one traced request.
    assert_eq!(tracer.request_count(), 1);
    let structure = tracer.traces()[0].structure();
    assert!(structure.contains(&(0, "settle")), "{structure:?}");

    let mut plain = PartitionedAmm::build(&w.patterns, 3, &cfg).unwrap();
    let mut traced = PartitionedAmm::build(&w.patterns, 3, &cfg).unwrap();
    let tracer = Tracer::new(&TraceConfig::default());
    let req = RecallRequest::DEFAULT.with_tracer(&tracer);
    for q in &queries {
        assert_eq!(
            traced.recall_request(q, &req).unwrap(),
            plain.recall(q).unwrap(),
            "traced partitioned recall diverged"
        );
    }
    // One "partition.recall" trace per recall, with one settle and one
    // select span per segment (the names an engine job carries).
    assert_eq!(tracer.request_count(), queries.len() as u64);
    let trace = &tracer.traces()[0];
    assert_eq!(trace.kind, "partition.recall");
    for name in ["shard.settle", "shard.select"] {
        let spans = trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(spans, 3, "{name}");
    }
    // RNG stream check: the next untraced recalls must still agree.
    for q in queries.iter().take(3) {
        assert_eq!(traced.recall(q).unwrap(), plain.recall(q).unwrap());
    }

    let mut plain = HierarchicalAmm::build(&w.patterns, 2, &cfg).unwrap();
    let mut traced = HierarchicalAmm::build(&w.patterns, 2, &cfg).unwrap();
    let tracer = Tracer::new(&TraceConfig::default());
    let req = RecallRequest::DEFAULT.with_tracer(&tracer);
    for q in &queries {
        assert_eq!(
            traced.recall_request(q, &req).unwrap(),
            plain.recall(q).unwrap(),
            "traced hierarchical recall diverged"
        );
    }
    // One "hierarchy.recall" trace per recall, covering both stages.
    assert_eq!(tracer.request_count(), queries.len() as u64);
    let trace = &tracer.traces()[0];
    assert_eq!(trace.kind, "hierarchy.recall");
    let settles = trace.spans.iter().filter(|s| s.name == "settle").count();
    assert_eq!(settles, 2, "one settle per stage");
    for q in queries.iter().take(3) {
        assert_eq!(traced.recall(q).unwrap(), plain.recall(q).unwrap());
    }
}
