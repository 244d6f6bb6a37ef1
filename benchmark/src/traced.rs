//! The traced run (`--trace 1`): where the measured time goes, crate by
//! crate.
//!
//! Half the time box goes to the library's own service, exactly as the
//! measured run drives it; that half gives the client-visible request
//! latencies and the reference for the tracing overhead.  The other half
//! repeats the same stream through [`ShadowService`], which recomposes each
//! operation from public functions under spans.  A few diagnostics follow.
//! End-to-end metrics are never taken from here.

use crate::durable::{self, ScratchDir};
use crate::metrics::{self, Report};
use crate::service::{configure, render, Fallible, RealService, Service};
use crate::shadow::{replay_recovery, Proposal, ShadowService};
use crate::stats::mean;
use crate::trace::{child_ns, totals, write_jsonl, Span, Total, Tracer};
use crate::workload::{
    timed, Corpus, Driver, Kind, Samples, Stream, Workload, PUBLISHES_TO_REPLAY,
};
use crate::{measured_run, output_root, Args};
use gps_automata::Dfa;
use gps_core::{SessionManager, SessionStatus};
use gps_datasets::streamed;
use gps_store::encode_snapshot;
use gps_telemetry::MetricsRegistry;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Goals of the strategy comparison and of the two-worker diagnostic.
fn diagnostic_goals(workload: &Workload) -> usize {
    if workload.nodes > 2_000 {
        16
    } else {
        64
    }
}

/// Recoveries the traced run replays (each decodes and replays in full).
const TRACED_RECOVERIES: usize = 5;

pub fn traced_run(args: &Args) -> Fallible<(Samples, Report)> {
    let workload = &args.workload;
    let half = args.seconds / 2.0;
    let goals = diagnostic_goals(workload);
    let mut report = Report::default();

    // The library's own service, driven as in the measured run.
    let mut served = None;
    let (mut samples, _setup) = measured_run(args, half, |service, stream| {
        if workload.kind == Kind::Specify {
            served = Some(two_worker_sessions_per_s(service, &stream.goals()[..goals]));
        }
    })?;
    metrics::requests(&samples, &mut report);
    match served {
        Some(Ok(Some(rate))) => report.set("core.sessions_per_s.w2", rate, goals),
        Some(Ok(None)) => println!(
            "core.sessions_per_s.w2: unmeasured, two workers need two cores and this machine has one"
        ),
        Some(Err(error)) => samples.fail(format!("two-worker serve: {error}")),
        None => {}
    }

    // The same stream through the recomposed, decorated service.
    let tracer = Tracer::new();
    let scratch = (workload.kind == Kind::LiveDurable)
        .then(|| ScratchDir::create(&output_root()?, args.seed))
        .transpose()?;
    let store_dir = scratch.as_ref().map(|s| s.path().join("shadow-store"));
    let corpus = {
        let _span = tracer.span("graph.csr_build");
        Corpus::generate(workload)
    };
    let stream = Stream::new(workload, &corpus, args.seed);
    let shadow = ShadowService::new(corpus, Arc::clone(&tracer), store_dir.clone())?;
    if workload.kind != Kind::Publish {
        shadow.build_words();
    }
    let mut driver = Driver::new(*workload, shadow, stream);
    driver.warm_up();
    let measured_from = tracer.len();
    driver.measure(half);
    let (mut shadow, stream, traced) = driver.finish();
    samples.failed += traced.failed;
    samples.failures.extend(traced.failures.iter().cloned());
    let measured_to = tracer.len();

    if let (Some(scratch), Some(dir)) = (&scratch, &store_dir) {
        let expected = encode_snapshot(&shadow.snapshot());
        shadow.close_store();
        let rounds = if args.quick { 1 } else { TRACED_RECOVERIES };
        for round in 0..rounds {
            let copy = scratch.path().join(format!("shadow-reopen-{round}"));
            let result = durable::copy_dir(dir, &copy)
                .and_then(|()| replay_recovery(&copy, &tracer))
                .and_then(|(bytes, replayed)| {
                    if bytes != expected {
                        Err("the replayed recovery differs from the snapshot dropped".to_string())
                    } else if replayed as u64 != PUBLISHES_TO_REPLAY {
                        Err(format!(
                            "the replayed recovery applied {replayed} publishes"
                        ))
                    } else {
                        Ok(())
                    }
                });
            if let Err(error) = result {
                samples.fail(format!("traced recovery: {error}"));
            }
            let _ = std::fs::remove_dir_all(&copy);
        }
    }

    // The paper's strategy comparison, on the same cache and goals.
    if workload.kind != Kind::Publish {
        for (name, proposal) in [
            (
                "interactive.interactions_per_session.degree",
                Proposal::Degree,
            ),
            (
                "interactive.interactions_per_session.random",
                Proposal::Random(args.seed),
            ),
        ] {
            shadow.proposal = proposal;
            match interactions_per_session(&mut shadow, &stream.goals()[..goals]) {
                Ok(interactions) => report.set(name, interactions, goals),
                Err(error) => samples.fail(format!("{name}: {error}")),
            }
        }
    }

    let spans = tracer.spans();
    layer_metrics(
        &spans,
        measured_from..measured_to,
        &samples,
        &traced,
        &mut report,
    );
    let counts = shadow.cache_counts();
    let lookups = counts.hits + counts.misses;
    if lookups > 0 {
        report.set(
            "rpq.cache.hit_ratio",
            counts.hits as f64 / lookups as f64,
            lookups as usize,
        );
    }
    report.set("rpq.cache.evictions", counts.evictions as f64, 0);
    let plans = shadow.plans();
    let planned = plans.all.load(Ordering::Relaxed);
    if planned > 0 {
        report.set(
            "exec.plan_forward_ratio",
            plans.forward.load(Ordering::Relaxed) as f64 / planned as f64,
            planned as usize,
        );
    }
    if traced.sessions > 0 {
        report.set(
            "learner.hypothesis_changes_per_session",
            shadow.hypothesis_changes as f64 / traced.sessions as f64,
            traced.sessions,
        );
    }
    report.set(
        "graph.snapshot_bytes",
        encode_snapshot(&shadow.snapshot()).len() as f64,
        0,
    );
    drop(shadow);

    automata_metrics(stream.goals(), &mut report);
    if workload.name == "specify-2k" {
        telemetry_metrics(args, &mut report)?;
    }
    report.set("bench.timer_ns", timer_ns(), 1_000_000);

    let path = output_root()?.join(format!("{}.trace.jsonl", workload.name));
    write_jsonl(
        &spans,
        &format!("{{\"stamp\": {}}}", crate::stamp(args)),
        &path,
    )
    .map_err(render)?;
    println!("trace: {} spans in {}", spans.len(), path.display());
    Ok((samples, report))
}

/// `GpsService::serve` on two workers; `None` on a one-core machine, where
/// the number would say nothing about two workers.
fn two_worker_sessions_per_s(service: &RealService, goals: &[String]) -> Fallible<Option<f64>> {
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return Ok(None);
    }
    service.served_sessions_per_s(goals, 2).map(Some)
}

/// Mean interactions to halt over one session per goal.
fn interactions_per_session(service: &mut ShadowService, goals: &[String]) -> Fallible<f64> {
    let mut interactions = 0;
    for goal in goals {
        let id = service.open(goal)?;
        while matches!(service.step(id)?, SessionStatus::Running { .. }) {}
        interactions += service.close(id)?.outcome.stats.interactions;
    }
    Ok(interactions as f64 / goals.len() as f64)
}

/// The per-layer metrics that come from spans.
///
/// `spans` is every span of the run: set-up before `measured`, the measured
/// phase inside it, recoveries and diagnostics after.  `own` is what the
/// library's own service recorded, `traced` what the shadow's driver did.
fn layer_metrics(
    spans: &[Span],
    measured: Range<usize>,
    own: &Samples,
    traced: &Samples,
    report: &mut Report,
) {
    let by_name = totals(spans, measured.clone());
    let get = |name: &str| by_name.get(name).copied().unwrap_or_default();
    let set_us = |report: &mut Report, metric: &'static str, total: Total| {
        report.set(metric, total.mean_us(), total.calls as usize);
    };
    let set_ms = |report: &mut Report, metric: &'static str, total: Total| {
        report.set(metric, total.mean_ms(), total.calls as usize);
    };

    // Set-up spans, once per run.
    let setup = totals(spans, 0..measured.start);
    for (metric, span) in [
        ("graph.csr_build_ms", "graph.csr_build"),
        ("exec.index_build_ms", "exec.index_build"),
        ("rpq.words.build_ms", "rpq.words.build"),
    ] {
        if let Some(total) = setup.get(span) {
            report.set(metric, total.total_ns as f64 / 1e6, total.calls as usize);
        }
    }

    set_us(report, "learner.learn_us", get("learner.learn"));
    set_us(report, "interactive.refresh_us", get("interactive.refresh"));
    set_us(report, "interactive.propose_us", get("interactive.propose"));
    set_us(report, "interactive.user_us", get("interactive.user"));
    set_us(report, "exec.eval_us", get("exec.eval"));
    set_us(
        report,
        "exec.spelling_counts_us",
        get("exec.spelling_counts"),
    );
    set_us(report, "exec.resume_us", get("exec.resume"));
    set_us(report, "rpq.migrate_us", get("rpq.migrate"));
    set_us(report, "rpq.inherit_words_us", get("rpq.inherit_words"));
    set_us(report, "graph.apply_us", get("graph.apply"));
    set_ms(report, "graph.compact_ms", get("graph.compact"));
    set_ms(report, "exec.index_patch_ms", get("exec.index_patch"));
    set_ms(report, "core.retire_ms", get("core.retire"));
    set_us(report, "store.append_us", get("store.append"));
    set_us(report, "store.commit_us", get("store.commit"));
    set_us(report, "store.fsync_us", get("store.fsync"));
    set_ms(report, "store.checkpoint_ms", get("store.checkpoint"));
    let after = totals(spans, measured.end..spans.len());
    for (metric, span) in [
        ("store.recover.decode_ms", "store.recover.decode"),
        ("store.recover.replay_ms", "store.recover.replay"),
    ] {
        if let Some(total) = after.get(span) {
            set_ms(report, metric, *total);
        }
    }

    let steps = get("interactive.step");
    if steps.calls > 0 {
        let per_step = |total: Total| total.calls as f64 / steps.calls as f64;
        report.set(
            "learner.learn_calls",
            per_step(get("learner.learn")),
            steps.calls as usize,
        );
        // Evaluations the engine ran per step, wherever they were asked.
        let live_evals = spans[measured.clone()]
            .iter()
            .filter(|s| s.name == "exec.eval" && !under(spans, s, "bench.replay"))
            .count();
        report.set(
            "exec.eval_calls",
            live_evals as f64 / steps.calls as f64,
            steps.calls as usize,
        );
        // What `Session::step` spent in spans taken live inside it, plus the
        // self time of the two calls replayed from its transcript.
        let live: u64 = ["interactive.propose", "interactive.user"]
            .iter()
            .chain(&[
                "exec.eval",
                "exec.spelling_counts",
                "exec.witness",
                "exec.selects",
            ])
            .map(|child| child_ns(spans, measured.clone(), "interactive.step", child))
            .sum();
        let replayed = get("learner.learn").self_ns + get("interactive.refresh").self_ns;
        report.set(
            "interactive.step_unattributed_ratio",
            1.0 - (live + replayed) as f64 / steps.total_ns as f64,
            steps.calls as usize,
        );
        // The manager's step minus the bare session's, the former over as
        // many steps of the same stream as the traced half ran.
        let common = (steps.calls as usize).min(own.step_us.len());
        report.set(
            "core.step_overhead_us",
            mean(&own.step_us[..common]) - steps.mean_us(),
            common,
        );
    }

    let publishes = get("core.publish");
    if publishes.calls > 0 {
        // A recomposed publish's child spans are its phases; what the
        // library's own `update` takes beyond them is swap, locks and
        // bookkeeping.
        let common = (publishes.calls as usize).min(own.publish_ms.len());
        let phases_ms = (publishes.total_ns - publishes.self_ns) as f64 / 1e6;
        report.set(
            "core.publish_unattributed_ratio",
            1.0 - phases_ms / publishes.calls as f64 / mean(&own.publish_ms[..common]),
            common,
        );
    }

    // Traced operation time over untraced, for the same kind of operation.
    let traced_op_ns = if steps.calls > 0 && publishes.calls == 0 {
        steps.total_ns as f64 / steps.calls as f64
    } else if publishes.calls > 0 {
        (publishes.total_ns + get("core.read").total_ns) as f64 / publishes.calls as f64
    } else {
        0.0
    };
    if traced_op_ns > 0.0 && own.ops > 0 {
        report.set(
            "bench.trace_overhead_ratio",
            traced_op_ns / 1e9 / (own.op_s / own.ops as f64),
            traced.ops,
        );
    }
}

/// Whether `span` lies under a span named `ancestor`.
fn under(spans: &[Span], span: &Span, ancestor: &str) -> bool {
    let mut parent = span.parent;
    while let Some(index) = parent {
        if spans[index].name == ancestor {
            return true;
        }
        parent = spans[index].parent;
    }
    false
}

/// Parse and compile times over the goal pool, through `gps-automata`'s own
/// entry points (regex → NFA → determinize → minimize is `Dfa::from_regex`).
fn automata_metrics(goals: &[String], report: &mut Report) {
    let mut labels = gps_graph::LabelInterner::new();
    for i in 0..crate::gen::ALPHABET_SIZE {
        labels.intern(&format!("a{i}"));
    }
    let (mut parse_us, mut compile_us, mut states) = (Vec::new(), Vec::new(), Vec::new());
    for goal in goals {
        let (regex, parsed) = timed(|| gps_automata::parser::parse(goal, &labels));
        let regex = regex.expect("goals parse");
        let (dfa, compiled) = timed(|| Dfa::from_regex(&regex));
        parse_us.push(parsed.as_secs_f64() * 1e6);
        compile_us.push(compiled.as_secs_f64() * 1e6);
        states.push(dfa.state_count() as f64);
    }
    report.set("automata.parse_us", mean(&parse_us), goals.len());
    report.set("automata.compile_us", mean(&compile_us), goals.len());
    report.set("automata.dfa_states", mean(&states), goals.len());
}

/// Sessions of a telemetry slice, per registry state and per round.
const TELEMETRY_SESSIONS: usize = 48;
const TELEMETRY_ROUNDS: usize = 5;

/// Step time with the registry enabled over step time with it disabled, on
/// two fresh `specify-2k` services fed the same goals in alternating rounds,
/// and the cost of one export of the enabled registry.
fn telemetry_metrics(args: &Args, report: &mut Report) -> Fallible<()> {
    let workload = &args.workload;
    let corpus = Arc::new(streamed::generate_csr(&crate::gen::corpus_config(
        workload.nodes,
        workload.edges_per_node,
    )));
    let goals = crate::gen::goal_pool(corpus.labels(), TELEMETRY_SESSIONS, args.seed);
    let manager = |registry: Option<Arc<MetricsRegistry>>| {
        let builder = configure(gps_graph::Graph::new());
        let builder = match registry {
            Some(registry) => builder.metrics(registry),
            None => builder,
        };
        SessionManager::new(builder.build_core_over(Arc::clone(&corpus)))
    };
    let enabled = manager(Some(Arc::new(MetricsRegistry::enabled())));
    let disabled = manager(None);
    // Step latencies with the registry disabled (0) and enabled (1).
    let mut step_us = [Vec::new(), Vec::new()];
    for round in 0..TELEMETRY_ROUNDS {
        // Alternate which side goes first, so drift favours neither.
        for side in [round % 2 == 0, round % 2 != 0] {
            let manager = if side { &enabled } else { &disabled };
            for goal in &goals {
                let id = manager.open(goal).map_err(render)?;
                loop {
                    let (status, waited) = timed(|| manager.step(id));
                    step_us[side as usize].push(waited.as_secs_f64() * 1e6);
                    if let gps_core::SessionStatus::Halted(_) = status.map_err(render)? {
                        break;
                    }
                }
                manager.close(id).map_err(render)?;
            }
        }
    }
    report.set(
        "telemetry.overhead_ratio",
        mean(&step_us[1]) / mean(&step_us[0]),
        step_us[1].len(),
    );
    let exports = 20;
    let started = Instant::now();
    for _ in 0..exports {
        std::hint::black_box((enabled.metrics_text(), enabled.metrics_json()));
    }
    report.set(
        "telemetry.export_us",
        started.elapsed().as_secs_f64() * 1e6 / exports as f64,
        exports,
    );
    Ok(())
}

/// The cost of one `Instant` pair, the benchmark's own measuring stick.
fn timer_ns() -> f64 {
    let pairs = 1_000_000;
    let started = Instant::now();
    for _ in 0..pairs {
        std::hint::black_box(Instant::now().elapsed());
    }
    started.elapsed().as_nanos() as f64 / pairs as f64
}
