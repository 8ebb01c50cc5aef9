//! Loopback integration tests: `slm-bs`'s serving loop and the
//! [`NetTrainer`] UE loop talking over real 127.0.0.1 sockets.
//!
//! The headline contract: the networked runtime reproduces the
//! in-process `SplitTrainer` **byte-identically** — same learning
//! curve bits, same simulated clock, same step counts — both over a
//! clean link and over a lossy one whose retransmissions are realized
//! as corrupted wire frames (Nack → resend recovery).

use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use sl_rng::rngs::StdRng;

use sl_channel::LinkConfig;
use sl_core::{ExperimentConfig, PoolingDim, Scheme, SplitTrainer};
use sl_net::{
    BsServer, Connection, FaultAction, FaultPlan, MsgType, NackCode, NetError, NetTrainer,
    RetryPolicy, SessionSpec, SessionSummary, StepReply, StepRequest, UeClient,
};
use sl_scene::{Scene, SceneConfig, SequenceDataset};

fn dataset(seed: u64) -> SequenceDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let scene = Scene::generate(SceneConfig::tiny(), &mut rng);
    SequenceDataset::paper_windowing(scene.simulate(&mut rng))
}

type ServedSessions = Vec<(SocketAddr, Result<SessionSummary, NetError>)>;

fn spawn_bs(sessions: usize) -> (SocketAddr, thread::JoinHandle<ServedSessions>) {
    let server = BsServer::bind("127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || {
        let mut served = Vec::new();
        server.serve(Some(sessions), |_id, peer, result| {
            served.push((peer, result))
        });
        served
    });
    (addr, handle)
}

/// Trains the same config in-process and over the socket; returns both
/// outcomes plus the client/server link counters.
fn train_both(
    cfg: ExperimentConfig,
    ds: &SequenceDataset,
) -> (
    sl_core::TrainOutcome,
    sl_core::TrainOutcome,
    sl_net::NetMetrics,
    sl_net::FaultCounters,
    SessionSummary,
) {
    let mut inproc = SplitTrainer::new(cfg.clone(), ds);
    let a = inproc.train(ds);

    let (addr, server) = spawn_bs(1);
    let client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    let mut net = NetTrainer::new(cfg, ds, client).expect("handshake");
    let b = net.train(ds).expect("networked training");
    let faults = net.client_mut().fault_counters();
    // Counted after the Shutdown exchange, so both sides' totals are final.
    let metrics = net.finish().expect("clean shutdown").metrics();

    let mut served = server.join().expect("server thread");
    assert_eq!(served.len(), 1);
    let summary = served.pop().unwrap().1.expect("session ok");
    assert!(summary.clean_shutdown);
    // The BS's transport totals match what the UE put on the wire: every
    // frame arrives, intact (received) or corrupted in flight (Nack'd).
    assert_eq!(summary.bytes_received, metrics.bytes_sent);
    assert_eq!(
        summary.frames_received + summary.nacks_sent,
        metrics.frames_sent
    );
    (a, b, metrics, faults, summary)
}

fn assert_byte_identical(a: &sl_core::TrainOutcome, b: &sl_core::TrainOutcome) {
    assert_eq!(a.curve.len(), b.curve.len(), "curve lengths differ");
    for (pa, pb) in a.curve.iter().zip(&b.curve) {
        assert_eq!(pa.epoch, pb.epoch);
        assert_eq!(
            pa.elapsed_s.to_bits(),
            pb.elapsed_s.to_bits(),
            "elapsed_s diverged at epoch {}: {} vs {}",
            pa.epoch,
            pa.elapsed_s,
            pb.elapsed_s
        );
        assert_eq!(
            pa.val_rmse_db.to_bits(),
            pb.val_rmse_db.to_bits(),
            "val_rmse_db diverged at epoch {}: {} vs {}",
            pa.epoch,
            pa.val_rmse_db,
            pb.val_rmse_db
        );
    }
    assert_eq!(a.stop, b.stop);
    assert_eq!(a.epochs, b.epochs);
    assert_eq!(a.steps_applied, b.steps_applied);
    assert_eq!(a.steps_voided, b.steps_voided);
    assert_eq!(a.final_rmse_db.to_bits(), b.final_rmse_db.to_bits());
    assert_eq!(a.compute_s.to_bits(), b.compute_s.to_bits());
    assert_eq!(a.airtime_s.to_bits(), b.airtime_s.to_bits());
}

#[test]
fn imgrf_loopback_is_byte_identical_to_in_process() {
    let ds = dataset(90);
    let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(4, 4));
    let (a, b, metrics, _faults, summary) = train_both(cfg, &ds);
    assert_byte_identical(&a, &b);
    assert_eq!(summary.steps, b.steps_applied);
    assert!(metrics.handshakes == 1);
    assert!(metrics.frames_sent > 0 && metrics.frames_received > 0);
}

#[test]
fn rf_only_loopback_is_byte_identical_to_in_process() {
    let ds = dataset(91);
    let cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
    let (a, b, metrics, faults, summary) = train_both(cfg, &ds);
    assert_byte_identical(&a, &b);
    assert_eq!(summary.steps, b.steps_applied);
    // RF-only rides no simulated channel: the wire stays fault-free, so
    // the BS receives every frame the UE sent.
    assert_eq!(faults.corrupted, 0);
    assert_eq!(summary.frames_received, metrics.frames_sent);
}

#[test]
fn lossy_uplink_realizes_retransmissions_as_wire_faults() {
    let ds = dataset(92);
    let mut cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(4, 4));
    // ~0.73 per-slot decode probability for the quick 4096-bit payload:
    // plenty of retransmissions, but every payload still delivers.
    cfg.uplink = LinkConfig::paper_uplink().with_mean_snr_db(-5.0);
    let (a, b, metrics, faults, summary) = train_both(cfg, &ds);
    // Byte identity holds *through* the fault/Nack/resend machinery.
    assert_byte_identical(&a, &b);
    assert!(
        faults.corrupted > 0,
        "lossy link injected no wire faults: {faults:?}"
    );
    assert!(
        metrics.retries > 0 && metrics.nacks_received > 0,
        "corrupted uplink frames must be Nack'd and resent: {metrics:?}"
    );
    assert_eq!(summary.nacks_sent, metrics.nacks_received);
    assert_eq!(
        summary.resends, 0,
        "uplink faults resend requests, not replies"
    );
}

#[test]
fn bs_spans_stitch_under_the_ue_trace_across_a_lossy_link() {
    use sl_telemetry::{
        check_spans, MemorySink, SpanRecord, Telemetry, TelemetryMode, BS_SPAN_NAMESPACE,
    };

    let ds = dataset(93);
    let mut cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(4, 4));
    // Lossy enough for plenty of Nack/resend recovery, but every payload
    // still delivers.
    cfg.uplink = LinkConfig::paper_uplink().with_mean_snr_db(-5.0);

    let (addr, server) = spawn_bs(1);
    let client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    let mut net = NetTrainer::new_traced(cfg, &ds, client, true).expect("handshake");
    let (sink, events) = MemorySink::new();
    let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
    tele.set_tracing(true);
    let out = net.train_with(&ds, &mut tele).expect("networked training");
    let metrics = net.client_mut().metrics();
    net.finish().expect("clean shutdown");

    let mut served = server.join().expect("server thread");
    let summary = served.pop().unwrap().1.expect("session ok");
    assert!(summary.clean_shutdown);

    // UE-side spans come back out of the journal sink.
    let ue_spans: Vec<SpanRecord> = events
        .borrow()
        .iter()
        .filter_map(SpanRecord::from_event)
        .collect();
    assert!(!ue_spans.is_empty(), "traced run journaled no spans");
    let trace_id = ue_spans[0].trace_id;
    assert_ne!(trace_id, 0);
    assert!(ue_spans.iter().all(|s| s.trace_id == trace_id));
    assert_eq!(
        ue_spans.iter().filter(|s| s.name == "train.step").count() as u64,
        out.steps_applied + out.steps_voided,
        "one root span per attempted step"
    );

    // The lossy uplink produced real recovery spans.
    assert!(metrics.retries > 0, "lossy link produced no retries");
    assert!(
        ue_spans.iter().any(|s| s.name == "net.retry"),
        "retries must be visible in the trace"
    );

    // BS-side spans stitch under the UE's trace id, in the BS id
    // namespace, each parented to a UE-side `bs.compute` span.
    assert!(!summary.spans.is_empty(), "BS recorded no spans");
    let bs_compute_ids: Vec<u64> = ue_spans
        .iter()
        .filter(|s| s.name == "bs.compute")
        .map(|s| s.span_id)
        .collect();
    for s in &summary.spans {
        assert_eq!(s.trace_id, trace_id, "BS span outside the UE trace");
        assert_ne!(s.span_id & BS_SPAN_NAMESPACE, 0);
        if s.name == "bs.step" {
            assert!(
                bs_compute_ids.contains(&s.parent_id),
                "bs.step parent {:016x} is not a UE bs.compute span",
                s.parent_id
            );
        }
    }
    assert_eq!(
        summary.spans.iter().filter(|s| s.name == "bs.step").count() as u64,
        summary.steps,
        "one bs.step span per applied step"
    );

    // The merged two-sided trace is well-formed.
    let mut merged = ue_spans;
    merged.extend(summary.spans.iter().cloned());
    let stats = check_spans(&merged).expect("merged trace is well-formed");
    assert_eq!(stats.traces, 1);
}

/// Journals `f`'s spans with tracing on and returns them with the
/// host-clock fields zeroed: only names, parents, sim times and attrs
/// are deterministic.
fn traced_spans(
    f: impl FnOnce(&mut sl_telemetry::Telemetry) -> sl_core::TrainOutcome,
) -> Vec<sl_telemetry::SpanRecord> {
    use sl_telemetry::{MemorySink, SpanRecord, Telemetry, TelemetryMode};
    let (sink, events) = MemorySink::new();
    let mut tele = Telemetry::with_sink(TelemetryMode::Jsonl, Box::new(sink));
    tele.set_tracing(true);
    f(&mut tele);
    let spans: Vec<SpanRecord> = events
        .borrow()
        .iter()
        .filter_map(SpanRecord::from_event)
        .map(|mut s| {
            s.t_host_s = 0.0;
            s.host_dur_s = 0.0;
            s
        })
        .collect();
    spans
}

#[test]
fn in_process_and_loopback_record_the_same_span_tree() {
    let ds = dataset(94);
    let mut cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(4, 4));
    cfg.max_epochs = 2;
    // A link so clean that no payload needs a second slot: the socket
    // sees no injected faults, so no recovery spans.
    cfg.uplink = LinkConfig::paper_uplink().with_mean_snr_db(40.0);
    cfg.downlink = LinkConfig::paper_downlink().with_mean_snr_db(40.0);

    let inproc = traced_spans(|tele| SplitTrainer::new(cfg.clone(), &ds).train_with(&ds, tele));

    let (addr, server) = spawn_bs(1);
    let client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    let mut net = NetTrainer::new_traced(cfg, &ds, client, true).expect("handshake");
    let networked = traced_spans(|tele| net.train_with(&ds, tele).expect("networked training"));
    net.finish().expect("clean shutdown");
    server.join().expect("server thread");

    let names: Vec<&str> = inproc.iter().map(|s| s.name.as_str()).collect();
    for name in [
        "train.step",
        "quantize.pack",
        "bs.compute",
        "ue.backward",
        "opt.apply",
    ] {
        assert!(names.contains(&name), "no {name} span in {names:?}");
    }
    assert!(
        inproc
            .iter()
            .filter(|s| s.name == "uplink.transfer")
            .all(|s| s.attr("excess").is_some()),
        "delivered transfers carry their excess slots"
    );
    assert_eq!(inproc.len(), networked.len(), "span counts differ");
    for (a, b) in inproc.iter().zip(&networked) {
        assert_eq!(a, b, "span trees diverge");
    }
}

#[test]
fn validation_between_trainings_leaves_the_next_curve_bit_identical() {
    let ds = dataset(95);
    let cfg = ExperimentConfig::quick(Scheme::ImgRf, PoolingDim::new(4, 4));

    let mut inproc = SplitTrainer::new(cfg.clone(), &ds);
    inproc.train(&ds);
    let reference = inproc.train(&ds);

    let (addr, server) = spawn_bs(1);
    let client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    let mut net = NetTrainer::new(cfg, &ds, client).expect("handshake");
    net.train(&ds).expect("first training");
    let val = net.validate(&ds).expect("validation");
    let after = net.train(&ds).expect("second training");
    net.finish().expect("clean shutdown");
    server.join().expect("server thread");

    // The validation pass is cache-free on both ends: the next training
    // continues exactly as if it had not run.
    assert_eq!(val.to_bits(), reference.curve[0].val_rmse_db.to_bits());
    assert_byte_identical(&reference, &after);
}

#[test]
fn diverging_run_aborts_over_the_link_like_in_process() {
    use sl_core::{HealthAction, HealthConfig, StopReason};

    let ds = dataset(90);
    let mut cfg = ExperimentConfig::quick(Scheme::RfOnly, PoolingDim::new(4, 4));
    cfg.learning_rate = 1.0e4; // guaranteed divergence
    cfg.max_epochs = 20;
    let watchdog = HealthConfig {
        action: HealthAction::Abort,
        patience: 5,
        warmup_steps: 2,
        ..HealthConfig::default()
    };

    let mut inproc = SplitTrainer::new(cfg.clone(), &ds);
    inproc.set_health_config(watchdog.clone());
    let a = inproc.train(&ds);

    let (addr, server) = spawn_bs(1);
    let client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    let mut net = NetTrainer::new(cfg, &ds, client).expect("handshake");
    net.set_health_config(watchdog);
    let b = net.train(&ds).expect("networked training");
    net.finish().expect("clean shutdown");
    server.join().expect("server thread");

    assert_eq!(b.stop, StopReason::HealthAborted);
    assert!(b.epochs < 20, "aborted at epoch {}", b.epochs);
    assert_byte_identical(&a, &b);
}

/// A handshaken RF-only session for driving the client directly.
fn rf_spec() -> SessionSpec {
    SessionSpec {
        scheme: Scheme::RfOnly,
        pooling: PoolingDim::new(4, 4),
        image_h: 16,
        image_w: 16,
        seq_len: 4,
        batch_size: 8,
        conv_channels: 2,
        hidden_dim: 8,
        rnn_cell: sl_core::RnnCell::Lstm,
        bit_depth: 8,
        learning_rate: 5e-3,
        grad_clip: 5.0,
        seed: 7,
        trace_id: 0,
    }
}

fn rf_step_request() -> StepRequest {
    StepRequest {
        batch: 8,
        seq_len: 4,
        pooled_h: 0,
        pooled_w: 0,
        packed: Vec::new(),
        powers: (0..32).map(|i| (i as f32) / 32.0).collect(),
        targets: (0..8).map(|i| (i as f32) / 8.0 - 0.5).collect(),
    }
}

#[test]
fn dropped_request_times_out_and_is_retried() {
    let (addr, server) = spawn_bs(1);
    let retry = RetryPolicy {
        max_extra_attempts: 4,
        read_timeout: Duration::from_millis(150),
        backoff: Duration::from_millis(5),
    };
    let mut client = UeClient::connect(addr, retry).expect("connect");
    client.handshake(&rf_spec()).expect("handshake");

    // Swallow the first request frame entirely: the BS never sees it,
    // the read deadline expires, and the client must resend.
    let plan = FaultPlan::from_actions(vec![FaultAction::Drop]);
    let reply = client
        .train_step(&rf_step_request(), false, plan, FaultPlan::clean(), None)
        .expect("step recovers after timeout");
    assert!(reply.loss.is_finite());
    let m = client.metrics();
    assert_eq!(m.timeouts, 1, "exactly one read deadline expired: {m:?}");
    assert!(m.retries >= 1, "the dropped frame was resent: {m:?}");

    client.shutdown().expect("shutdown");
    let served = server.join().expect("server thread");
    let summary = served[0].1.as_ref().expect("session ok");
    // The server saw one request, served one step — the drop happened
    // before its doorstep.
    assert_eq!(summary.steps, 1);
}

#[test]
fn corrupted_reply_is_nacked_and_resent_without_recomputing() {
    let (addr, server) = spawn_bs(1);
    let mut client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    client.handshake(&rf_spec()).expect("handshake");

    // Corrupt the *reply* in flight: the client Nacks, the server
    // resends the cached frame instead of double-applying the step.
    let plan = FaultPlan::from_actions(vec![FaultAction::Corrupt]);
    let first = client
        .train_step(&rf_step_request(), false, FaultPlan::clean(), plan, None)
        .expect("step recovers after reply corruption");
    assert!(first.loss.is_finite());
    let m = client.metrics();
    assert!(m.nacks_sent >= 1, "corrupted reply must be Nack'd: {m:?}");

    client.shutdown().expect("shutdown");
    let served = server.join().expect("server thread");
    let summary = served[0].1.as_ref().expect("session ok");
    assert_eq!(summary.steps, 1, "the Adam step must not be re-applied");
    assert_eq!(summary.resends, 1);
    assert_eq!(summary.nacks_received, 1);
}

#[test]
fn miswired_handshake_is_rejected_with_the_shape_trace() {
    let (addr, server) = spawn_bs(1);
    let mut client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    let mut spec = rf_spec();
    spec.scheme = Scheme::ImgRf;
    spec.pooling = PoolingDim::new(3, 3); // does not tile 16x16
    match client.handshake(&spec) {
        Err(NetError::HandshakeRejected(detail)) => {
            assert!(detail.contains("does not tile"), "{detail}");
        }
        other => panic!("expected a wiring rejection, got {other:?}"),
    }
    let served = server.join().expect("server thread");
    let summary = served[0].1.as_ref().expect("session closed cleanly");
    assert_eq!(summary.steps, 0);
    assert!(!summary.clean_shutdown);
}

#[test]
fn training_bytes_before_handshake_are_refused() {
    let (addr, server) = spawn_bs(1);
    let mut client = UeClient::connect(addr, RetryPolicy::default()).expect("connect");
    let err = client
        .train_step(
            &rf_step_request(),
            false,
            FaultPlan::clean(),
            FaultPlan::clean(),
            None,
        )
        .expect_err("step without handshake must fail");
    match err {
        NetError::Nack { code, .. } => assert_eq!(code, NackCode::Protocol),
        other => panic!("expected a protocol Nack, got {other}"),
    }
    client.shutdown().expect("shutdown");
    server.join().expect("server thread");
}

#[test]
fn reserved_bit_0_on_a_step_request_gets_a_plain_reply() {
    let (addr, server) = spawn_bs(1);
    let mut conn = Connection::new(TcpStream::connect(addr).expect("connect"));
    conn.send(MsgType::Hello, 0, &rf_spec().encode())
        .expect("send hello");
    assert_eq!(conn.recv().expect("config ack").ty, MsgType::ConfigAck);

    // An older UE sets bit 0 on its step requests to ask for a BS
    // update ratio. The BS ignores the bit: the reply has no flags and
    // holds only the loss, the gradient norm and an empty cut gradient.
    let req = rf_step_request();
    conn.send(req.msg_type(), 0b1, &req.encode())
        .expect("send step");
    let reply = conn.recv().expect("step reply");
    assert_eq!(reply.ty, MsgType::Gradients);
    assert_eq!(reply.flags, 0);
    assert_eq!(reply.payload.len(), 4 + 4 + 4);
    let step = StepReply::decode(&reply.payload).expect("plain reply decodes");
    assert!(step.loss.is_finite() && step.cut_grad.is_empty());

    conn.send(MsgType::Shutdown, 0, &[]).expect("send shutdown");
    assert_eq!(conn.recv().expect("shutdown echo").ty, MsgType::Shutdown);
    let served = server.join().expect("server thread");
    let summary = served[0].1.as_ref().expect("session ok");
    assert_eq!(summary.steps, 1);
    assert!(summary.clean_shutdown);
}

#[test]
fn version_mismatch_is_nacked_and_closed() {
    use sl_net::wire::{fnv1a_64, HEADER_LEN, MAGIC};
    use std::io::{Read, Write};

    let (addr, server) = spawn_bs(1);
    let mut stream = TcpStream::connect(addr).expect("connect");

    // Hand-roll a Heartbeat frame claiming protocol version 99.
    let mut frame = Vec::with_capacity(HEADER_LEN + 8);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&99u16.to_le_bytes()); // bad version
    frame.push(MsgType::Heartbeat as u8);
    frame.push(0); // flags
    frame.extend_from_slice(&0u32.to_le_bytes()); // empty payload
    let sum = fnv1a_64(&frame);
    frame.extend_from_slice(&sum.to_le_bytes());
    stream.write_all(&frame).expect("send bad-version frame");

    // The server Nacks with BadVersion and closes the connection.
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read until close");
    let decoded = sl_net::decode_frame(&reply).expect("reply decodes");
    assert_eq!(decoded.ty, MsgType::Nack);
    let (code, detail) = sl_net::wire::decode_nack(&decoded.payload).expect("nack payload");
    assert_eq!(code, NackCode::BadVersion);
    assert!(detail.contains("version 99"), "{detail}");

    let served = server.join().expect("server thread");
    let summary = served[0].1.as_ref().expect("session closed cleanly");
    assert!(!summary.clean_shutdown);
}
