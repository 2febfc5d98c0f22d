use super::*;
use crate::PacingConfig;
use congestion::master::MasterConfig;
use congestion::CcKind;
use cpu_model::{CpuConfig, DeviceProfile};
use netsim::media::MediaProfile;
use sim_core::units::Bandwidth;

fn quick(cc: CcKind, cpu: CpuConfig, conns: usize) -> SimConfig {
    SimConfig::builder(DeviceProfile::pixel4(), cpu, cc, conns)
        .duration(SimDuration::from_secs(3))
        .warmup(SimDuration::from_millis(500))
        .build()
        .expect("valid config")
}

#[test]
fn telemetry_sampling_does_not_change_results() {
    // The determinism contract for flight-data telemetry: sampling only
    // observes, so a sampled run's SimResult is byte-identical to an
    // unsampled one (serialize both to canonical JSON and compare).
    let plain = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 3)).run();
    let sampled =
        StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 3)).run_observed(Instruments {
            telemetry: true,
            ..Instruments::default()
        });
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&sampled.result).unwrap(),
        "telemetry sampling must not perturb any result byte"
    );
    assert!(sampled.trace.is_none(), "tracing was not asked for");
    let log = sampled.telemetry.expect("telemetry attaches the sink");
    assert!(!log.flows.is_empty(), "flow samples collected");
    assert!(!log.queues.is_empty(), "queue samples collected");
    assert_eq!(log.dropped_rows, 0);
    // Rows are time-major and, within an instant, connection-minor.
    for w in log.flows.windows(2) {
        assert!(
            w[0].at < w[1].at || (w[0].at == w[1].at && w[0].conn < w[1].conn),
            "flow rows out of order: {:?} then {:?}",
            (w[0].at, w[0].conn),
            (w[1].at, w[1].conn),
        );
    }
    // One queue row per sampled instant, covering the whole run.
    for w in log.queues.windows(2) {
        assert_eq!(w[1].at.saturating_since(w[0].at), observe::SAMPLE_INTERVAL);
    }
    // Phase strings come from the live CC objects.
    assert!(log.flows.iter().all(|f| !f.phase.is_empty()));
}

#[test]
fn telemetry_log_is_deterministic_across_runs() {
    let run = || {
        let observed =
            StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 2)).run_observed(Instruments {
                telemetry: true,
                ..Instruments::default()
            });
        let log = observed.telemetry.expect("sink attached");
        let mut out = Vec::new();
        sim_core::telemetry::write_jsonl(&log, &mut out).unwrap();
        out
    };
    assert_eq!(run(), run(), "flight data must be byte-identical");
}

#[test]
fn mixed_fleet_competes_through_the_shared_bottleneck() {
    use crate::fleet::FleetConfig;
    use netsim::Qdisc;

    let rate = Bandwidth::from_mbps(150);
    let fleet = FleetConfig::mixed(6).with_shared(FleetConfig::pop_uplink(rate, Qdisc::Codel));
    let cfg = SimConfig::builder(
        DeviceProfile::pixel4(),
        CpuConfig::MidEnd,
        CcKind::Cubic,
        1, // overwritten by .fleet()
    )
    .fleet(fleet)
    .duration(SimDuration::from_secs(3))
    .warmup(SimDuration::from_millis(500))
    .build()
    .expect("valid fleet config");
    let res = StackSim::new(cfg.clone()).run();
    let f = res.fleet.as_ref().expect("fleet runs report fleet metrics");
    assert_eq!(f.devices, 6);
    assert!(f.shared_pkts > 0, "traffic crossed the shared hop");
    assert!(f.aggregate_goodput_mbps > 0.0);
    assert!(
        f.aggregate_goodput_mbps <= rate.as_mbps_f64() * 1.05,
        "fleet goodput {} cannot exceed the shared bottleneck {}",
        f.aggregate_goodput_mbps,
        rate.as_mbps_f64()
    );
    assert!((1.0 / f.devices as f64..=1.0 + 1e-12).contains(&f.jain_devices));
    assert!(!f.tiers.is_empty());
    // Conservation over the whole run: the shared link cannot carry
    // more payload than capacity × duration.
    let cap_bytes = (rate.as_bps() as f64 / 8.0) * cfg.duration.as_secs_f64();
    assert!(
        (f.delivered_bytes as f64) <= cap_bytes,
        "delivered {} > capacity {}",
        f.delivered_bytes,
        cap_bytes
    );
    // Determinism: the same fleet config reproduces byte-identically.
    let again = StackSim::new(cfg).run();
    assert_eq!(
        serde_json::to_string(&res).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
}

#[test]
fn non_fleet_results_omit_the_fleet_field() {
    let res = StackSim::new(quick(CcKind::Cubic, CpuConfig::HighEnd, 1)).run();
    assert!(res.fleet.is_none());
    let json = serde_json::to_string(&res).unwrap();
    assert!(
        !json.contains("\"fleet\""),
        "serialized non-fleet results must not grow a fleet key"
    );
}

#[test]
fn cubic_high_end_reaches_near_line_rate() {
    let res = StackSim::new(quick(CcKind::Cubic, CpuConfig::HighEnd, 1)).run();
    let mbps = res.goodput_mbps();
    assert!(
        mbps > 850.0,
        "High-End Cubic should near 1 Gbps line rate, got {mbps:.0}"
    );
}

#[test]
fn bbr_high_end_reaches_near_line_rate() {
    let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::HighEnd, 1)).run();
    let mbps = res.goodput_mbps();
    assert!(
        mbps > 800.0,
        "High-End BBR should near line rate, got {mbps:.0}"
    );
}

#[test]
fn low_end_cubic_is_cpu_limited() {
    let res = StackSim::new(quick(CcKind::Cubic, CpuConfig::LowEnd, 1)).run();
    let mbps = res.goodput_mbps();
    assert!(
        (250.0..500.0).contains(&mbps),
        "Low-End Cubic should be CPU-limited near the paper's 364 Mbps, got {mbps:.0}"
    );
}

#[test]
fn low_end_bbr_below_cubic() {
    let cubic = StackSim::new(quick(CcKind::Cubic, CpuConfig::LowEnd, 1)).run();
    let bbr = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 1)).run();
    assert!(
        bbr.goodput_mbps() < cubic.goodput_mbps(),
        "Fig 2a: BBR ({:.0}) below Cubic ({:.0}) at Low-End",
        bbr.goodput_mbps(),
        cubic.goodput_mbps()
    );
}

#[test]
fn bbr_degrades_with_connections_on_low_end() {
    let one = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 1)).run();
    let twenty = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 20)).run();
    assert!(
        twenty.goodput_mbps() < 0.75 * one.goodput_mbps(),
        "Fig 2a: BBR@20 ({:.0}) should drop well below BBR@1 ({:.0})",
        twenty.goodput_mbps(),
        one.goodput_mbps()
    );
}

#[test]
fn disabling_pacing_recovers_bbr_low_end() {
    let mut paced = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
    paced.duration = SimDuration::from_secs(3);
    let mut unpaced = paced.clone();
    unpaced.master = MasterConfig::pacing_off();
    let paced = StackSim::new(paced).run();
    let unpaced = StackSim::new(unpaced).run();
    assert!(
        unpaced.goodput_mbps() > 1.5 * paced.goodput_mbps(),
        "Fig 4: unpaced BBR ({:.0}) ≫ paced ({:.0}) on Low-End/20conns",
        unpaced.goodput_mbps(),
        paced.goodput_mbps()
    );
}

#[test]
fn unpaced_bbr_has_higher_rtt() {
    let paced = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
    let mut unpaced = paced.clone();
    unpaced.master = MasterConfig::pacing_off();
    let paced = StackSim::new(paced).run();
    let unpaced = StackSim::new(unpaced).run();
    assert!(
        unpaced.mean_rtt_ms > 1.5 * paced.mean_rtt_ms,
        "Fig 7: unpaced RTT ({:.2}ms) should far exceed paced ({:.2}ms)",
        unpaced.mean_rtt_ms,
        paced.mean_rtt_ms
    );
}

#[test]
fn shallow_buffer_explodes_retx_when_unpaced() {
    let mut paced = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
    paced.path = MediaProfile::Ethernet.path_config().with_queue_packets(10);
    let mut unpaced = paced.clone();
    unpaced.master = MasterConfig::pacing_off();
    let paced = StackSim::new(paced).run();
    let unpaced = StackSim::new(unpaced).run();
    assert!(
        unpaced.total_retx > 10 * paced.total_retx.max(1),
        "§5.2.3: unpaced retx ({}) ≫ paced ({})",
        unpaced.total_retx,
        paced.total_retx
    );
}

#[test]
fn stride_improves_low_end_bbr() {
    let stride1 = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
    let mut stride10 = stride1.clone();
    stride10.pacing = PacingConfig::with_stride(10);
    let r1 = StackSim::new(stride1).run();
    let r10 = StackSim::new(stride10).run();
    assert!(
        r10.goodput_mbps() > 1.3 * r1.goodput_mbps(),
        "Fig 8: stride 10 ({:.0}) should beat stride 1 ({:.0}) on Low-End",
        r10.goodput_mbps(),
        r1.goodput_mbps()
    );
}

#[test]
fn determinism_same_seed_same_result() {
    let a = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 5)).run();
    let b = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 5)).run();
    assert_eq!(a.total_goodput, b.total_goodput);
    assert_eq!(a.total_retx, b.total_retx);
    assert_eq!(a.counters.get("skbs_sent"), b.counters.get("skbs_sent"));
}

#[test]
fn lte_is_bandwidth_limited_bbr_matches_cubic() {
    let mut cfg = quick(CcKind::Bbr, CpuConfig::LowEnd, 4);
    cfg.path = MediaProfile::Lte.path_config();
    let bbr = StackSim::new(cfg).run();
    let mut cfg2 = quick(CcKind::Cubic, CpuConfig::LowEnd, 4);
    cfg2.path = MediaProfile::Lte.path_config();
    let cubic = StackSim::new(cfg2).run();
    let ratio = bbr.goodput_mbps() / cubic.goodput_mbps();
    assert!(
        (0.8..1.25).contains(&ratio),
        "Fig 9: on LTE BBR ({:.1}) ≈ Cubic ({:.1})",
        bbr.goodput_mbps(),
        cubic.goodput_mbps()
    );
}

#[test]
fn pacing_improves_cubic_fairness() {
    // Sec 5.2.3 cites Aggarwal'00 / Wei'06: "packet pacing improves ...
    // TCP fairness". Unpaced Cubic through a droptail queue shows
    // capture effects; the same Cubic with TCP-internal pacing spreads
    // arrivals and shares better. (BBRv1's own same-path fairness is
    // poor on sub-10 s horizons — the stale-min_rtt cwnd lock — both
    // here and in the literature, so Cubic carries this claim.)
    let mut unpaced_cfg = quick(CcKind::Cubic, CpuConfig::HighEnd, 10);
    unpaced_cfg.duration = SimDuration::from_secs(8);
    let mut paced_cfg = unpaced_cfg.clone();
    paced_cfg.master = MasterConfig::pacing_on();
    let unpaced = StackSim::new(unpaced_cfg).run();
    let paced = StackSim::new(paced_cfg).run();
    assert!(
        paced.fairness > unpaced.fairness,
        "paced Cubic ({:.2}) should out-share unpaced Cubic ({:.2})",
        paced.fairness,
        unpaced.fairness
    );
    assert!(
        paced.fairness > 0.6,
        "paced Cubic Jain index {} too unfair",
        paced.fairness
    );
}

#[test]
fn random_loss_recovers_and_still_delivers() {
    // 0.5% netem loss on the uplink: recovery machinery must keep the
    // pipe productive and every loss must be repaired eventually.
    let mut cfg = quick(CcKind::Cubic, CpuConfig::HighEnd, 2);
    cfg.duration = SimDuration::from_secs(2);
    cfg.path = MediaProfile::Ethernet
        .path_config()
        .with_forward_netem(netsim::netem::NetemConfig::none().with_loss(0.005));
    let res = StackSim::new(cfg).run();
    assert!(res.total_retx > 0, "losses must occur");
    assert!(
        res.goodput_mbps() > 100.0,
        "loss recovery keeps the pipe productive: {:.0}",
        res.goodput_mbps()
    );
    assert!(
        res.counters.get("rto_fires") < 50,
        "fast recovery, not RTO storms"
    );
}

#[test]
fn cross_traffic_consumes_capacity() {
    let mut clean = quick(CcKind::Cubic, CpuConfig::HighEnd, 4);
    clean.duration = SimDuration::from_secs(2);
    let mut loaded = clean.clone();
    loaded.cross_traffic = Some(netsim::crosstraffic::CrossTrafficConfig::at(
        Bandwidth::from_mbps(600),
    ));
    let clean = StackSim::new(clean).run();
    let loaded = StackSim::new(loaded).run();
    assert!(
        loaded.counters.get("cross_pkts") > 0,
        "cross source must inject"
    );
    assert!(
        loaded.goodput_mbps() < 0.75 * clean.goodput_mbps(),
        "600 Mbps of cross traffic must take a real bite: {:.0} vs {:.0}",
        loaded.goodput_mbps(),
        clean.goodput_mbps()
    );
}

#[test]
fn cycle_breakdown_shows_the_pacing_tax() {
    // The paper's claim, visible in the accounting: paced BBR spends a
    // substantial share of its cycles on timer traffic; unpaced BBR
    // spends none.
    let paced = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 20)).run();
    let mut unpaced_cfg = quick(CcKind::Bbr, CpuConfig::LowEnd, 20);
    unpaced_cfg.master = MasterConfig::pacing_off();
    let unpaced = StackSim::new(unpaced_cfg).run();

    let share = |stats: &cpu_model::CpuStats, cat: &str| {
        *stats.cycles_by_category.get(cat).unwrap_or(&0) as f64 / stats.total_cycles.max(1) as f64
    };
    assert!(
        share(&paced.cpu, "timers") > 0.05,
        "paced timers share {:.3} should be substantial",
        share(&paced.cpu, "timers")
    );
    assert_eq!(
        share(&unpaced.cpu, "timers"),
        0.0,
        "no pacing timers when unpaced"
    );
    // Categories partition the total.
    assert_eq!(
        paced.cpu.cycles_by_category.values().sum::<u64>(),
        paced.cpu.total_cycles
    );
}

#[test]
fn steady_state_never_misses_the_buffer_pools() {
    // The run/SACK pools warm up during slow start; once measurement
    // begins every take() must be served from the pool — a steady-state
    // miss means the hot path hit the allocator.
    let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 5)).run();
    assert_eq!(
        res.counters.get("pool_run_misses_steady"),
        0,
        "run-list pool missed during the measurement window"
    );
    assert_eq!(
        res.counters.get("pool_sack_misses_steady"),
        0,
        "SACK pool missed during the measurement window"
    );
    // And the steady-cycle partition must add up.
    let parts = res.counters.get("cycles_steady_timers")
        + res.counters.get("cycles_steady_acks")
        + res.counters.get("cycles_steady_cc_model")
        + res.counters.get("cycles_steady_data")
        + res.counters.get("cycles_steady_other");
    assert_eq!(parts, res.counters.get("cycles_steady_total"));
    assert!(res.counters.get("cycles_steady_total") > 0);
}

#[test]
fn one_run_skbs_carry_their_range_without_a_pooled_buffer() {
    // A loss-free single flow: every skb's accepted packets form one run,
    // which rides in the event itself, so the run pool stays (all but)
    // untouched for the whole run.
    let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::HighEnd, 1)).run();
    assert_eq!(res.total_retx, 0, "the path must be loss-free");
    assert!(res.counters.get("pkts_sent") > 1000, "data must flow");
    assert!(
        res.counters.get("pool_run_misses") <= 1,
        "one-run skbs took {} pooled run lists",
        res.counters.get("pool_run_misses")
    );
}

#[test]
fn multi_run_skbs_from_a_lossy_path_reach_the_receiver() {
    // 2 % netem loss splits skbs into several runs: those park a pooled
    // list, and every packet the wire accepted either reached the receiver
    // or still rides a pending arrival event when the run ends.
    let mut cfg = quick(CcKind::Cubic, CpuConfig::HighEnd, 2);
    cfg.duration = SimDuration::from_secs(2);
    cfg.path = MediaProfile::Ethernet
        .path_config()
        .with_forward_netem(netsim::netem::NetemConfig::none().with_loss(0.02));
    let mut sim = StackSim::new(cfg);
    sim.run_to_end();
    let pool = &sim.run_pool;
    assert!(pool.takes() > 0, "multi-run skbs must take a list");
    assert!(pool.reuses() > 0, "delivered lists come back");
    assert_eq!(pool.misses(), pool.takes() - pool.reuses(), "pool-identity");

    let accepted: u64 = sim.arena.hot.iter().map(|h| h.accepted_pkts).sum();
    let delivered: u64 = sim
        .arena
        .receiver
        .iter()
        .map(|r| r.total_received() + r.duplicates())
        .sum();
    let mut pending = 0;
    while let Some(ev) = sim.queue.pop() {
        match ev.event {
            Event::SkbArrival { pkts, .. } => pending += u64::from(pkts),
            Event::SkbRunsArrival { runs, .. } => {
                let runs = sim.run_slots.unstash(runs);
                pending += runs.iter().map(|(lo, hi)| hi.since(*lo)).sum::<u64>();
            }
            _ => {}
        }
    }
    // The event loop drops the one event it popped past the end: at most
    // one skb's packets are unaccounted for.
    let unaccounted = accepted - delivered - pending;
    assert!(
        unaccounted <= crate::pacing::GSO_MAX_BYTES / MSS,
        "{unaccounted} accepted packets never reached the receiver"
    );
}

#[test]
fn accounting_identities_hold_in_results() {
    // The identities simcheck's oracles rely on, checked once here on a
    // representative run: pool misses equal takes minus reuses, the
    // timer wheel conserves tokens, receive-side conservation holds,
    // and no terminal sequence regression occurred.
    let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::MidEnd, 3)).run();
    let g = |name| res.counters.get(name);
    assert_eq!(
        g("pool_run_misses"),
        g("pool_run_takes") - g("pool_run_reuses")
    );
    assert_eq!(
        g("pool_sack_misses"),
        g("pool_sack_takes") - g("pool_sack_reuses")
    );
    assert!(g("pool_slab_takes") > 0, "slab must see traffic");
    assert_eq!(
        g("pool_slab_misses"),
        g("pool_slab_takes") - g("pool_slab_reuses")
    );
    assert!(g("pool_stamp_takes") > 0, "stamp ring must see traffic");
    assert_eq!(
        g("pool_stamp_misses"),
        g("pool_stamp_takes") - g("pool_stamp_reuses")
    );
    assert_eq!(
        g("wheel_scheduled"),
        g("wheel_popped") + g("wheel_cancelled") + g("wheel_pending"),
        "timer wheel must conserve tokens"
    );
    assert!(
        g("rx_pkts_received") + g("rx_duplicates") <= g("rx_pkts_accepted"),
        "receiver cannot see more packets than survived the wire"
    );
    assert_eq!(g("seq_regressions"), 0);
    assert_eq!(g("sack_incoherent"), 0);
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    // Every instrument must be an observer: same config, same seed, each
    // on/off combination of the instruments, identical results. The
    // pattern below names every `Instruments` field, so a new instrument
    // does not compile here until this test covers it.
    let plain = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 3)).run();
    for trace in [false, true] {
        for telemetry in [false, true] {
            let instruments = Instruments { trace, telemetry };
            let observed = StackSim::new(quick(CcKind::Bbr, CpuConfig::LowEnd, 3))
                .run_observed(instruments.clone());
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&observed.result).unwrap(),
                "{instruments:?} must not perturb any result byte"
            );
            let Instruments { trace, telemetry } = instruments;
            assert_eq!(observed.telemetry.is_some(), telemetry);
            if let Some(flight) = &observed.telemetry {
                assert!(!flight.flows.is_empty() && !flight.queues.is_empty());
            }
            assert_eq!(observed.trace.is_some(), trace);
            let Some(log) = observed.trace else {
                continue;
            };
            // The log itself is well-formed: time-ordered, with the
            // windowed CPU profile appended as counter series, and paced
            // BBR has left pacing-timer, CC and CPU tracepoints behind.
            use sim_core::trace::TraceKind;
            assert!(log.events.windows(2).all(|w| w[0].at <= w[1].at));
            assert!(log.counters.iter().any(|s| s.name.starts_with("cycles.")));
            assert!(log.events.iter().any(|e| e.kind == TraceKind::PacingFire));
            assert!(log.events.iter().any(|e| e.kind == TraceKind::CwndUpdate));
            assert!(log.events.iter().any(|e| e.kind == TraceKind::CpuSpan));
        }
    }
}

#[test]
fn counters_track_pacing_activity() {
    let res = StackSim::new(quick(CcKind::Bbr, CpuConfig::MidEnd, 2)).run();
    assert!(
        res.counters.get("timer_fires") > 0,
        "paced BBR must fire timers"
    );
    assert!(res.counters.get("skbs_sent") > 0);
    let cubic = StackSim::new(quick(CcKind::Cubic, CpuConfig::MidEnd, 2)).run();
    assert_eq!(
        cubic.counters.get("timer_arms"),
        0,
        "unpaced Cubic arms no pacing timers"
    );
}
