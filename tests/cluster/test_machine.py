"""Tests for the simulated-cluster transport mechanics.

The central contract: with noise off and the IDEAL profile, an isolated
point-to-point transfer takes *exactly* the extended-LMO time
``C_i + L_ij + C_j + M (t_i + 1/beta_ij + t_j)`` — the simulated hardware
literally implements the model the paper proposes, and all irregularities
are explicit, separately-tested add-ons.
"""

import pytest

from repro.cluster import (
    IDEAL,
    LAM_7_1_3,
    GroundTruth,
    NoiseModel,
    SimulatedCluster,
    random_cluster,
    table1_cluster,
)

KB = 1024


def quiet_cluster(n=4, seed=0, profile=IDEAL):
    spec = random_cluster(n, seed=seed)
    return SimulatedCluster(
        spec,
        ground_truth=GroundTruth.random(n, seed=seed),
        profile=profile,
        noise=NoiseModel.none(),
        seed=seed,
    )


def run_transfer(cluster, src, dst, nbytes):
    """Run one isolated transfer, returning its completion time."""
    done = cluster.sim.spawn(cluster.transmit(src, dst, nbytes))
    cluster.sim.run(until=done)
    return cluster.sim.now


def test_isolated_transfer_matches_lmo_transport_stages_exactly():
    """transmit() covers sender CPU + wire: C_i + M t_i + L_ij + M/beta.
    (Receiver processing C_j + M t_j is charged by the MPI recv call.)"""
    cluster = quiet_cluster()
    gt = cluster.ground_truth
    for nbytes in [0, 1, 1024, 100 * KB]:
        cluster.reset()
        elapsed = run_transfer(cluster, 0, 2, nbytes)
        expected = gt.send_cost(0, nbytes) + gt.wire_time(0, 2, nbytes)
        assert elapsed == pytest.approx(expected, rel=1e-12)
        # Adding the receiver stage completes the extended-LMO p2p time.
        assert expected + gt.send_cost(2, nbytes) == pytest.approx(
            gt.p2p_time(0, 2, nbytes), rel=1e-12
        )


@pytest.mark.parametrize("swap", ["degrade_node", "degrade_link", "assign"])
def test_transfers_follow_a_swapped_ground_truth(swap):
    """The transport reads ground-truth tables cached per GroundTruth
    object; every way of swapping the object must reach the next transfer."""
    cluster = quiet_cluster()
    run_transfer(cluster, 0, 2, 4 * KB)  # warm the tables of the old object
    if swap == "degrade_node":
        cluster.degrade_node(0, 3.0)
    elif swap == "degrade_link":
        cluster.degrade_link(0, 2, latency_factor=2.0, rate_factor=0.5)
    else:
        cluster.ground_truth = GroundTruth.random(4, seed=9)
    gt = cluster.ground_truth
    cluster.reset()
    elapsed = run_transfer(cluster, 0, 2, 4 * KB)
    expected = gt.send_cost(0, 4 * KB) + gt.wire_time(0, 2, 4 * KB)
    assert elapsed == pytest.approx(expected, rel=1e-12)


def test_transfer_requires_distinct_endpoints():
    cluster = quiet_cluster()
    with pytest.raises(ValueError):
        next(cluster.transmit(1, 1, 10))


def test_transfer_rejects_negative_size():
    cluster = quiet_cluster()
    with pytest.raises(ValueError):
        next(cluster.transmit(0, 1, -1))


def test_two_transfers_to_distinct_destinations_share_only_sender_cpu():
    """The switch parallelizes flows to different ports (paper Sec. III):
    the only serialization is the sender's CPU."""
    cluster = quiet_cluster()
    gt = cluster.ground_truth
    sim = cluster.sim
    done1 = sim.spawn(cluster.transmit(0, 1, 10 * KB))
    done2 = sim.spawn(cluster.transmit(0, 2, 10 * KB))
    sim.run()
    slot = gt.send_cost(0, 10 * KB)  # one send's CPU slot
    finish1 = slot + gt.wire_time(0, 1, 10 * KB)
    finish2 = 2 * slot + gt.wire_time(0, 2, 10 * KB)
    assert sim.now == pytest.approx(max(finish1, finish2), rel=1e-12)
    assert done1.processed and done2.processed


def test_two_transfers_into_same_port_serialize_on_the_wire():
    """Flows into the same ingress port share one wire."""
    n = 4
    spec = random_cluster(n, seed=1)
    gt = GroundTruth.random(n, seed=1)
    cluster = SimulatedCluster(
        spec, ground_truth=gt, profile=IDEAL, noise=NoiseModel.none(), seed=1
    )
    nbytes = 50 * KB
    sim = cluster.sim
    sim.spawn(cluster.transmit(1, 0, nbytes))
    sim.spawn(cluster.transmit(2, 0, nbytes))
    sim.run()
    # Senders work in parallel; the later-arriving flow waits for the
    # earlier one's occupancy, and receiver CPU serializes processing.
    arrive = sorted(
        gt.send_cost(s, nbytes) + gt.L[s, 0] for s in (1, 2)
    )
    occupancy = [nbytes / gt.beta[1, 0], nbytes / gt.beta[2, 0]]
    # total wire completion of second flow >= first completion + occupancy
    first_done = arrive[0] + min(occupancy)
    assert sim.now >= first_done + min(occupancy)
    assert cluster.stats.port_waits >= 1


def test_port_wait_counter_zero_without_contention():
    cluster = quiet_cluster()
    run_transfer(cluster, 0, 1, KB)
    assert cluster.stats.port_waits == 0


def test_rendezvous_adds_handshake_and_protocol_overheads():
    n = 3
    gt = GroundTruth.random(n, seed=2)
    spec = random_cluster(n, seed=2)
    lam = SimulatedCluster(spec, ground_truth=gt, profile=LAM_7_1_3,
                           noise=NoiseModel.none(), seed=2)
    ideal = SimulatedCluster(spec, ground_truth=gt, profile=IDEAL,
                             noise=NoiseModel.none(), seed=2)
    nbytes = 100 * KB  # above LAM's 64 KB eager threshold
    t_lam = run_transfer(lam, 0, 1, nbytes)
    t_ideal = run_transfer(ideal, 0, 1, nbytes)
    extra = 2 * gt.L[0, 1] + LAM_7_1_3.sender_protocol_overhead(nbytes)
    assert t_lam == pytest.approx(t_ideal + extra, rel=1e-12)
    assert lam.stats.rendezvous_handshakes == 1
    assert ideal.stats.rendezvous_handshakes == 0


def test_no_rendezvous_below_eager_threshold():
    cluster = quiet_cluster(profile=LAM_7_1_3)
    run_transfer(cluster, 0, 1, 10 * KB)
    assert cluster.stats.rendezvous_handshakes == 0


def test_incast_triggers_escalations_in_medium_range():
    """Many concurrent medium-size flows into one port must RTO sometimes."""
    spec = table1_cluster()
    cluster = SimulatedCluster(spec, profile=LAM_7_1_3, noise=NoiseModel.none(), seed=3)
    nbytes = 32 * KB  # in (M1, M2) for 15 senders
    for _round in range(10):
        cluster.reset()
        for src in range(1, 16):
            cluster.sim.spawn(cluster.transmit(src, 0, nbytes))
        cluster.sim.run()
    assert cluster.stats.escalations > 0
    assert cluster.stats.escalation_time >= cluster.stats.escalations * LAM_7_1_3.rto_base


def test_no_escalations_for_small_messages():
    spec = table1_cluster()
    cluster = SimulatedCluster(spec, profile=LAM_7_1_3, noise=NoiseModel.none(), seed=4)
    for _round in range(10):
        cluster.reset()
        for src in range(1, 16):
            cluster.sim.spawn(cluster.transmit(src, 0, 1 * KB))
        cluster.sim.run()
    assert cluster.stats.escalations == 0


def test_no_escalations_above_window():
    """Flows above the TCP window are paced: deterministic sum regime."""
    spec = table1_cluster()
    cluster = SimulatedCluster(spec, profile=LAM_7_1_3, noise=NoiseModel.none(), seed=5)
    for _round in range(5):
        cluster.reset()
        for src in range(1, 16):
            cluster.sim.spawn(cluster.transmit(src, 0, 80 * KB))
        cluster.sim.run()
    assert cluster.stats.escalations == 0


def test_escalations_never_from_single_sender():
    """A lone saturating stream self-clocks: no RTOs (profile contract)."""
    spec = table1_cluster()
    cluster = SimulatedCluster(spec, profile=LAM_7_1_3, noise=NoiseModel.none(), seed=6)
    for _ in range(50):
        cluster.sim.spawn(cluster.transmit(1, 0, 32 * KB))
    cluster.sim.run()
    assert cluster.stats.escalations == 0


def test_noise_makes_runs_differ_but_seeds_reproduce():
    spec = random_cluster(3, seed=7)
    gt = GroundTruth.random(3, seed=7)

    def measure(seed):
        cluster = SimulatedCluster(spec, ground_truth=gt, profile=IDEAL,
                                   noise=NoiseModel.default(), seed=seed)
        return run_transfer(cluster, 0, 1, 10 * KB)

    assert measure(1) == measure(1)
    assert measure(1) != measure(2)


def test_reset_preserves_rng_state_reseed_restores_it():
    cluster = quiet_cluster()
    cluster.noise = NoiseModel.default()
    t1 = run_transfer(cluster, 0, 1, KB)
    cluster.reset()
    t2 = run_transfer(cluster, 0, 1, KB)
    assert t1 != t2  # fresh noise after reset
    cluster.reseed(0)
    cluster.reset()
    t3 = run_transfer(cluster, 0, 1, KB)
    assert t3 == t1  # reseed restores the sequence


def test_ground_truth_spec_size_mismatch_rejected():
    with pytest.raises(ValueError, match="nodes"):
        SimulatedCluster(random_cluster(4), ground_truth=GroundTruth.random(5))


def test_stats_reset():
    cluster = quiet_cluster()
    run_transfer(cluster, 0, 1, KB)
    assert cluster.stats.messages == 1
    cluster.stats.reset()
    assert cluster.stats.messages == 0
    assert cluster.stats.bytes_sent == 0


def test_escalation_recorded_on_trace_with_rto_label():
    from repro.simlib import Tracer

    spec = table1_cluster()
    cluster = SimulatedCluster(spec, profile=LAM_7_1_3, noise=NoiseModel.none(), seed=3)
    tracer = Tracer()
    cluster.attach_tracer(tracer)
    for _round in range(10):
        cluster.reset()
        for src in range(1, 16):
            cluster.sim.spawn(cluster.transmit(src, 0, 32 * KB))
        cluster.sim.run()
    rto_intervals = [i for i in tracer.intervals if i.label == "R"]
    assert rto_intervals, "ten incast rounds must RTO at least once"
    assert all(i.duration >= LAM_7_1_3.rto_base for i in rto_intervals)
    assert all(i.lane == "port0" for i in rto_intervals)


def test_degrade_node_changes_only_that_node_dynamics():
    cluster = quiet_cluster(n=4, seed=9)
    t_before = run_transfer(cluster, 1, 2, 32 * KB)
    cluster.degrade_node(3, factor=5.0)
    cluster.reset()
    t_after = run_transfer(cluster, 1, 2, 32 * KB)
    assert t_after == pytest.approx(t_before, rel=1e-12)
    cluster.reset()
    t_degraded = run_transfer(cluster, 3, 2, 32 * KB)
    assert t_degraded > t_before
