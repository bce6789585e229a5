"""Concurrent attach/detach: races, forcible takeover, socket hygiene,
and concurrent requests on one held session."""

import os
import random
import socket
import sys
import threading
import time

import pytest

from repro.debugger.errors import (
    DebuggerError,
    RequestTimeoutError,
    ServiceError,
    SessionHeldError,
    SessionTakenError,
)
from repro.replay import TimeTravel
from repro.service import ServiceClient, serve
from repro.service.daemon import PilgrimService, _clear_stale_socket
from repro.service.protocol import wire_decode
from repro.sim.units import SEC
from tests.test_timetravel import postmortem_trace


@pytest.fixture()
def daemon(tmp_path):
    """An in-process daemon on a private socket; yields the socket path."""
    path = str(tmp_path / "svc.sock")
    ready = threading.Event()
    thread = threading.Thread(target=serve, args=(path, ready), daemon=True)
    thread.start()
    assert ready.wait(5)
    yield path
    try:
        ServiceClient(path, connect_retries=1).shutdown()
    except DebuggerError:
        pass
    thread.join(5)


# ----------------------------------------------------------------------
# Racing connects: exactly one winner
# ----------------------------------------------------------------------


def test_racing_connects_have_exactly_one_winner(daemon):
    opener = ServiceClient(daemon, client="opener")
    opener.open("w1", "world", scenario="counter", seed=3)
    opener.close()

    barrier = threading.Barrier(2)
    outcomes: dict = {}

    def race(label):
        client = ServiceClient(daemon, client=label)
        session = client.session("w1")
        barrier.wait()
        try:
            session.connect("app")
            outcomes[label] = "won"
        except SessionHeldError:
            outcomes[label] = "refused"
        finally:
            client.close()

    threads = [threading.Thread(target=race, args=(f"racer-{i}",))
               for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert sorted(outcomes.values()) == ["refused", "won"]


def test_second_connect_refused_without_force(daemon):
    alice = ServiceClient(daemon, client="alice")
    bob = ServiceClient(daemon, client="bob")
    alice.open("w1", "world", scenario="counter", seed=3)
    alice.session("w1").connect("app")
    with pytest.raises(SessionHeldError) as excinfo:
        bob.session("w1").connect("app")
    assert excinfo.value.code == "session_held"
    # force=True takes over; the holder's next request reports eviction.
    bob.session("w1").connect("app", force=True)
    with pytest.raises(SessionTakenError) as excinfo:
        alice.session("w1").status()
    assert excinfo.value.code == "takeover"
    alice.close()
    bob.close()


def test_takeover_evicts_holder_mid_wait(daemon):
    """A forcible connect lands while the holder's wait is in flight.

    The holder's in-flight ``wait_for_event`` must come back as the
    typed ``takeover`` error — never as its own (now-meaningless)
    result or timeout.
    """
    alice = ServiceClient(daemon, client="alice", timeout=120)
    alice.open("w1", "world", scenario="counter", seed=3)
    held = alice.session("w1")
    held.connect("app")

    outcome: dict = {}

    def long_wait():
        try:
            # No breakpoints are set, so this drives the simulated world
            # for a long stretch of virtual time.
            outcome["result"] = held.wait_for_event(timeout=600 * SEC)
        except DebuggerError as exc:
            outcome["error"] = exc

    bob = ServiceClient(daemon, client="bob", timeout=120)
    counted = bob.metrics()["sessions"]["w1"]
    waiter = threading.Thread(target=long_wait, daemon=True)
    waiter.start()
    # The daemon counts a session request under the session's lock just
    # before running it, so once w1's count moves alice's wait is running.
    deadline = time.monotonic() + 60
    while bob.metrics()["sessions"]["w1"] == counted:
        assert time.monotonic() < deadline, "the wait never reached the daemon"
        time.sleep(0.01)

    bob.session("w1").connect("app", force=True)

    waiter.join(120)
    assert not waiter.is_alive()
    assert isinstance(outcome.get("error"), SessionTakenError)
    # The new holder has a working session.
    assert bob.session("w1").status().mode == "sim"
    alice.close()
    bob.close()


def test_disconnect_parks_session_for_next_client(daemon):
    alice = ServiceClient(daemon, client="alice")
    alice.open("w1", "world", scenario="counter", seed=3)
    session = alice.session("w1")
    session.connect("app")
    session.disconnect()
    alice.close()
    # Parked: a different client adopts it without force.
    bob = ServiceClient(daemon, client="bob")
    assert bob.session("w1").status().mode == "sim"
    bob.close()


# ----------------------------------------------------------------------
# Socket hygiene
# ----------------------------------------------------------------------


def test_stale_socket_file_is_cleaned_up(tmp_path):
    path = str(tmp_path / "stale.sock")
    # A killed daemon leaves its socket file behind with no listener.
    leftover = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    leftover.bind(path)
    leftover.close()
    assert os.path.exists(path)

    ready = threading.Event()
    thread = threading.Thread(target=serve, args=(path, ready), daemon=True)
    thread.start()
    assert ready.wait(5)  # bound despite the stale file
    client = ServiceClient(path)
    assert client.ping()["protocol"] >= 1
    client.shutdown()
    client.close()
    thread.join(5)
    assert not os.path.exists(path)


def test_live_daemon_socket_is_not_clobbered(daemon):
    with pytest.raises(ServiceError, match="already listening"):
        _clear_stale_socket(daemon)
    # And the daemon is still healthy afterwards.
    with ServiceClient(daemon) as client:
        assert client.ping()["sessions"] == 0


# ----------------------------------------------------------------------
# Client timeout and retry
# ----------------------------------------------------------------------


def test_client_times_out_against_hung_daemon(tmp_path):
    path = str(tmp_path / "hung.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    accepted = []

    def accept_and_ignore():
        conn, _ = listener.accept()
        accepted.append(conn)  # keep it open, never reply

    acceptor = threading.Thread(target=accept_and_ignore, daemon=True)
    acceptor.start()
    client = ServiceClient(path, timeout=0.3)
    with pytest.raises(RequestTimeoutError) as excinfo:
        client.ping()
    assert excinfo.value.code == "timeout"
    client.close()
    for conn in accepted:
        conn.close()
    listener.close()


def test_client_retries_until_daemon_boots(tmp_path):
    path = str(tmp_path / "late.sock")
    ready = threading.Event()

    def boot_late():
        time.sleep(0.3)
        serve(path, ready)

    thread = threading.Thread(target=boot_late, daemon=True)
    thread.start()
    # The client dials before the socket exists; backoff bridges the gap.
    client = ServiceClient(path, connect_retries=50, retry_delay=0.05)
    assert client.ping()["protocol"] >= 1
    client.shutdown()
    client.close()
    thread.join(5)


def test_client_fails_cleanly_with_no_daemon(tmp_path):
    with pytest.raises(ServiceError, match="cannot reach"):
        ServiceClient(str(tmp_path / "void.sock"), connect_retries=2,
                      retry_delay=0.01)


# ----------------------------------------------------------------------
# Concurrent requests on one session
# ----------------------------------------------------------------------


def test_concurrent_cursor_moves_each_reply_with_their_own_instant(tmp_path):
    """Six threads move one trace session's cursor at once.  A reply's
    ``Moment`` folds its view on the session, so the daemon builds it
    under the session's lock: built while it encodes, another request's
    move would hand it the view of a different cursor."""
    trace = postmortem_trace(14)
    path = tmp_path / "postmortem.trace.bin"
    trace.save(path)
    service = PilgrimService()
    service.handle({"id": 1, "method": "open", "params": {"args": [], "kwargs": {
        "name": "t1", "kind": "trace", "spec": {"path": str(path)}}}})
    wrong, finished = [], []

    def move(seed):
        rng, oracle = random.Random(seed), TimeTravel(trace)
        for _ in range(40):
            method = rng.choice(("at", "reverse_step", "forward_step"))
            args = [rng.randrange(trace.final_time)] if method == "at" else []
            reply = service.handle({"id": 2, "method": method, "session": "t1",
                                    "client": "mover", "params": {"args": args}})
            moment = wire_decode(reply["result"])
            if moment.view != oracle.seek(moment.index).view:
                wrong.append((method, moment.index))
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=move, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(finished) == 6 and wrong == []
