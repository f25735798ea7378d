"""FaultyTransport: seeded wire faults mirror the disk-fault machinery."""

import socket
import threading

import pytest

from repro.errors import NetworkError, NetworkTimeoutError
from repro.net import protocol
from repro.net.transport import FaultyTransport, Transport
from repro.storage.faults import FaultPlan

pytestmark = pytest.mark.net


def pair(plan=None):
    """A connected (faulty_sender, plain_receiver) transport pair."""
    a, b = socket.socketpair()
    sender = FaultyTransport(a, plan) if plan is not None else Transport(a)
    return sender, Transport(b)


class TestFaultPlanFrames:
    def test_frame_counter_is_plan_wide(self):
        plan = FaultPlan(disconnect_at_frame=3)
        assert plan.on_net_frame(10)[0] == "ok"
        assert plan.on_net_frame(10)[0] == "ok"
        assert plan.on_net_frame(10)[0] == "disconnect"
        assert plan.frame_count == 3

    def test_partial_send_is_strict_prefix(self):
        plan = FaultPlan(seed=7, partial_send_at=1)
        fault, cut = plan.on_net_frame(100)
        assert fault == "partial"
        assert 0 <= cut < 100

    def test_net_error_is_persistent_until_healed(self):
        plan = FaultPlan(net_error_at_frame=2)
        assert plan.on_net_frame(5)[0] == "ok"
        assert plan.on_net_frame(5)[0] == "down"
        assert plan.on_net_frame(5)[0] == "down"
        plan.heal_net()
        assert plan.on_net_frame(5)[0] == "ok"

    def test_stall_reports_duration(self):
        plan = FaultPlan(stall_at_frame=1, stall_seconds=0.125)
        assert plan.on_net_frame(5) == ("stall", 0.125)


class TestFaultyTransport:
    def test_clean_frames_pass_through(self):
        sender, receiver = pair(FaultPlan())
        try:
            sender.send(protocol.RESULT, {"seq": 1})
            kind, body = receiver.recv(timeout=2.0)
            assert kind == protocol.RESULT
            assert protocol.unpack_json(kind, body) == {"seq": 1}
        finally:
            sender.close()
            receiver.close()

    def test_disconnect_tears_the_connection(self):
        sender, receiver = pair(FaultPlan(disconnect_at_frame=1))
        try:
            with pytest.raises(NetworkError):
                sender.send(protocol.RESULT, {"seq": 1})
            assert sender.closed
            with pytest.raises(NetworkError):
                receiver.recv(timeout=2.0)
        finally:
            sender.close()
            receiver.close()

    def test_partial_send_never_yields_a_whole_frame(self):
        # Across every cut point the receiver either times out waiting
        # for the rest or sees EOF -- it must never decode the frame.
        for seed in range(5):
            sender, receiver = pair(FaultPlan(seed=seed, partial_send_at=1))
            try:
                with pytest.raises(NetworkError):
                    sender.send(protocol.RESULT, {"seq": 99, "v": "x" * 50})
                with pytest.raises((NetworkError, NetworkTimeoutError)):
                    receiver.recv(timeout=0.5)
            finally:
                sender.close()
                receiver.close()

    def test_heal_net_restores_service(self):
        plan = FaultPlan(net_error_at_frame=1)
        sender, receiver = pair(plan)
        try:
            with pytest.raises(NetworkError):
                sender.send(protocol.RESULT, {"seq": 1})
            plan.heal_net()
            # The first failure closed the socket; a healed plan lets a
            # fresh connection through.
            sender2, receiver2 = pair(plan)
            try:
                sender2.send(protocol.RESULT, {"seq": 2})
                kind, _ = receiver2.recv(timeout=2.0)
                assert kind == protocol.RESULT
            finally:
                sender2.close()
                receiver2.close()
        finally:
            sender.close()
            receiver.close()

    def test_receiver_timeout_is_structured(self):
        sender, receiver = pair()
        try:
            with pytest.raises(NetworkTimeoutError):
                receiver.recv(timeout=0.05)
        finally:
            sender.close()
            receiver.close()

    def test_a_frame_cut_short_by_the_timeout_completes_on_the_next_recv(self):
        """The bytes that arrived before the wait ran out are kept, so a
        reader that waits again (the replica's feed does) gets the
        frame whole, and the frames after it."""
        sender, receiver = pair()
        try:
            frames = [protocol.pack(protocol.RESULT, {"seq": seq, "x": "y" * 40})
                      for seq in (1, 2)]
            for cut in (3, 20):  # inside the header, inside the payload
                stream = b"".join(frames)
                sender._sendall(stream[:cut])
                with pytest.raises(NetworkTimeoutError):
                    receiver.recv(timeout=0.05)
                sender._sendall(stream[cut:])
                for seq in (1, 2):
                    kind, body = receiver.recv(timeout=2.0)
                    assert protocol.unpack_json(kind, body)["seq"] == seq
        finally:
            sender.close()
            receiver.close()

    def test_corrupt_frame_poisons_the_stream(self):
        a, b = socket.socketpair()
        sender, receiver = Transport(a), Transport(b)
        try:
            frame = bytearray(protocol.pack(protocol.RESULT, {"seq": 1}))
            frame[-1] ^= 0xFF
            sender._sendall(bytes(frame))
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError):
                receiver.recv(timeout=2.0)
            assert receiver.closed
        finally:
            sender.close()
            receiver.close()
