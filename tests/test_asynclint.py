"""Tests for the async-safety linter (repro.verify.asynclint).

Each PL60x rule is demonstrated on a seeded-mutant fixture (an injected
``time.sleep`` in a handler, a leaked background task, an unbounded peer
read, a field shared by two task roots) and, symmetrically, shown *not* to
fire on the corrected form of the same code.  The final class pins the
repo's own ``repro.net`` package clean — the satellite fixes in
server.py / transport.py (retained task refs, bounded peer-I/O awaits,
``_ASYNC_SHARED`` declarations) are regressions the moment they rot.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.net.server import NodeServer
from repro.verify.asynclint import ASYNC_SHARED_ATTR, run_async_lint
from repro.verify.protolint import run_lint

REPO = Path(__file__).resolve().parent.parent


def _lint_source(tmp_path, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_async_lint(project_root=tmp_path, paths=[path])


def _codes(findings):
    return [f.code for f in findings]


# ------------------------------------------------------------------- PL601
class TestBlockingCalls:
    def test_direct_sleep_in_handler_is_pl601(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio, time

            async def handle(reader, writer):
                time.sleep(0.5)
            """,
        )
        assert _codes(findings) == ["PL601"]
        assert "time.sleep" in findings[0].message

    def test_transitive_blocking_via_sync_helper_is_pl601(self, tmp_path):
        # The blocking call hides two sync hops below the coroutine; the
        # finding points at the blocking *site* and names the call chain.
        findings = _lint_source(
            tmp_path,
            """
            import asyncio, pickle

            class Server:
                def _load(self, path):
                    return self._read(path)

                def _read(self, path):
                    return pickle.load(open(path, "rb"))

                async def recover(self, path):
                    return self._load(path)
            """,
        )
        assert _codes(findings) == ["PL601"]
        assert "via" in findings[0].message
        assert "_load" in findings[0].message

    def test_path_write_bytes_in_async_is_pl601(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            async def checkpoint(path, blob):
                path.write_bytes(blob)
            """,
        )
        assert _codes(findings) == ["PL601"]

    def test_executor_offload_is_clean(self, tmp_path):
        # The fixed form: the blocking callable rides run_in_executor as an
        # *argument*, never called from the coroutine itself.
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            class Server:
                def _persist(self, path, blob):
                    path.write_bytes(blob)

                async def checkpoint(self, path, blob):
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, self._persist, path, blob)
            """,
        )
        assert findings == []

    def test_recursion_in_helpers_does_not_loop(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            class C:
                def _walk(self, n):
                    return self._walk(n - 1) if n else 0

                async def go(self):
                    return self._walk(3)
            """,
        )
        assert findings == []


# ------------------------------------------------------------------- PL602
class TestLeakedTasks:
    def test_bare_ensure_future_is_pl602(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            async def main(coro):
                asyncio.ensure_future(coro)
            """,
        )
        assert _codes(findings) == ["PL602"]

    def test_bare_create_task_is_pl602(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            async def main(coro):
                asyncio.create_task(coro)
            """,
        )
        assert _codes(findings) == ["PL602"]

    def test_retained_task_is_clean(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            async def main(coro, tasks):
                tasks.append(asyncio.ensure_future(coro))
                await asyncio.gather(*tasks)
            """,
        )
        assert findings == []


# ------------------------------------------------------------------- PL603
class TestUnboundedPeerIO:
    def test_naked_open_connection_is_pl603(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            async def dial(host, port):
                return await asyncio.open_connection(host, port)
            """,
        )
        assert _codes(findings) == ["PL603"]
        assert "open_connection" in findings[0].message

    def test_naked_readexactly_and_drain_are_pl603(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            async def pump(reader, writer):
                header = await reader.readexactly(4)
                await writer.drain()
                return header
            """,
        )
        assert _codes(findings) == ["PL603", "PL603"]

    def test_wait_for_bounds_the_await(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            async def pump(reader):
                return await asyncio.wait_for(reader.readexactly(4), 5.0)
            """,
        )
        assert findings == []

    def test_timeout_context_bounds_the_subtree(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            async def pump(reader, writer):
                async with asyncio.timeout(5.0):
                    data = await reader.readline()
                    await writer.drain()
                return data
            """,
        )
        assert findings == []


# ------------------------------------------------------------- PL604/PL605
class TestSharedState:
    _TWO_WRITERS = """
        import asyncio

        class Server:
            {decl}
            def __init__(self):
                self.queues = {{}}
                self._tasks = []

            async def _serve(self):
                self.queues["a"] = 1

            async def _pump(self):
                self.queues.clear()

            async def run(self):
                self._tasks.append(asyncio.ensure_future(self._serve()))
                self._tasks.append(asyncio.ensure_future(self._pump()))
                await asyncio.gather(*self._tasks)
    """

    def test_two_task_roots_without_declaration_is_pl604(self, tmp_path):
        findings = _lint_source(tmp_path, self._TWO_WRITERS.format(decl=""))
        assert "PL604" in _codes(findings)
        hit = next(f for f in findings if f.code == "PL604")
        assert "Server.queues" in hit.message
        assert "_pump" in hit.message and "_serve" in hit.message

    def test_declared_shared_field_is_licensed(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            self._TWO_WRITERS.format(
                decl=f'{ASYNC_SHARED_ATTR} = frozenset({{"queues"}})'
            ),
        )
        assert findings == []

    def test_stale_declaration_is_pl605(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            class Server:
                _ASYNC_SHARED = frozenset({"ghost_field"})

                async def _serve(self):
                    pass

                async def run(self):
                    task = asyncio.ensure_future(self._serve())
                    await task
            """,
        )
        assert _codes(findings) == ["PL605"]
        assert "ghost_field" in findings[0].message

    def test_alias_mutation_counts_as_field_write(self, tmp_path):
        # A local bound from self.X then mutated is still a write to X —
        # the idiom `q = self.queues[k]; q.append(...)` must not launder
        # the shared mutation.
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            class Server:
                async def _serve(self):
                    q = self.queues["a"]
                    q.append(1)

                async def _pump(self):
                    self.queues.pop("a", None)

                async def run(self):
                    tasks = [
                        asyncio.ensure_future(self._serve()),
                        asyncio.ensure_future(self._pump()),
                    ]
                    await asyncio.gather(*tasks)
            """,
        )
        assert "PL604" in _codes(findings)

    def test_callback_reference_counts_as_task_root(self, tmp_path):
        # A bare `self._on_traffic` handed to a subscription is a task
        # root even though no task factory wraps it.
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            class Server:
                def _on_traffic(self, ev):
                    self.stamps = ev

                async def _serve(self):
                    self.stamps = None

                async def run(self, bus):
                    bus.subscribe(self._on_traffic)
                    task = asyncio.ensure_future(self._serve())
                    await task
            """,
        )
        assert "PL604" in _codes(findings)

    def test_recovery_sweep_counts_as_node_write(self, tmp_path):
        # NodeServer's sweep is one call into its RecoveryManager, which
        # expires leases and re-probes on the hosted LeaseNodes: two task
        # roots making that call write ``nodes`` from both.
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            class Server:
                def _sweep_body(self):
                    self.recovery.sweep()

                async def _serve(self):
                    self.recovery.sweep()

                async def run(self):
                    self.loop.call_soon(self._sweep_body)
                    task = asyncio.ensure_future(self._serve())
                    await task
            """,
        )
        assert _codes(findings) == ["PL604"]
        assert "Server.nodes" in findings[0].message

    _TRANSPORT = """
        class Transport:
            {decl}
            def send(self, src, dst, message):
                self._queue.append((src, dst, message))
                self.loop.call_soon(self._pump)

            def _pump(self):
                while self._queue:
                    self._queue.popleft()
    """
    _SERVER = """
        from functools import partial
        from typing import Optional

        from transport import Transport

        class Server:
            def __init__(self):
                self.transport: Optional[Transport] = None

            def build(self, node_ids):
                return [partial(self.transport.send, nid) for nid in node_ids]
    """

    def test_root_handed_out_by_another_class(self, tmp_path):
        # Transport.send is a task root only through the server's
        # partial(self.transport.send, ...), resolved by the annotation
        # of self.transport, in another module.
        def lint(decl, *names):
            sources = {"transport.py": self._TRANSPORT.format(decl=decl),
                       "server.py": self._SERVER}
            for name in names:
                (tmp_path / name).write_text(textwrap.dedent(sources[name]))
            return run_async_lint(project_root=tmp_path,
                                  paths=[tmp_path / name for name in names])

        findings = lint("", "transport.py", "server.py")
        assert _codes(findings) == ["PL604"]
        assert "Transport._queue" in findings[0].message
        assert "_pump, send" in findings[0].message
        declared = f'{ASYNC_SHARED_ATTR} = frozenset({{"_queue"}})'
        assert lint(declared, "transport.py", "server.py") == []
        # Without the class that hands send out, the license is stale.
        assert _codes(lint(declared, "transport.py")) == ["PL605"]

    def test_single_writer_design_is_clean(self, tmp_path):
        # The fixed form: one task owns the field; others enqueue.
        findings = _lint_source(
            tmp_path,
            """
            import asyncio

            class Server:
                async def _serve(self, queue):
                    await queue.put(1)

                async def _pump(self, queue):
                    self.state = await queue.get()

                async def run(self, queue):
                    tasks = [
                        asyncio.ensure_future(self._serve(queue)),
                        asyncio.ensure_future(self._pump(queue)),
                    ]
                    await asyncio.gather(*tasks)
            """,
        )
        assert findings == []


# ---------------------------------------------------------------- the repo
class TestRepoIsClean:
    def test_repro_net_has_no_async_findings(self):
        findings = run_async_lint(project_root=REPO)
        assert findings == [], [str(f) for f in findings]

    def test_node_server_declares_nodes_shared(self):
        # The sweep task and the connection handlers both run LeaseNode
        # transitions; the license must stay declared, not be dropped.
        assert "nodes" in NodeServer._ASYNC_SHARED

    def test_full_lint_includes_async_pass_and_stays_clean(self):
        findings = run_lint(project_root=REPO)
        assert findings == [], [str(f) for f in findings]

    def test_findings_are_json_serializable(self, tmp_path):
        findings = _lint_source(
            tmp_path,
            """
            import time

            async def f():
                time.sleep(1)
            """,
        )
        payload = json.dumps([f.to_dict() for f in findings])
        assert "PL601" in payload

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = _lint_source(tmp_path, "async def f(:\n")
        assert _codes(findings) == ["PL000"]
