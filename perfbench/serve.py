"""Start the serving edge (what ``pvi-serve`` runs) from the checkout.

    python3 perfbench/serve.py [--trace-file PATH] -- [pvi-serve args]

Without ``--trace-file`` this is exactly ``pvi-serve``.  With it, the
span wrappers of :mod:`spans` are installed in the server process
(process-pool workers stay untraced: one opaque hop per image);
``SIGUSR1`` starts recording and ``SIGUSR2`` stops it and writes the
per-layer summary and the ``/deploy`` service times to PATH.  Either
way the server shuts down by itself once the process that started it
is gone.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time

import common


def _install_tracing(server, path: str) -> None:
    from spans import Tracer, install_layers, layer_metrics
    tracer = install_layers(Tracer())
    tracer.patch_method(server.EdgeServer, "_serve_work", "edge.serve",
                        is_async=True)
    original_start = server.EdgeServer.start

    def begin() -> None:
        tracer.reset()
        tracer.enabled = True

    def dump() -> None:
        tracer.enabled = False
        serve = tracer.flats["edge.serve"]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as out:
            json.dump({"serve_s": serve,
                       "layers": layer_metrics(tracer, len(serve))}, out)
        os.replace(tmp, path)      # the generator polls for the file

    async def start(self):
        started = await original_start(self)
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGUSR1, begin)
        loop.add_signal_handler(signal.SIGUSR2, dump)
        return started

    server.EdgeServer.start = start


def _exit_with_parent() -> None:
    """Shut down (``SIGINT``, then ``SIGKILL`` to the whole process
    group, pool workers included) once the process that started this
    server is gone, even if it was killed without cleaning up."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(10)
        if os.getpgid(0) == os.getpid():     # started as its own group
            os.killpg(0, signal.SIGKILL)
        os.kill(os.getpid(), signal.SIGKILL)

    threading.Thread(target=watch, daemon=True).start()


def main(argv) -> int:
    common.bootstrap()
    _exit_with_parent()
    trace_file = None
    if argv[:1] == ["--trace-file"]:
        trace_file, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.service.edge import server
    if trace_file is not None:
        _install_tracing(server, trace_file)
    return server.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
