"""Command-line entry point: ``python -m repro.serve``.

Runs a long-lived service on a UNIX socket::

    python -m repro.serve --socket /tmp/repro.sock --workers 4 \\
        --backends compiled --batch-max 8

Clients speak newline-delimited JSON (see ``docs/serve.md`` for the
frame schema), e.g. with :class:`repro.serve.SocketClient`::

    from repro.serve import SocketClient
    with SocketClient("/tmp/repro.sock") as client:
        reply = client.request({
            "kernel": "csrmv", "backend": "compiled",
            "workload": {
                "matrix": {"gen": "random_csr", "nrows": 64,
                           "ncols": 256, "nnz": 1024, "seed": 7},
                "x": {"gen": "random_dense_vector", "dim": 256,
                      "seed": 8},
            }})

``--selfcheck`` starts an ephemeral in-process service, round-trips
one request per warmed backend, verifies the digests match a direct
:func:`repro.api.run`, and exits — the smoke test CI runs.
"""

import argparse
import asyncio
import signal
import sys

from repro.serve.scheduler import TenantQuota
from repro.serve.service import ServeConfig, Service, ServiceThread


def _backend_list(text):
    from repro.backends import canonical_backend
    from repro.errors import ConfigError

    try:
        names = tuple(canonical_backend(part)
                      for part in text.split(",") if part)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not names:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated backend names, got {text!r}")
    return names


def build_config(args):
    """A :class:`ServeConfig` from parsed CLI arguments."""
    quota = TenantQuota(max_queued=args.quota_queued,
                        max_inflight=args.quota_inflight)
    return ServeConfig(
        workers=args.workers,
        backends=args.backends,
        batch_max=args.batch_max,
        quota=quota,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        default_timeout=args.timeout,
        socket_path=args.socket,
        pipeline_depth=args.pipeline_depth,
        max_queued=args.max_queued,
        use_shm=not args.no_shm,
        kernel_cache_dir=args.kernel_cache_dir,
    )


def selfcheck(config):
    """Round-trip one seeded CsrMV per backend; verify vs repro.api.run."""
    import numpy as np

    from repro import api
    from repro.serve.protocol import result_digest
    from repro.workloads import random_csr, random_dense_vector

    workload = {
        "matrix": {"gen": "random_csr", "nrows": 32, "ncols": 128,
                   "nnz": 512, "seed": 3},
        "x": {"gen": "random_dense_vector", "dim": 128, "seed": 4},
    }
    matrix = random_csr(32, 128, 512, seed=3)
    x = random_dense_vector(128, seed=4)

    config = dataclass_replace(config, socket_path=None, use_cache=False)
    thread = ServiceThread(config).start()
    try:
        for backend in config.backends:
            response = thread.request({"kernel": "csrmv",
                                       "backend": backend,
                                       "workload": workload})
            stats, y = api.run("csrmv", backend=backend, variant="issr",
                               matrix=matrix, x=x)
            direct = result_digest("vector", np.asarray(y))
            assert response["digest"] == direct, \
                f"{backend}: served digest != direct repro.api.run"
            assert response["stats"]["cycles"] == stats.cycles, backend
            print(f"selfcheck {backend}: ok "
                  f"({response['stats']['cycles']} cycles)")
    finally:
        thread.stop()
    print("selfcheck passed")
    return 0


def dataclass_replace(config, **changes):
    """``dataclasses.replace`` without importing it at module top."""
    import dataclasses

    return dataclasses.replace(config, **changes)


async def serve_forever(config):
    """Run a socket service until SIGINT/SIGTERM."""
    service = Service(config)
    await service.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    print(f"repro.serve listening on {config.socket_path} "
          f"({config.workers} workers, backends: "
          f"{', '.join(config.backends)})")
    await stop.wait()
    print("shutting down")
    await service.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running simulation service over warm backends.")
    parser.add_argument("--socket", default="/tmp/repro-serve.sock",
                        metavar="PATH",
                        help="UNIX socket path to listen on")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="warm worker processes (default 2)")
    parser.add_argument("--backends", type=_backend_list,
                        default=("compiled",), metavar="B[,B...]",
                        help="backends each worker pre-constructs "
                             "(default compiled)")
    parser.add_argument("--batch-max", type=int, default=8, metavar="K",
                        help="max compatible requests per worker batch")
    parser.add_argument("--quota-queued", type=int, default=None,
                        metavar="N",
                        help="per-tenant queued-request cap (default none)")
    parser.add_argument("--quota-inflight", type=int, default=None,
                        metavar="N",
                        help="per-tenant in-flight cap (default none)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="default request timeout in seconds")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="point-cache directory (default "
                             ".repro-cache or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the shared on-disk point cache")
    parser.add_argument("--pipeline-depth", type=int, default=2,
                        metavar="K",
                        help="batches kept in flight per worker "
                             "(default 2)")
    parser.add_argument("--max-queued", type=int, default=None,
                        metavar="N",
                        help="global queued-ticket backpressure cap "
                             "(default none)")
    parser.add_argument("--no-shm", action="store_true",
                        help="disable the shared-memory data plane "
                             "(operands/results ride the pipes)")
    parser.add_argument("--kernel-cache-dir", default=None, metavar="DIR",
                        help="persistent compiled-kernel cache workers "
                             "warm-start from (default "
                             "<cache>/kernels)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="start, round-trip one request per backend, "
                             "verify against repro.api.run, and exit")
    args = parser.parse_args(argv)

    config = build_config(args)
    if args.selfcheck:
        return selfcheck(config)
    asyncio.run(serve_forever(config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
