"""The benchmark's three workloads on the paper's ``cifar10_full`` at 3x32x32.

Each workload function builds its seeded inputs, runs its set-up (timed as
``setup_s``), runs its timed loop for ``seconds``, then checks the
program's outputs against an independent computation or a property of the
method.  It returns a :class:`Result`.  With an enabled :class:`Tracer` it
also records spans around every call into the layers it reaches; the
traced runs alternate traced and untraced work so that the tracing
overhead is measured inside one process.

* ``infer_b64`` — closed loop of ``BatchedEngine.run`` at batch 64.
* ``finetune_b64`` — Algorithm-1 phase-1 fine-tuning through ``Trainer``.
* ``serve_open`` — open-loop Poisson traffic into a thread-backend
  ``ServerRuntime`` cold-started from an ``ArtifactStore``.

The program receives only the generated inputs; nothing here changes how
it runs.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.dfp import dfp_to_codes
from repro.core.engine import BatchedEngine, execute_deployed
from repro.core.mfdfp import MFDFPNetwork, deploy_calibrated
from repro.core.pipeline import MFDFPConfig
from repro.core.pow2 import pow2_decode4
from repro.datasets import cifar10_surrogate
from repro.hw import TileScheduler
from repro.io.store import ArtifactStore
from repro.nn.data import BatchIterator
from repro.nn.loss import SoftmaxCrossEntropy
from repro.nn.optim import SGD, PlateauScheduler
from repro.nn.trainer import Trainer
from repro.serve import ModelRegistry, ServeError, ServerRuntime
from repro.zoo import cifar10_full, cifar10_small

from tracing import Tracer

MODEL = "cifar10_full"
REPLAY_STEPS = 2  # fine-tuning steps replayed eagerly by the bit-identity check
MIN_EPOCHS = 2  # the falling-loss check compares the first and the last epoch
ENGINE_OPS = ("conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "ip1")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale (``PAPER`` or the self-test's ``TINY``)."""

    image: int = 32
    width: Optional[int] = None  # None: cifar10_full; else cifar10_small at this width
    n_calib: int = 256
    batch: int = 64
    infer_pool_batches: int = 8
    check_samples: int = 8
    n_train: int = 512
    n_val: int = 256
    eval_batch: int = 256
    rate: float = 80.0
    serve_pool: int = 256


PAPER = Sizes()
TINY = Sizes(
    image=16, width=8, n_calib=32, batch=8, infer_pool_batches=2, check_samples=4,
    n_train=64, n_val=32, eval_batch=32, rate=50.0, serve_pool=16,
)


@dataclass
class Result:
    setup_s: float
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> [ok, detail]
    e2e: dict = field(default_factory=dict)  # end-to-end metric name -> value
    layers: dict = field(default_factory=dict)  # per-layer metric name -> value
    report: list = field(default_factory=list)  # human-readable lines

    def check(self, name: str, ok, detail: str = "") -> None:
        self.checks[name] = [bool(ok), detail]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def build_net(sizes: Sizes, seed: int):
    rng = _rng(seed, 1)
    if sizes.width is None:
        return cifar10_full(rng=rng)
    return cifar10_small(size=sizes.image, width=sizes.width, rng=rng)


def surrogate(sizes: Sizes, n_train: int, n_test: int, seed: int):
    return cifar10_surrogate(n_train=n_train, n_test=n_test, size=sizes.image, seed=seed)


def is_pow2_or_zero(w: np.ndarray, min_exp: int = -1 << 30, max_exp: int = 1 << 30) -> bool:
    """Every value is 0 or ±2^e with min_exp <= e <= max_exp."""
    w = np.asarray(w, dtype=np.float64)
    mant, exp2 = np.frexp(w)  # w = mant * 2^exp2, |mant| in [0.5, 1)
    exp = exp2 - 1
    pow2 = (np.abs(mant) == 0.5) & (exp >= min_exp) & (exp <= max_exp)
    return bool(np.all((w == 0) | pow2))


def _ms(seconds) -> float:
    return float(seconds) * 1e3


def _median(values) -> float:
    return float(np.median(values)) if len(values) else float("nan")


# -- infer_b64 -----------------------------------------------------------------------
def conv_macs(deployed, engine: BatchedEngine, batch: int) -> dict:
    """MACs per op at ``batch``, counted from layer shapes: Cin*Cout*K^2*Hout*Wout/groups."""
    macs = {}
    for op, compiled in zip(deployed.ops, engine.program):
        if op.kind == "conv":
            _, h_out, w_out = compiled.out_shape
            k = op.kernel_size
            per_sample = op.in_channels * op.out_channels * k * k * h_out * w_out // (op.groups or 1)
            macs[op.name] = per_sample * batch
        elif op.kind == "dense":
            macs[op.name] = op.in_features * op.out_features * batch
    return macs


def _engine_traced(engine: BatchedEngine, x: np.ndarray, tracer: Tracer):
    """``BatchedEngine.run_codes`` op by op: the input quantizer, then each kernel."""
    with tracer.span("engine.batch"):
        with tracer.span("engine.input"):
            codes = dfp_to_codes(x, engine.input_fmt)
        moved = codes.nbytes
        for op in engine.program:
            with tracer.span("engine." + op.name):
                codes = op.kernel(codes, engine.check_widths)
            moved += codes.nbytes
    return codes, moved


def infer_b64(sizes: Sizes, seed: int, seconds: float, tracer: Tracer, work: Path, setup_only=False) -> Result:
    calib, pool = surrogate(sizes, sizes.n_calib, sizes.infer_pool_batches * sizes.batch, seed)
    net = build_net(sizes, seed)
    t0 = time.perf_counter()
    with tracer.span("setup.quantize"):
        deployed = deploy_calibrated(net, calib.x)
    with tracer.span("setup.compile"):
        engine = BatchedEngine(deployed)
    res = Result(setup_s=time.perf_counter() - t0)
    if setup_only:
        return res

    traced = tracer.enabled
    b = sizes.batch
    batches = [pool.x[i * b : (i + 1) * b] for i in range(sizes.infer_pool_batches)]
    to_codes = 2.0 ** deployed.ops[-1].out_frac
    times, traced_times = [], []
    lo, hi, integral, moved = np.inf, -np.inf, True, 0
    first_codes = None
    n = 0
    start = time.perf_counter()
    while True:
        x = batches[n % len(batches)]
        # A traced run alternates untraced and traced batches: the untraced
        # ones give this run's latency, the pairs give the tracing overhead.
        trace_this = traced and n % 2 == 1
        t = time.perf_counter()
        if trace_this:
            codes, moved = _engine_traced(engine, x, tracer)
            traced_times.append(time.perf_counter() - t)
        else:
            out = engine.run(x)
            times.append(time.perf_counter() - t)
            codes = out * to_codes
        lo, hi = min(lo, codes.min()), max(hi, codes.max())
        integral = integral and bool(np.all(codes == np.rint(codes)))
        if first_codes is None:
            first_codes = codes
        n += 1
        if time.perf_counter() - start >= seconds and len(times) >= 2:
            break
    wall = time.perf_counter() - start
    res.attempted = n

    # -- checks ---------------------------------------------------------------
    res.check("codes_in_int8", lo >= -128 and hi <= 127 and integral, f"codes span [{lo:g}, {hi:g}]")
    res.check(
        "weights_pow2",
        all(is_pow2_or_zero(pow2_decode4(op.weight_codes)) for op in deployed.compute_ops()),
        "every decoded weight is 0 or ±2^k",
    )
    sub = batches[0][: sizes.check_samples]
    spec = execute_deployed(deployed, sub)
    res.check(
        "equals_execute_deployed",
        np.array_equal(first_codes[: len(sub)], spec),
        f"{len(sub)} samples against the executable spec",
    )
    # deploy_calibrated quantized ``net`` in place: its forward pass is the
    # float-simulated MF-DFP network (MFDFPNetwork.logits delegates to it).
    sim = np.rint(net.logits(sub) * to_codes)
    gap = float(np.max(np.abs(sim - spec)))
    res.check("within_1_of_float_sim", gap <= 1, f"max |codes - rint(logits*2^f)| = {gap:g}")
    macs = conv_macs(deployed, engine, b)
    schedule = {l.name: l for l in TileScheduler().schedule_deployed_batch(deployed, b).layers}
    mismatched = [name for name, m in macs.items() if schedule[name].macs != m]
    conv_total = sum(m for name, m in macs.items() if name.startswith("conv"))
    res.check(
        "macs_match_scheduler",
        not mismatched,
        f"conv MACs per batch {conv_total / 1e6:.1f}M; mismatched: {mismatched or 'none'}",
    )

    # -- end-to-end -----------------------------------------------------------
    run_s = wall if not traced else sum(times)
    res.e2e = {
        "samples_per_s": len(times) * b / run_s,
        "latency_p50_ms": _ms(np.median(times)),
    }
    res.report.append(
        f"infer_b64: {len(times)} untraced batches of {b} in {run_s:.2f} s; "
        f"batch p50 {res.e2e['latency_p50_ms']:.1f} ms"
    )
    if not traced:
        return res

    # -- per layer ------------------------------------------------------------
    names = ["input"] + [op.name for op in engine.program]
    per_op = {name: _ms(_median(tracer.durations("engine." + name))) for name in names}
    conv_s = sum(per_op[name] for name in macs if name.startswith("conv")) / 1e3
    res.layers = {
        "setup.quantize_s": tracer.durations("setup.quantize")[0],
        "setup.compile_s": tracer.durations("setup.compile")[0],
        "engine.input_ms": per_op["input"],
        **{f"engine.{name}_ms": per_op[name] for name in ENGINE_OPS},
        "engine.conv_gmac_per_s": conv_total / conv_s / 1e9,
        "engine.codes_mb": moved / 2**20,
    }
    res.report.append(f"{'op':>8} {'measured ms':>12} {'modeled cycles':>15} {'MACs':>12} {'memory_bound':>13}")
    res.report.append(f"{'input':>8} {per_op['input']:>12.2f} {'-':>15} {'-':>12} {'-':>13}")
    for op in engine.program:
        row = schedule.get(op.name)
        cycles = f"{row.cycles:,}" if row else "-"
        bound = str(row.memory_bound) if row else "-"
        res.report.append(
            f"{op.name:>8} {per_op[op.name]:>12.2f} {cycles:>15} {macs.get(op.name, 0):>12,} {bound:>13}"
        )
    attributed = sum(per_op.values())
    p50 = res.e2e["latency_p50_ms"]
    res.report.append(
        f"sum of input + ops {attributed:.1f} ms next to latency_p50_ms {p50:.1f} ms: "
        f"unattributed {p50 - attributed:.1f} ms"
    )
    overhead = _median(traced_times) / _median(times) - 1
    res.report.append(
        f"tracing overhead: traced batch p50 {_ms(_median(traced_times)):.1f} ms vs untraced "
        f"{p50:.1f} ms ({overhead:+.1%}, {len(traced_times)} traced / {len(times)} untraced batches)"
    )
    return res


# -- finetune_b64 --------------------------------------------------------------------
def _train_step(trainer: Trainer, x: np.ndarray, y: np.ndarray) -> None:
    """One step exactly as ``Trainer.train_epoch`` takes it."""
    logits = trainer.forward_batch(x, training=True)
    trainer.loss.forward(logits, y)
    trainer.net.zero_grad()
    trainer.backward_batch(trainer.loss.backward())
    trainer.optimizer.step()


def _make_trainer(net, config: MFDFPConfig, seed: int, compiled: bool) -> Trainer:
    """Phase-1 trainer as ``repro.core.pipeline.phase1_finetune`` builds it."""
    optimizer = SGD(net.params, lr=config.lr, momentum=config.momentum, weight_decay=config.weight_decay)
    scheduler = PlateauScheduler(
        optimizer, factor=config.lr_factor, patience=config.plateau_patience, min_lr=config.min_lr
    )
    return Trainer(
        net,
        optimizer,
        loss=SoftmaxCrossEntropy(),
        scheduler=scheduler,
        batch_size=config.batch_size,
        rng=_rng(seed, 3),
        compiled=compiled,
    )


def _traced_method(obj, attr: str, tracer: Tracer, name: str) -> None:
    inner = getattr(obj, attr)

    def traced(*args, **kwargs):
        with tracer.span(name):
            return inner(*args, **kwargs)

    setattr(obj, attr, traced)


def finetune_b64(sizes: Sizes, seed: int, seconds: float, tracer: Tracer, work: Path, setup_only=False) -> Result:
    train, val = surrogate(sizes, sizes.n_train, sizes.n_val, seed)
    net = build_net(sizes, seed)
    # The paper's learning rate (MFDFPConfig's default).  The fig3 CLI's 5e-3
    # suits a trained float start; from this untrained start it diverged on
    # one seed in four within nine epochs.
    config = MFDFPConfig(batch_size=sizes.batch)
    t0 = time.perf_counter()
    with tracer.span("setup.quantize"):
        mfdfp = MFDFPNetwork.from_float(
            net, train.x[: sizes.n_calib], bits=config.bits, min_exp=config.min_exp,
            max_exp=config.max_exp, weight_mode=config.weight_mode, dynamic=config.dynamic,
        )
    # The eager replay's copy of the start network is the check's cost, not set-up.
    copy_t = time.perf_counter()
    replica = copy.deepcopy(mfdfp.net)
    copy_s = time.perf_counter() - copy_t
    trainer = _make_trainer(mfdfp.net, config, seed, compiled=True)
    start_state = trainer.state_dict()
    with tracer.span("setup.trace"):
        # Trace every plan shape the run uses (the training batch and the
        # evaluation batch), then restore the start state.
        _train_step(trainer, train.x[: sizes.batch], train.y[: sizes.batch])
        trainer.forward_batch(val.x[: sizes.eval_batch], training=False)
    trainer.load_state_dict(start_state)
    res = Result(setup_s=time.perf_counter() - t0 - copy_s)
    if setup_only:
        return res

    traced = tracer.enabled
    if traced:
        _traced_method(trainer, "forward_batch", tracer, "train.forward")
        _traced_method(trainer, "backward_batch", tracer, "train.backward")
        _traced_method(trainer.optimizer, "step", tracer, "train.step")
        _traced_method(trainer, "evaluate_error", tracer, "train.eval")
    # Stamp each SGD step so per-batch latency is known; keep the weights
    # after the first few steps for the eager replay check.
    marks: list[float] = []
    replayed: dict = {}
    inner_step = trainer.optimizer.step

    def stamped_step():
        inner_step()
        marks.append(time.perf_counter())
        if len(marks) == REPLAY_STEPS:
            replayed.update({p.name: p.data.copy() for p in trainer.net.params})

    trainer.optimizer.step = stamped_step
    steps_per_epoch = math.ceil(sizes.n_train / sizes.batch)
    evals_per_epoch = math.ceil(sizes.n_val / sizes.eval_batch)
    step_times, epochs = [], []  # epochs: (seconds, traced)
    start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced epochs.
        tracer.enabled = traced and len(epochs) % 2 == 1
        first_mark = len(marks)
        e0 = time.perf_counter()
        trainer.fit(train, val, epochs=len(trainer.history.epochs) + 1, resume=True)
        e1 = time.perf_counter()
        epochs.append((e1 - e0, tracer.enabled))
        if not tracer.enabled:
            step_times.extend(np.diff([e0] + marks[first_mark:]))
        if trainer.scheduler.finished:
            break
        if e1 - start >= seconds and len(epochs) >= MIN_EPOCHS:
            break
    wall = time.perf_counter() - start
    tracer.enabled = traced
    history = trainer.history.epochs
    res.attempted = len(history) * (steps_per_epoch + evals_per_epoch)

    # -- checks ---------------------------------------------------------------
    losses = [e.train_loss for e in history]
    res.check(
        "loss_finite_and_falls",
        all(np.isfinite(losses)) and len(losses) >= 2 and losses[-1] < losses[0],
        f"epoch losses {', '.join(f'{v:.4f}' for v in losses)}",
    )
    res.check(
        "weights_pow2_in_range",
        all(
            is_pow2_or_zero(w, config.min_exp, config.max_exp)
            for w in trainer.quantized_weights().values()
        ),
        f"every effective weight is 0 or ±2^e, e in [{config.min_exp}, {config.max_exp}]",
    )
    eager = _make_trainer(replica, config, seed, compiled=False)
    eager.load_state_dict(start_state)
    batches = BatchIterator(train, sizes.batch, shuffle=True, rng=eager.rng)
    for _, (x, y) in zip(range(REPLAY_STEPS), batches):
        _train_step(eager, x, y)
    res.check(
        "replay_bit_identical",
        bool(replayed) and all(np.array_equal(p.data, replayed[p.name]) for p in replica.params),
        f"first {REPLAY_STEPS} steps replayed with Trainer(compiled=False)",
    )

    # -- end-to-end -----------------------------------------------------------
    untraced_s = sum(s for s, t in epochs if not t)
    n_untraced = sum(1 for _, t in epochs if not t)
    run_s = wall if not traced else untraced_s
    res.e2e = {
        "samples_per_s": n_untraced * sizes.n_train / run_s,
        "latency_p50_ms": _ms(np.median(step_times)),
    }
    res.report.append(
        f"finetune_b64: {n_untraced} untraced epochs of {sizes.n_train} samples in {run_s:.2f} s "
        f"(validation of {sizes.n_val} included); step p50 {res.e2e['latency_p50_ms']:.1f} ms"
    )
    if not traced:
        return res

    # -- per layer ------------------------------------------------------------
    def mean_ms(name, per_call=1):
        d = tracer.durations(name)
        return _ms(sum(d) / (len(d) * per_call)) if d else float("nan")

    res.layers = {
        "setup.quantize_s": tracer.durations("setup.quantize")[0],
        "setup.trace_s": tracer.durations("setup.trace")[0],
        "train.forward_ms": mean_ms("train.forward"),
        "train.backward_ms": mean_ms("train.backward"),
        "train.step_ms": mean_ms("train.step"),
        "train.eval_ms": mean_ms("train.eval", evals_per_epoch),
    }
    # The first epoch pays first-use costs of the compiled plans: leave it out.
    traced_epoch = _median([s for s, t in epochs[1:] if t])
    untraced_epoch = _median([s for s, t in epochs[1:] if not t])
    if math.isfinite(traced_epoch / untraced_epoch):
        res.report.append(
            f"tracing overhead: traced epoch p50 {traced_epoch:.2f} s vs untraced {untraced_epoch:.2f} s "
            f"({traced_epoch / untraced_epoch - 1:+.1%}), first epoch left out"
        )
    return res


# -- serve_open ----------------------------------------------------------------------
def serve_workers() -> int:
    """One serving worker per CPU this process may run on."""
    return len(os.sched_getaffinity(0))


class TimedEngine:
    """An engine handed to the runtime through ``engine_provider``: times each claim."""

    def __init__(self, engine: BatchedEngine, tracer: Tracer):
        self.engine = engine
        self.tracer = tracer
        self.input_shape = engine.input_shape
        self.deployed = engine.deployed
        self.claims: list[tuple[float, int]] = []  # (seconds, requests) while tracing

    def run(self, x: np.ndarray) -> np.ndarray:
        if not self.tracer.enabled:
            return self.engine.run(x)
        with self.tracer.span("serve.engine"):
            t = time.perf_counter()
            out = self.engine.run(x)
            self.claims.append((time.perf_counter() - t, len(x)))
        return out


def publish_served_model(sizes: Sizes, seed: int, work: Path) -> None:
    """Quantize, deploy and publish the served model into ``work/store``.

    Runs in a process of its own before the serving processes start, so
    their set-up is a cold start from the store and their peak memory is
    the server's, not the quantizer's.
    """
    calib, _ = surrogate(sizes, sizes.n_calib, sizes.serve_pool, seed)
    deployed = deploy_calibrated(build_net(sizes, seed), calib.x)
    ArtifactStore(work / "store").publish_deployed(MODEL, deployed)


def serve_open(sizes: Sizes, seed: int, seconds: float, tracer: Tracer, work: Path, setup_only=False) -> Result:
    _, pool = surrogate(sizes, sizes.n_calib, sizes.serve_pool, seed)
    n = max(2, round(sizes.rate * seconds))
    rng = _rng(seed, 2)
    # Poisson arrivals conditioned on their span: n requests over exactly
    # (n - 1) / rate seconds, so the offered rate does not vary with the seed.
    arrivals = np.cumsum(rng.exponential(1.0, n))
    due = (arrivals - arrivals[0]) * ((n - 1) / sizes.rate / (arrivals[-1] - arrivals[0]))
    picks = rng.integers(0, len(pool), n)
    return _serve(sizes, tracer, setup_only, work / "store", pool.x, due, picks)


def _serve(sizes, tracer, setup_only, store_dir, samples, due, picks) -> Result:
    traced = tracer.enabled
    timed: list[TimedEngine] = []
    n = len(due)
    t0 = time.perf_counter()
    with tracer.span("setup.cold_start"):
        registry = ModelRegistry.from_store(store_dir)
        provider = None
        if traced:
            def provider(name, version):
                # No rollover happens here, so the current version is the only one asked for.
                timed.append(TimedEngine(registry.engine(name), tracer))
                return timed[-1], registry.version_label(name)
        # The queue bound exceeds the run's request count: a host stall shows
        # as latency, never as shed requests that would vary run to run.
        runtime = ServerRuntime(
            registry, [MODEL], workers=serve_workers(), max_queue=n + 1, engine_provider=provider,
        )
        runtime.start()
    try:
        with tracer.span("setup.first_request"):
            first = runtime.submit(MODEL, samples[0]).result(timeout=60)
        res = Result(setup_s=time.perf_counter() - t0)
        if setup_only:
            return res
        for engine in timed:
            engine.claims.clear()  # the first request belongs to set-up
        tracer.enabled = False  # a traced run traces the second half of the schedule only
        trace_from = n // 2 if traced else n
        done = np.full(n, np.nan)
        sent = np.zeros(n)
        admit = np.zeros(n)
        outputs = np.full((n,) + first.shape, np.nan)
        errors = np.zeros(n, dtype=bool)
        failures: dict[str, int] = {}
        lock = threading.Lock()
        settled = threading.Event()
        unresolved = [0]  # admitted and not yet resolved, plus one until the last send

        def resolve(i, future):
            # Runs on the worker thread that resolved request i.  Results go
            # into preallocated arrays and no future is kept, so the benchmark
            # holds no per-request objects while it measures.
            done[i] = time.perf_counter()
            error = future.exception()
            if error is None:
                outputs[i] = future.result()
            with lock:
                if error is not None:
                    errors[i] = True
                    failures[type(error).__name__] = failures.get(type(error).__name__, 0) + 1
                unresolved[0] -= 1
                if unresolved[0] == 0:
                    settled.set()

        unresolved[0] = 1
        cpu0 = time.process_time()
        begin = time.perf_counter() + 0.01
        for i in range(n):
            if i == trace_from:
                tracer.enabled = True
            delay = begin + due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            with lock:
                unresolved[0] += 1
            s = time.perf_counter()
            try:
                future = runtime.submit(MODEL, samples[picks[i]])
            except ServeError as error:
                with lock:
                    unresolved[0] -= 1
                    errors[i] = True
                    failures[type(error).__name__] = failures.get(type(error).__name__, 0) + 1
                continue
            finally:
                sent[i] = s
                admit[i] = time.perf_counter() - s
            tracer.record("serve.submit", s, s + admit[i], rid=i)
            future.add_done_callback(functools.partial(resolve, i))
            del future
        with lock:
            unresolved[0] -= 1
            if unresolved[0] == 0:
                settled.set()
        if not settled.wait(timeout=120):
            raise RuntimeError(f"{unresolved[0]} requests still unresolved 120 s after the last send")
        cpu_s = time.process_time() - cpu0
        tracer.enabled = False
        snapshot = runtime.metrics(MODEL).snapshot()
    finally:
        runtime.stop(drain=True)
    tracer.enabled = traced

    ok = np.flatnonzero(~errors)
    res.attempted = n
    res.failed = n - len(ok)
    due_abs = begin + due
    latency = done[ok] - due_abs[ok]
    late = sent - due_abs

    # -- checks ---------------------------------------------------------------
    # Compiled apart from the server's engine, from the same stored artifact.
    reference = BatchedEngine(ArtifactStore(store_dir, create=False).load_deployed(MODEL))
    alone = np.stack([reference.run(samples[p : p + 1])[0] for p in range(len(samples))])
    mismatched = int(np.sum(~np.all(outputs[ok] == alone[picks[ok]], axis=1)))
    mismatched += not np.array_equal(first, alone[0])
    res.check("responses_equal_engine_alone", mismatched == 0, f"{mismatched} of {len(ok) + 1} differ")
    res.check(
        "server_counts_agree",
        snapshot["completed"] == len(ok) + 1 and snapshot["rejected"] == 0 and snapshot["crashed"] == 0,
        f"server counted {snapshot['completed']} completed, {snapshot['rejected']} rejected, "
        f"{snapshot['crashed']} crashed; failures seen {failures or 'none'}",
    )

    # -- end-to-end -----------------------------------------------------------
    # In an open loop, completed requests per wall second only repeat the
    # offered rate.  Requests per CPU-second of this process (generator,
    # admission, workers, engine) is the serving capacity the run measured.
    head = ok[ok < trace_from]
    res.e2e = {
        "samples_per_s": len(ok) / cpu_s,
        "latency_p50_ms": _ms(np.median(done[head] - due_abs[head])),
        "latency_p99_ms": _ms(np.percentile(done[head] - due_abs[head], 99)),
    }
    res.report.append(
        f"serve_open: {n} requests at {sizes.rate:g}/s (Poisson), {len(ok)} served, "
        f"{serve_workers()} workers; p50 {res.e2e['latency_p50_ms']:.2f} ms, "
        f"p99 {res.e2e['latency_p99_ms']:.2f} ms over {len(head)} untraced requests; "
        f"generator p99 late {_ms(np.percentile(late[:trace_from], 99)):.2f} ms; "
        f"server mean batch fill {snapshot['mean_fill']:.2f}; {cpu_s:.2f} CPU-s used over "
        f"{np.max(done[ok]) - begin:.2f} s ({len(ok) / (np.max(done[ok]) - begin):.2f} completed/s, the offered rate)"
    )
    if not traced:
        return res

    # -- per layer ------------------------------------------------------------
    tail = ok[ok >= trace_from]
    for i in tail:
        tracer.record("serve.request", due_abs[i], done[i], rid=int(i))
    claims = [c for engine in timed for c in engine.claims]
    engine_s = sum(s for s, _ in claims)
    window = np.max(done[tail]) - due_abs[trace_from]
    res.layers = {
        "setup.cold_start_s": tracer.durations("setup.cold_start")[0],
        "setup.first_request_ms": _ms(tracer.durations("setup.first_request")[0]),
        "serve.admit_us": float(np.median(admit[trace_from:])) * 1e6,
        "serve.engine_ms": _ms(engine_s / len(claims)),
        "serve.batch_mean": sum(k for _, k in claims) / len(claims),
        "serve.engine_busy": engine_s / window,
        "serve.gen_late_ms": _ms(np.percentile(late[trace_from:], 99)),
    }
    traced_p50 = _ms(np.median(latency[ok >= trace_from]))
    res.report.append(
        f"tracing overhead: traced request p50 {traced_p50:.2f} ms vs untraced "
        f"{res.e2e['latency_p50_ms']:.2f} ms ({traced_p50 / res.e2e['latency_p50_ms'] - 1:+.1%})"
    )
    return res


#: Each workload: fn(sizes, seed, seconds, tracer, work, setup_only) -> Result.
WORKLOADS = {"infer_b64": infer_b64, "finetune_b64": finetune_b64, "serve_open": serve_open}
#: Work done once per run, in its own process, before any measured process.
PREPARE = {"serve_open": publish_served_model}
