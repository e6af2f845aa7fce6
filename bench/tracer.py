"""Outside-in layer tracing: timing the calls into each fraisse module.

The tracer wraps the public entry points of every layer where the calling
code looks them up: module-level functions are replaced in every fraisse
module (and the package namespace) that bound them by name, and methods
are replaced on the class that defines them. Nothing inside the library
changes; `uninstall` puts every original back, so traced and untraced
rounds alternate in one process.

Each wrapped call is timed and added to its entry point's totals. A
layer's self time is its call time minus the full cost of the wrapped calls
made directly inside it, including the wrappers' own bookkeeping, so
tracing overhead does not land in a caller's self time. `lps` counts every
LP solved while the call was open.
"""

import hashlib
import time

import numpy as np

# (module, entry point) per layer; "Class.method" names a method.
ENTRY_POINTS = {
    "lp": ["solve_lp"],
    "spaces": [
        "LinearMap.op_norm",
        "LinearMap.distortion",
        "NormedSpace.dual_representation",
        "hahn_banach_extend",
        "extend_morphism",
    ],
    "amalgam": ["nap_amalgamate", "approx_pushout", "arrow_pushout"],
    "chains": ["build_gurarij_chain", "build_morphism_net", "certify_extension", "back_and_forth"],
    "unital": ["build_poulsen_chain", "minimality_map"],
    "universal": [
        "build_universal_operator_chain",
        "surjectivity_defect",
        "generate_operator_battery",
        "check_universal_operator_property",
        "build_universal_state_chain",
    ],
    "trace_states": ["minimal_embedding", "find_light_block"],
    "certify": ["verify_certificate"],
}

LARGE_LP_VARS = 100


def _lp_args(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, maximize=True, engine=None):
    return c, a_ub, b_ub, a_eq, b_eq, maximize


def _as_array(a):
    return np.zeros((0, 0)) if a is None else np.asarray(a, dtype=float)


def _lp_shape(args, kwargs):
    """(variables, is_box, repeat key) of one solve_lp call."""
    c, a_ub, b_ub, a_eq, b_eq, maximize = _lp_args(*args, **kwargs)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    a_ub, b_ub, a_eq, b_eq = (_as_array(x) for x in (a_ub, b_ub, a_eq, b_eq))
    n = c.shape[0]
    box = (
        a_eq.size == 0
        and a_ub.shape == (2 * n, n)
        and np.array_equal(a_ub[:n], np.eye(n))
        and np.array_equal(a_ub[n:], -np.eye(n))
    )
    key = hashlib.blake2b(digest_size=16)
    for part in (c, a_ub, b_ub, a_eq, b_eq):
        key.update(repr(part.shape).encode())
        key.update(np.ascontiguousarray(part).tobytes())
    key.update(b"max" if maximize else b"min")
    return n, box, key.digest()


class Tracer:
    """Call timings for one traced round; `reset` starts the next one."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self.stats = {}  # name -> [calls, time_s, self_s, lps]
        self.lp_durations = []
        self.lp_sizes = []
        self.lp_one_var_s = 0.0
        self.lp_box_s = 0.0
        self.lp_large_s = 0.0
        self.lp_repeat = 0
        self.lp_infeasible = 0
        self.lp_errors = 0
        self._lp_seen = set()
        self._stack = []  # time spent in the direct children of each open call
        self._lp_count = 0

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib

        import fraisse

        modules = [fraisse] + [importlib.import_module(f"fraisse.{m}") for m in ENTRY_POINTS]
        for layer, names in ENTRY_POINTS.items():
            mod = importlib.import_module(f"fraisse.{layer}")
            for qualname in names:
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(f"{layer}.{meth}", orig))
                    continue
                orig = getattr(mod, qualname)
                wrapper = self._wrap_lp(orig) if layer == "lp" else self._wrap(f"{layer}.{qualname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- calls -------------------------------------------------------------

    def _open(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, t_enter, t0, t1, lp0):
        self._stack.pop()
        dur = t1 - t0
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        st[3] += self._lp_count - lp0
        if self._stack:
            self._stack[-1][0] += time.perf_counter() - t_enter

    def _wrap(self, name, orig):
        tracer = self

        def traced(*args, **kwargs):
            t_enter = time.perf_counter()
            frame = tracer._open()
            lp0 = tracer._lp_count
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(name, frame, t_enter, t0, time.perf_counter(), lp0)

        traced.__wrapped__ = orig
        return traced

    def _wrap_lp(self, orig):
        tracer = self
        from fraisse.lp import LPError, LPInfeasible

        def traced_lp(*args, **kwargs):
            t_enter = time.perf_counter()
            frame = tracer._open()
            lp0 = tracer._lp_count
            tracer._lp_count += 1
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            except LPInfeasible:
                tracer.lp_infeasible += 1
                raise
            except LPError:
                tracer.lp_errors += 1
                raise
            finally:
                t1 = time.perf_counter()
                dur = t1 - t0
                n, box, key = _lp_shape(args, kwargs)
                tracer.lp_durations.append(dur)
                tracer.lp_sizes.append(n)
                if n == 1:
                    tracer.lp_one_var_s += dur
                if box:
                    tracer.lp_box_s += dur
                if n >= LARGE_LP_VARS:
                    tracer.lp_large_s += dur
                if key in tracer._lp_seen:
                    tracer.lp_repeat += 1
                else:
                    tracer._lp_seen.add(key)
                tracer._close("lp.solve_lp", frame, t_enter, t0, t1, lp0)

        traced_lp.__wrapped__ = orig
        return traced_lp

    # -- results -----------------------------------------------------------

    def stat(self, name):
        """(calls, time_s, self_s, lps) of one entry point in this round."""
        calls, total, own, lps = self.stats.get(name, (0, 0.0, 0.0, 0))
        return calls, total, own, lps

    def round_metrics(self):
        """The per-layer figures of this round (counts and seconds per round)."""
        out = {}
        calls, busy, _, _ = self.stat("lp.solve_lp")
        out["lp.solves"] = calls
        out["lp.busy_s"] = busy
        out["lp.one_var_busy_s"] = self.lp_one_var_s
        out["lp.box_busy_s"] = self.lp_box_s
        out["lp.large_busy_s"] = self.lp_large_s
        out["lp.repeat"] = self.lp_repeat
        out["lp.infeasible"] = self.lp_infeasible
        out["lp.errors"] = self.lp_errors
        for fn in ("op_norm", "distortion"):
            calls, _, own, lps = self.stat(f"spaces.{fn}")
            out[f"spaces.{fn}.calls"] = calls
            out[f"spaces.{fn}.lps"] = lps
            out[f"spaces.{fn}.self_s"] = own
        for fn in ("dual_representation", "hahn_banach_extend"):
            calls, _, own, _ = self.stat(f"spaces.{fn}")
            out[f"spaces.{fn}.calls"] = calls
            out[f"spaces.{fn}.self_s"] = own
        out["spaces.extend_morphism.time_s"] = self.stat("spaces.extend_morphism")[1]
        for fn in ("nap_amalgamate", "approx_pushout", "arrow_pushout"):
            out[f"amalgam.{fn}.time_s"] = self.stat(f"amalgam.{fn}")[1]
        out["chains.build_gurarij_chain.self_s"] = self.stat("chains.build_gurarij_chain")[2]
        for fn in ("build_morphism_net", "certify_extension", "back_and_forth"):
            out[f"chains.{fn}.time_s"] = self.stat(f"chains.{fn}")[1]
        _, total, _, lps = self.stat("unital.build_poulsen_chain")
        out["unital.build_poulsen_chain.time_s"] = total
        out["unital.build_poulsen_chain.lps"] = lps
        out["unital.minimality_map.time_s"] = self.stat("unital.minimality_map")[1]
        for fn in (
            "build_universal_operator_chain",
            "generate_operator_battery",
            "surjectivity_defect",
            "build_universal_state_chain",
            "check_universal_operator_property",
        ):
            out[f"universal.{fn}.time_s"] = self.stat(f"universal.{fn}")[1]
        out["trace_states.minimal_embedding.self_s"] = self.stat("trace_states.minimal_embedding")[2]
        out["trace_states.find_light_block.time_s"] = self.stat("trace_states.find_light_block")[1]
        calls, total, _, lps = self.stat("certify.verify_certificate")
        out["certify.verify_certificate.time_s"] = total
        out["certify.verify_certificate.lps"] = lps / calls if calls else 0.0
        return out
