"""Machine-checkable certificates and canonical JSON serialization.

Every claimed bound ships as a Certificate: which inequality, on which
inputs (embedded in full, plus a content hash), the bound, the measured
value and the resulting slack. Each claim is declared once, as a Claim:
its tag, its tolerance, the (encode, decode) pair of every input field
and one measure function over the decoded fields. Writers pass objects
to their claim, and `verify` decodes the embedded inputs and calls the
same measure again. For most claims the build computes its number with
that measure too, so a verdict shows the number is reproduced from the
embedded inputs, not that a second method agrees; only
arrow_pushout_defect, poulsen_separation_gap and operator_absorption
reach their number another way in the build.

All reals are serialized as decimal strings with 17 significant digits.
"""

import hashlib
import json

import numpy as np

from .spaces import LinearMap, Modulus, NormedSpace

VERIFY_TOL = 1e-9


def fmt_real(x):
    return f"{float(x):.17e}"


def parse_real(s):
    return float(s)


def fmt_vector(v):
    return [fmt_real(x) for x in np.asarray(v, dtype=float).ravel()]


def parse_vector(obj):
    return np.array([parse_real(s) for s in obj], dtype=float)


def fmt_matrix(m):
    return [[fmt_real(x) for x in row] for row in np.asarray(m, dtype=float)]


def parse_matrix(obj):
    return np.array([[parse_real(s) for s in row] for row in obj], dtype=float)


def space_to_json(space):
    return {"dim": space.dim, "norming": fmt_matrix(space.norming), "label": space.label}


def space_from_json(obj):
    return NormedSpace(parse_matrix(obj["norming"]), label=obj.get("label"))


def map_to_json(t):
    return {
        "dom": space_to_json(t.dom),
        "cod": space_to_json(t.cod),
        "matrix": fmt_matrix(t.matrix),
    }


def map_from_json(obj):
    return LinearMap(space_from_json(obj["dom"]), space_from_json(obj["cod"]), parse_matrix(obj["matrix"]))


def modulus_to_json(modulus):
    return modulus.kind


def modulus_from_json(kind):
    """The modulus of a serialized kind; an unknown kind raises ValueError."""
    return Modulus(kind)


# (encode, decode) pairs of the input kinds claims share; a field that is
# only hashed pairs its encoder with None instead
MAP = (map_to_json, map_from_json)
REAL = (fmt_real, parse_real)
VECTOR = (fmt_vector, parse_vector)
MATRIX = (fmt_matrix, parse_matrix)
SPACE = (space_to_json, space_from_json)
INT = (int, int)


def canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj):
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


class Certificate:
    """A claimed inequality with its inputs and the measured value.

    passed is measured <= bound + tol. slack = bound - measured, so a
    negative slack beyond tol is a failed claim, recorded honestly.
    """

    def __init__(self, claim, inputs, bound, measured, tol=1e-9, payload=None):
        self.claim = str(claim)
        self.inputs = inputs
        self.bound = float(bound)
        self.measured = float(measured)
        self.tol = float(tol)
        self.payload = payload or {}

    @property
    def passed(self):
        return self.measured <= self.bound + self.tol

    @property
    def slack(self):
        return self.bound - self.measured

    @property
    def inputs_hash(self):
        return content_hash(self.inputs)

    def to_json(self):
        return {
            "claim": self.claim,
            "inputs": self.inputs,
            "inputs_hash": self.inputs_hash,
            "bound": fmt_real(self.bound),
            "measured": fmt_real(self.measured),
            "slack": fmt_real(self.slack),
            "tol": fmt_real(self.tol),
            "pass": self.passed,
            "payload": self.payload,
        }

    @staticmethod
    def from_json(obj):
        """The certificate a JSON object holds.

        JSON of another shape raises ValueError, naming a missing field,
        and saying so when the object is a tower artifact (it has a kind).
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a certificate is a JSON object, not a {type(obj).__name__}")
        try:
            cert = Certificate(
                obj["claim"],
                obj["inputs"],
                parse_real(obj["bound"]),
                parse_real(obj["measured"]),
                tol=parse_real(obj.get("tol", fmt_real(1e-9))),
                payload=obj.get("payload", {}),
            )
        except TypeError as exc:
            raise ValueError(f"certificate field of the wrong type: {exc}") from exc
        except KeyError as exc:
            if "kind" in obj:
                raise ValueError(f"a {obj['kind']} artifact, not a certificate (no {exc} field)") from None
            raise ValueError(f"certificate has no {exc} field") from None
        recorded_hash = obj.get("inputs_hash")
        if recorded_hash is not None and recorded_hash != cert.inputs_hash:
            raise ValueError("certificate inputs do not match their recorded hash")
        return cert

    def summary_line(self):
        state = "pass" if self.passed else "FAIL"
        return (
            f"[{state}] {self.claim}: measured {self.measured:.6e} vs bound "
            f"{self.bound:.6e} (slack {self.slack:.3e})"
        )

    def __repr__(self):
        return f"Certificate({self.claim!r}, measured={self.measured!r}, bound={self.bound!r}, passed={self.passed})"


CLAIM_REGISTRY = {}


class Claim:
    """One certified inequality, registered under its tag.

    fields maps each input key to its (encode, decode) pair; decode is
    None for a field that is only hashed. measure takes the decodable
    fields by name and returns the measured value.
    """

    def __init__(self, tag, tol, measure, **fields):
        self.tag = tag
        self.tol = tol
        self.measure = measure
        self.fields = fields
        CLAIM_REGISTRY[tag] = self

    def certificate(self, bound, measured, payload=None, **values):
        """The certificate of this claim on the given input objects."""
        inputs = {key: encode(values[key]) for key, (encode, _) in self.fields.items()}
        return Certificate(self.tag, inputs, bound, measured, tol=self.tol, payload=payload)


def verify_certificate(cert):
    """Recompute the measured value from the embedded inputs.

    Returns (faithful, measured_again). faithful means the recomputation
    agrees with the recorded value within VERIFY_TOL (relative for large
    values) and the pass flag is reproduced. Inputs of the wrong shape,
    or a missing input, raise ValueError.
    """
    claim = CLAIM_REGISTRY.get(cert.claim)
    if claim is None:
        raise KeyError(f"no verifier registered for claim {cert.claim!r}")
    decoded = {}
    try:
        for key, (_, decode) in claim.fields.items():
            if decode is not None:
                if key not in cert.inputs:
                    raise ValueError(f"certificate has no input {key!r}")
                decoded[key] = decode(cert.inputs[key])
    except (TypeError, KeyError) as exc:
        raise ValueError(f"certificate inputs of the wrong shape: {exc}") from exc
    again = float(claim.measure(**decoded))
    scale = 1.0 + abs(cert.measured)
    agree = abs(again - cert.measured) <= VERIFY_TOL * scale
    same_verdict = (again <= cert.bound + cert.tol) == cert.passed
    return agree and same_verdict, again
