"""Output checks for every document the benchmark produces.

Each check compares a document with a value computed here, apart from
the program (closed forms, exact joint laws, the benchmark's own grids
and its own numpy.linalg.eigh), or with a property the method must
have. No check is a wall-time limit and none compares with a stored
copy, so a faster program that samples differently still passes.

Statistical checks use a two-sided Bernstein bound at the "6 sigma"
level: a sum of independent terms, each within M of its mean and with
total variance V, leaves its mean by more than 6 (M + sqrt(M^2 + V))
with probability below 2 exp(-18). Unlike a bare 6 sigma it stays
valid for rare outcomes, where the normal approximation does not.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

HYDROGEN_RTOL = 1e-6
HYDROGEN_ATOL = 1e-6
COMMUTATOR_RTOL = 1e-9
POSITION_MEAN_ATOL = 1e-12
PARSEVAL_MAX = 1e-10
EIGENVECTOR_ATOL = 1e-9


class CheckError(AssertionError):
    """A document, or a per-shot result, is not what the method yields."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def bernstein(variance: float, spread: float = 1.0) -> float:
    """Largest allowed deviation of a sum from its mean (see module doc)."""
    return 6.0 * (spread + math.sqrt(spread * spread + variance))


def close(actual: float, expected: float, rtol: float, what: str) -> None:
    require(
        abs(actual - expected) <= rtol * abs(expected),
        f"{what}: {actual!r} differs from {expected!r} by more than rel {rtol:g}",
    )


# -- parsing ---------------------------------------------------------------


def _reject_constant(token: str):
    raise CheckError(f"non-finite number {token} in JSON document")


def parse_json(text: str) -> dict:
    """Strict RFC 8259 JSON: NaN, Infinity and -Infinity are refused."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None
    require(isinstance(doc, dict), "document is not a JSON object")
    return doc


def _csv_scalar(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        return text
    require(math.isfinite(value), f"non-finite number {text} in CSV document")
    return value


def _listify(node):
    if not isinstance(node, dict):
        return node
    items = {key: _listify(value) for key, value in node.items()}
    if items and all(key.isdigit() for key in items):
        indices = sorted(int(key) for key in items)
        require(indices == list(range(len(indices))), "CSV list has a gap")
        return [items[str(i)] for i in indices]
    return items


def parse_csv(text: str) -> dict:
    """Read the flat key,value CSV back into the nested document."""
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0] == ["key", "value"], "CSV header is not key,value")
    root: dict = {}
    for row in rows[1:]:
        require(len(row) == 2, f"CSV row {row!r} does not have two fields")
        key, value = row
        node = root
        *parents, leaf = key.split(".")
        for part in parents:
            node = node.setdefault(part, {})
            require(isinstance(node, dict), f"CSV key {key} overlaps a value")
        require(leaf not in node, f"CSV key {key} repeated")
        node[leaf] = _csv_scalar(value)
    return _listify(root)


def parse_document(text: str, output_format: str) -> dict:
    doc = parse_json(text) if output_format == "json" else parse_csv(text)
    require("config" in doc and "results" in doc, "document lacks config or results")
    return doc


# -- requests and config echo ------------------------------------------------


def angle_pairs(angles: list[float], count: int) -> list[list[float]]:
    """--angles as the program echoes them: [polar, azimuth] per setting."""
    if len(angles) == count:
        return [[float(a), 0.0] for a in angles]
    return [[float(angles[i]), float(angles[i + 1])] for i in range(0, 2 * count, 2)]


def check_config(doc: dict, command: str, params: dict) -> None:
    config = doc["config"]
    require(config.get("command") == command, f"config.command is {config.get('command')!r}")
    for key, value in params.items():
        if key in ("format", "output", "workers"):
            require(key not in config, f"presentation flag {key} echoed in config")
            continue
        if key == "angles":
            value = angle_pairs(value, 4 if command == "chsh" else 2)
        require(config.get(key) == value, f"config.{key} is {config.get(key)!r}, requested {value!r}")


# -- exact laws ----------------------------------------------------------------


def unit_vector(polar_deg: float, azimuth_deg: float) -> np.ndarray:
    polar, azimuth = np.deg2rad(polar_deg), np.deg2rad(azimuth_deg)
    return np.array(
        [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)]
    )


def _sign(x: float) -> int:
    return 1 if x >= 0.0 else -1


CELLS = ("up_up", "up_down", "down_up", "down_down")
_CELL_SIGNS = {"up_up": (1, 1), "up_down": (1, -1), "down_up": (-1, 1), "down_down": (-1, -1)}


def joint_law(model: str, rule: str, a: list[float], b: list[float]) -> dict[str, float]:
    """Exact probabilities of the four joint outcomes.

    p1 (singlet): same-sign cells (1 - a.b)/4, opposite-sign (1 + a.b)/4.
    p2: a 1/2-1/2 mixture over the hidden configuration c = +-1, with
    the sign rule s(c a_z), s(-c b_z) or the projection rule
    P(+) = (1 + c a_z)/2 for the electron and (1 - c b_z)/2 for the
    positron.
    """
    va, vb = unit_vector(*a), unit_vector(*b)
    if model == "p1":
        ab = min(1.0, max(-1.0, float(va @ vb)))
        if abs(abs(ab) - 1.0) <= 1e-12:  # parallel or antiparallel axes
            ab = math.copysign(1.0, ab)
        same, opposite = (1.0 - ab) / 4.0, (1.0 + ab) / 4.0
        return {"up_up": same, "up_down": opposite, "down_up": opposite, "down_down": same}
    az, bz = float(va[2]), float(vb[2])
    law = dict.fromkeys(CELLS, 0.0)
    for c in (1, -1):
        for cell, (e, p) in _CELL_SIGNS.items():
            if rule == "deterministic":
                weight = float(e == _sign(c * az) and p == _sign(-c * bz))
            else:
                p_e = (1.0 + c * az) / 2.0
                p_p = (1.0 - c * bz) / 2.0
                weight = (p_e if e > 0 else 1.0 - p_e) * (p_p if p > 0 else 1.0 - p_p)
            law[cell] += 0.5 * weight
    return law


def law_correlation(law: dict[str, float]) -> float:
    return law["up_up"] + law["down_down"] - law["up_down"] - law["down_up"]


def check_correlation(value: float, law: dict[str, float], n: int, what: str) -> None:
    """A sampled correlation (2 same - n)/n against the exact law."""
    p_same = law["up_up"] + law["down_down"]
    allowed = 2.0 * bernstein(n * p_same * (1.0 - p_same)) / n
    expected = law_correlation(law)
    require(
        abs(value - expected) <= allowed,
        f"{what}: correlation {value!r} is {abs(value - expected):.3g} from the "
        f"exact {expected!r}, allowed {allowed:.3g}",
    )


def check_count(count: int, n: int, p: float, what: str) -> None:
    if p == 0.0 or p == 1.0:
        require(count == round(n * p), f"{what}: {count} where the law makes it exactly {round(n * p)}")
        return
    allowed = bernstein(n * p * (1.0 - p))
    require(
        abs(count - n * p) <= allowed,
        f"{what}: {count} is {abs(count - n * p):.1f} from n p = {n * p:.1f}, allowed {allowed:.1f}",
    )


# -- per-command document checks ----------------------------------------------


def check_hydrogen(doc: dict, params: dict) -> None:
    max_n = params.get("max_n", 4)
    ortho_max_n = params.get("ortho_max_n", 3)
    results, stats = doc["results"], doc["statistics"]

    rows = results["mean_radius"]
    expected_keys = [(n, l) for n in range(1, max_n + 1) for l in range(n)]
    require([(r["n"], r["l"]) for r in rows] == expected_keys, "mean_radius rows are not n <= max_n, l < n")
    worst = 0.0
    for r in rows:
        n, l = r["n"], r["l"]
        closed = 0.5 * (3 * n * n - l * (l + 1))
        require(r["closed_form"] == closed, f"closed_form for n={n} l={l} is {r['closed_form']!r}")
        close(r["mean_radius"], closed, HYDROGEN_RTOL, f"<r> for n={n} l={l}")
        relative = abs(r["mean_radius"] - closed) / closed
        close(r["relative_error"], relative, 1e-9, f"relative_error for n={n} l={l}")
        worst = max(worst, r["relative_error"])
    require(
        stats["max_relative_error_mean_radius"] == worst,
        f"max_relative_error_mean_radius {stats['max_relative_error_mean_radius']!r} is not the row maximum {worst!r}",
    )

    momentum = results["ground_state_momentum"]
    for key, expected in (("bare_real", 0.0), ("bare_imag", 1.0), ("hermitized_real", 0.0), ("hermitized_imag", 0.0)):
        require(
            abs(momentum[key] - expected) <= HYDROGEN_ATOL,
            f"ground_state_momentum.{key} is {momentum[key]!r}, expected {expected}",
        )

    orbitals = [(n, l, m) for n in range(1, ortho_max_n + 1) for l in range(n) for m in range(-l, l + 1)]
    pairs = [(o1, o2) for i, o1 in enumerate(orbitals) for o2 in orbitals[i:]]
    table = results["orthonormality"]
    require(
        [((r["n1"], r["l1"], r["m1"]), (r["n2"], r["l2"], r["m2"])) for r in table] == pairs,
        "orthonormality rows are not the orbital pairs up to ortho_max_n",
    )
    worst = 0.0
    for r in table:
        expected = 1.0 if (r["n1"], r["l1"], r["m1"]) == (r["n2"], r["l2"], r["m2"]) else 0.0
        deviation = abs(complex(r["real"], r["imag"]) - expected)
        require(deviation <= HYDROGEN_ATOL, f"overlap {r} deviates from {expected} by {deviation:.3g}")
        worst = max(worst, deviation)
    require(
        stats["max_orthonormality_deviation"] == worst,
        f"max_orthonormality_deviation {stats['max_orthonormality_deviation']!r} is not the row maximum {worst!r}",
    )


def gaussian_second_difference(length: float, points: int) -> float:
    """hbar max|f(x+h) + f(x-h) - 2 f(x)| / 2 over the interior of the
    program's grid x_i = (i - points//2) h, h = length/points, for
    f = exp(-x^2/2): the exact interior residual of [x, p] - i hbar."""
    x = (np.arange(points) - points // 2) * (length / points)
    f = np.exp(-(x**2) / 2.0)
    return float(np.max(np.abs(f[2:] + f[:-2] - 2.0 * f[1:-1]))) / 2.0


def check_commutator(doc: dict, params: dict) -> None:
    length = params.get("length", 16.0)
    points = params.get("points", 513)
    r = doc["results"]
    close(r["max_interior_residual"], gaussian_second_difference(length, points), COMMUTATOR_RTOL, "coarse residual")
    close(r["refined_residual"], gaussian_second_difference(length, 2 * points), COMMUTATOR_RTOL, "refined residual")
    require(1.8 <= r["convergence_order"] <= 2.2, f"convergence order {r['convergence_order']!r} outside [1.8, 2.2]")
    close(r["spacing"], length / points, 1e-12, "spacing")
    close(r["residual_constant"], r["max_interior_residual"] / r["spacing"] ** 2, 1e-12, "residual_constant")


def epr_momentum_tolerance(length: float, sigma: float) -> float:
    """Poisson-summation bound on the mean of the momentum conditional
    sampled at the momentum spacing dp = 2 pi / L: with density
    exp(-a (p - m)^2), a = (sigma^2 + 4 Lambda^2)/2 and
    q = exp(-pi^2 / (a dp^2)), the discrete mean is within
    (2 pi / (a dp)) q / (1 - 2q) of m."""
    envelope = length / 8.0
    a = (sigma**2 + 4.0 * envelope**2) / 2.0
    dp = 2.0 * math.pi / length
    q = math.exp(-(math.pi**2) / (a * dp * dp))
    return 2.0 * math.pi / (a * dp) * q / (1.0 - 2.0 * q)


def check_epr(doc: dict, params: dict) -> None:
    length = params.get("length", 20.0)
    points = params.get("points", 512)
    sigma = params.get("sigma", 0.5)
    x0 = params.get("x0", 1.0)
    envelope = length / 8.0
    r = doc["results"]

    h = length / points
    x_axis = (np.arange(points) - points // 2) * h
    p_axis = (np.arange(points) - points // 2) * (2.0 * math.pi / length)
    for key, axis, request in (
        ("conditional_position", x_axis, params.get("position", 0.5)),
        ("conditional_momentum", p_axis, params.get("momentum", 1.0)),
    ):
        nearest = float(axis[np.argmin(np.abs(axis - request))])
        require(
            abs(r[key]["slice_at"] - nearest) <= 1e-9 * (axis[1] - axis[0]),
            f"{key}.slice_at {r[key]['slice_at']!r} is not the gridline {nearest!r} nearest {request!r}",
        )

    # |Psi|^2 is Gaussian in (x_I, x_II): conditioning on x_I = s leaves
    # exp(-(x - s - x0)^2/(2 sigma^2) - (x + s)^2/(8 Lambda^2)); in momentum,
    # p_I = q leaves exp(-sigma^2 (p - q)^2/2 - 2 Lambda^2 (p + q)^2).
    s = r["conditional_position"]["slice_at"]
    mean_x = ((s + x0) / sigma**2 - s / (4.0 * envelope**2)) / (1.0 / sigma**2 + 1.0 / (4.0 * envelope**2))
    gap = abs(r["conditional_position"]["mean"] - mean_x)
    require(gap <= POSITION_MEAN_ATOL, f"position conditional mean is {gap:.3g} from the closed form {mean_x!r}")
    q = r["conditional_momentum"]["slice_at"]
    mean_p = q * (sigma**2 - 4.0 * envelope**2) / (sigma**2 + 4.0 * envelope**2)
    gap = abs(r["conditional_momentum"]["mean"] - mean_p)
    allowed = epr_momentum_tolerance(length, sigma)
    require(gap <= allowed, f"momentum conditional mean is {gap:.3g} from the closed form {mean_p!r}, allowed {allowed:.3g}")

    require(0.0 <= r["parseval_error"] <= PARSEVAL_MAX, f"parseval_error {r['parseval_error']!r} above {PARSEVAL_MAX:g}")
    require(r["envelope_width"] == envelope, f"envelope_width {r['envelope_width']!r} is not L/8")


def _model(params: dict) -> tuple[str, str]:
    return params.get("model", "p1"), params.get("p2_rule", "deterministic")


def check_singlet(doc: dict, params: dict) -> None:
    model, rule = _model(params)
    n = params.get("samples", 100_000)
    a, b = angle_pairs(params.get("angles", [0.0, 60.0]), 2)
    r = doc["results"]
    counts = r["counts"]
    require(sum(counts[c] for c in CELLS) == n == r["n_pairs"], f"counts {counts} do not sum to the requested {n}")
    require(r["electron_setting"] == a and r["positron_setting"] == b, "settings not echoed")
    law = joint_law(model, rule, a, b)
    for cell in CELLS:
        check_count(counts[cell], n, law[cell], f"{cell} count")
    same = counts["up_up"] + counts["down_down"]
    close(r["correlation"], (2 * same - n) / n, 1e-12, "correlation from counts")
    check_correlation(r["correlation"], law, n, "singlet correlation")


CHSH_SIGNS = (1.0, -1.0, 1.0, 1.0)


def check_chsh(doc: dict, params: dict) -> None:
    model, rule = _model(params)
    n = params.get("samples", 100_000)
    a, a2, b, b2 = angle_pairs(params.get("angles", [0.0, 90.0, 45.0, 135.0]), 4)
    rows = doc["results"]["correlations"]
    settings = ((a, b), (a, b2), (a2, b), (a2, b2))
    require(len(rows) == 4, "CHSH needs four correlations")
    s_exact = 0.0
    variance = 0.0
    for row, (ea, eb), sign in zip(rows, settings, CHSH_SIGNS):
        require(row["n_pairs"] == n, f"correlation row counts {row['n_pairs']} pairs, requested {n}")
        require(row["electron_setting"] == ea and row["positron_setting"] == eb, "CHSH settings not echoed")
        require(row["sign"] == sign, "CHSH sign pattern is not + - + +")
        law = joint_law(model, rule, ea, eb)
        check_correlation(row["value"], law, n, f"E({ea}, {eb})")
        s_exact += sign * law_correlation(law)
        variance += n * (1.0 - law_correlation(law) ** 2)
    s = doc["results"]["s"]
    close(s, sum(sign * row["value"] for row, sign in zip(rows, CHSH_SIGNS)), 1e-12, "S from correlations")
    allowed = bernstein(variance, spread=2.0) / n
    if model == "p1":
        require(abs(s - s_exact) <= allowed, f"S = {s!r} is {abs(s - s_exact):.3g} from the exact {s_exact!r}, allowed {allowed:.3g}")
    else:
        require(abs(s) <= 2.0 + allowed, f"|S| = {abs(s)!r} breaks the local bound 2 by more than {allowed:.3g}")


def check_switch(doc: dict, params: dict) -> None:
    model, _ = _model(params)
    mode = params.get("mode", "predicted")
    n = params.get("samples", 100_000)
    r = doc["results"]
    require(r["n_pairs"] == n, f"n_pairs {r['n_pairs']} is not the requested {n}")
    require(r["n_positron_down"] == n, f"n_positron_down {r['n_positron_down']} is not n = {n}")
    if model == "p1" and mode == "predicted":
        require(r["n_electron_up"] == n and r["p_electron_up"] == 1.0, "p1 predicted table is not exact")
    else:
        check_count(r["n_electron_up"], n, 0.5, "n_electron_up")
    close(r["p_electron_up"], r["n_electron_up"] / n, 1e-12, "p_electron_up")
    close(r["p_positron_down"], 1.0, 1e-12, "p_positron_down")
    require(bool(r["note"]) == (model == "p1" and mode == "mechanistic"), f"note {r['note']!r} for {model} {mode}")


def check_untangle(doc: dict, params: dict) -> None:
    n = params.get("samples", 1_000)
    r = doc["results"]
    require(r["n_draws"] == n and r["up_down"] + r["down_up"] == n, f"branch counts do not sum to {n}")
    check_count(r["up_down"], n, 0.5, "up_down")
    require(r["max_residual_schmidt_weight"] == 0.0, f"residual Schmidt weight {r['max_residual_schmidt_weight']!r}")


# The fields each document carries, so a CSV read back has the same keys.
FIELDS = {
    "hydrogen": (
        {"mean_radius", "ground_state_momentum", "orthonormality"},
        {"max_relative_error_mean_radius", "max_orthonormality_deviation"},
    ),
    "commutator-check": (
        {"convergence_order", "max_interior_residual", "refined_residual", "residual_constant", "spacing"},
        set(),
    ),
    "epr": (
        {"conditional_position", "conditional_momentum", "parseval_error", "envelope_width"},
        {"position_mean_deviation", "position_tolerance", "momentum_mean_deviation", "momentum_tolerance"},
    ),
    "singlet-correlation": (
        {"correlation", "n_pairs", "counts", "electron_setting", "positron_setting"},
        {"standard_error"},
    ),
    "chsh": ({"s", "correlations"}, {"standard_error", "classical_bound", "tsirelson_bound"}),
    "switch": (
        {"p_electron_up", "p_positron_down", "n_pairs", "n_electron_up", "n_positron_down", "note"},
        {"standard_error_electron_up"},
    ),
    "untangle": ({"n_draws", "up_down", "down_up", "max_residual_schmidt_weight"}, {"branch_standard_error"}),
}


def check_fields(doc: dict, command: str) -> None:
    results, stats = FIELDS[command]
    require(set(doc["results"]) == results, f"results fields {sorted(doc['results'])}")
    require(set(doc.get("statistics") or {}) == stats, f"statistics fields {sorted(doc.get('statistics') or {})}")


DOCUMENT_CHECKS = {
    "hydrogen": check_hydrogen,
    "commutator-check": check_commutator,
    "epr": check_epr,
    "singlet-correlation": check_singlet,
    "chsh": check_chsh,
    "switch": check_switch,
    "untangle": check_untangle,
}


def check_document(text: str, command: str, params: dict) -> dict:
    """Parse one document in its requested format and apply every check."""
    doc = parse_document(text, params.get("format", "json"))
    try:
        check_config(doc, command, params)
        check_fields(doc, command)
        DOCUMENT_CHECKS[command](doc, params)
    except (KeyError, IndexError, TypeError) as exc:
        raise CheckError(f"{command} document lacks or mistypes a field: {exc!r}") from None
    return doc


# -- per-shot library route ------------------------------------------------------


def check_born_frequencies(amps: np.ndarray, observable: np.ndarray, outcomes: list[float]) -> None:
    """Outcome frequencies of measure_subsystem against Born probabilities
    from the benchmark's own eigendecomposition of the observable."""
    values, vectors = np.linalg.eigh(observable)
    probabilities = np.sum(np.abs(vectors.conj().T @ amps) ** 2, axis=1)
    probabilities = probabilities / probabilities.sum()
    found = np.asarray(outcomes)
    index = np.argmin(np.abs(found[:, None] - values[None, :]), axis=1)
    require(
        bool(np.all(np.abs(found - values[index]) <= 1e-9 * max(1.0, np.max(np.abs(values))))),
        "an outcome is not an eigenvalue of the observable",
    )
    counts = np.bincount(index, minlength=values.size)
    for k in range(values.size):
        check_count(int(counts[k]), len(outcomes), float(probabilities[k]), f"outcome {values[k]:.6g}")


def check_collapse(observable: np.ndarray, eigenvalue: float, collapsed: np.ndarray) -> None:
    """The collapsed joint state is an eigenvector of A (x) I: A C = lambda C."""
    residual = float(np.linalg.norm(observable @ collapsed - eigenvalue * collapsed))
    require(residual <= EIGENVECTOR_ATOL, f"collapsed state misses A (x) I eigenvalue {eigenvalue!r} by {residual:.3g}")
    require(abs(float(np.linalg.norm(collapsed)) - 1.0) <= 1e-12, "collapsed state is not normalized")


def check_sample_pairs(products: list[int], model: str, rule: str, a: list[float], b: list[float]) -> None:
    """Per-pair outcome products of sample_pair against the exact law; on
    parallel axes the singlet allows no same-sign pair at all."""
    law = joint_law(model, rule, a, b)
    same = sum(1 for x in products if x > 0)
    check_count(same, len(products), law["up_up"] + law["down_down"], f"sample_pair {model} same-sign pairs")
