"""Span tracing at the public layer boundaries of the w22 package.

The tracer replaces layer functions at the module attributes through which
the library calls them (``w22.constraints.solve_sparse`` is the binding the
constraint systems use, not ``w22.linalg.solve_sparse``) and puts the
originals back on ``restore``.  Nothing inside the package is edited.

Each call records a span (layer, tag, start, end, parent, verdict).  A
layer's self time is its span duration minus the durations of the spans
it directly caused.  Counter hooks run after the wrapped call returns; the
time they take is subtracted from every open span, so counting does not
show up as layer time.

A layer whose every binding is missing is reported as absent rather than
failing the run: solver merges are expected to remove some of them.
"""

import contextlib
import importlib
import time
from collections import Counter, defaultdict


def _track_bits(counts, vectors):
    bits = max(
        (
            max(v.numerator.bit_length(), v.denominator.bit_length())
            for vec in vectors
            for v in vec
            if v
        ),
        default=0,
    )
    if bits > counts["linalg.max_coeff_bits"]:
        counts["linalg.max_coeff_bits"] = bits


def _count_kernel(counts, vectors):
    counts["linalg.kernel_dim_total"] += len(vectors)
    counts["linalg.kernel_nnz"] += sum(1 for vec in vectors for v in vec if v)
    _track_bits(counts, vectors)


def _count_nullspace(counts, args, result):
    rows, ncols = args[0], args[1]
    counts["linalg.dense_cells"] += len(rows) * ncols
    counts["linalg.rank_total"] += ncols - len(result)
    _count_kernel(counts, result)


def _count_solve_sparse(counts, args, result):
    equations, ncols = args[0], args[1]
    counts["linalg.sparse_unknowns"] += ncols
    counts["linalg.sparse_equations"] += len(equations)
    counts["linalg.sparse_nnz_in"] += sum(len(row) for row, _rhs in equations)
    feasible, particular, kernel = result
    _count_kernel(counts, kernel)
    if feasible:
        _track_bits(counts, [particular])


def _count_raising_matrix(counts, args, result):
    counts["verma.raising_rows"] += len(result)
    counts["verma.matrix_nnz"] += sum(1 for row in result for v in row if v)
    if result:
        dim = len(result[0])
        if dim > counts["verma.level_dim_max"]:
            counts["verma.level_dim_max"] = dim


def _count_build(counts, args, result):
    counts["constraints.quadratics"] += len(result.quadratics)


def _count_check_quadratic(counts, args, result):
    counts["constraints.survivors"] += len(result)


# (layer, bindings, counter hook).  Bindings are (module, attribute) pairs;
# every binding of one layer is replaced by a wrapper reporting under the
# same layer name.
LAYERS = (
    ("linalg.nullspace", (("w22.linalg", "nullspace"),), _count_nullspace),
    (
        "linalg.solve_sparse",
        (("w22.constraints", "solve_sparse"), ("w22.linalg", "solve_sparse")),
        _count_solve_sparse,
    ),
    ("verma.raising_matrix", (("w22.verma", "raising_matrix"),),
     _count_raising_matrix),
    ("verma.level_basis",
     (("w22.verma", "level_basis"), ("w22.cli", "level_basis")), None),
    (
        "constraints.build",
        (("w22.constraints", "build_f_system"),
         ("w22.constraints", "build_matrix_system")),
        _count_build,
    ),
    ("constraints.verify_x_action", (("w22.constraints", "verify_x_action"),),
     None),
    ("constraints.solve_linear", (("w22.constraints", "solve_linear"),), None),
    ("constraints.check_quadratic", (("w22.constraints", "check_quadratic"),),
     _count_check_quadratic),
    ("constraints.report", (("w22.constraints", "report"),), None),
    ("liecore.jacobi_check",
     (("w22.liecore", "jacobi_check"), ("w22.cli", "jacobi_check")), None),
    ("pbw.normal_order",
     (("w22.pbw", "normal_order"), ("w22.cli", "normal_order")), None),
    ("intermediate.bracket_compatibility_check",
     (("w22.intermediate", "bracket_compatibility_check"),), None),
    ("intermediate.simplicity_probe",
     (("w22.intermediate", "simplicity_probe"),), None),
    ("cli.main", (("w22.cli", "main"),), None),
)

# Counters that keep a maximum instead of a sum.
MAX_COUNTERS = frozenset({"linalg.max_coeff_bits", "verma.level_dim_max"})

COUNTERS = (
    "linalg.dense_cells",
    "linalg.rank_total",
    "linalg.sparse_unknowns",
    "linalg.sparse_equations",
    "linalg.sparse_nnz_in",
    "linalg.kernel_dim_total",
    "linalg.kernel_nnz",
    "linalg.max_coeff_bits",
    "verma.raising_rows",
    "verma.matrix_nnz",
    "verma.level_dim_max",
    "constraints.quadratics",
    "constraints.survivors",
)


def _cli_tag(args, kwargs):
    argv = kwargs.get("argv", args[0] if args else None)
    return argv[0] if argv else None


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []  # [layer, tag, start, end, parent, verdict]
        self.counts = Counter()
        self.absent = []
        self._stack = []
        self._excluded = 0.0
        self._verdict = None
        self._installed = []

    def install(self):
        self.absent = []
        for layer, bindings, hook in LAYERS:
            found = False
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                setattr(module, attr, self._wrap(layer, original, hook))
                self._installed.append((module, attr, original))
                found = True
            if not found:
                self.absent.append(layer)

    def restore(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def begin_verdict(self, index):
        self._verdict = index
        self.counts = Counter()

    def end_verdict(self):
        self._verdict = None
        return {name: self.counts[name] for name in COUNTERS}

    @contextlib.contextmanager
    def span(self, layer, tag=None):
        """A span the benchmark opens around one of its own loops.

        Outside an installed (traced) batch it records nothing.
        """
        if not self._installed:
            yield
            return
        self._open(layer, tag)
        try:
            yield
        finally:
            self._close()

    def _open(self, layer, tag):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([layer, tag, time.perf_counter(), None, parent,
                           self._verdict])
        self._stack.append((len(self.spans) - 1, self._excluded))

    def _close(self):
        index, excluded_at_open = self._stack.pop()
        hooks = self._excluded - excluded_at_open
        self.spans[index][3] = time.perf_counter() - hooks

    def _wrap(self, layer, fn, hook):
        tracer = self
        tag_of = _cli_tag if layer == "cli.main" else None

        def wrapper(*args, **kwargs):
            tracer._open(layer, tag_of(args, kwargs) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                start = time.perf_counter()
                hook(tracer.counts, args, result)
                tracer._excluded += time.perf_counter() - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def aggregate(self):
        """Self time and calls per layer, and inclusive time per CLI verb."""
        child_time = defaultdict(float)
        for layer, tag, start, end, parent, _verdict in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        verbs = defaultdict(float)
        for index, (layer, tag, start, end, _parent, _verdict) in enumerate(
            self.spans
        ):
            self_s[layer] += (end - start) - child_time[index]
            calls[layer] += 1
            if tag is not None:
                verbs[tag] += end - start
        return dict(self_s), dict(calls), dict(verbs)


def merge_counts(per_verdict):
    """Batch totals of per-verdict counters (sums, or maxima where noted)."""
    total = {}
    for counts in per_verdict:
        for name, value in counts.items():
            if name in MAX_COUNTERS:
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return {name: total.get(name, 0) for name in COUNTERS}
