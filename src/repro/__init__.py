"""repro — View Maintenance in a Warehousing Environment (SIGMOD 1995).

A full reproduction of Zhuge, Garcia-Molina, Hammer & Widom's warehouse
view-maintenance system: the signed-tuple relational algebra, the
autonomous source substrates (in-memory and SQLite), the FIFO messaging
model, the ECA family of compensating algorithms plus every baseline the
paper discusses, the Section 3 correctness hierarchy as an executable
checker, and the Section 6 / Appendix D cost model with both analytic and
measured implementations.

Quickstart::

    from repro import (
        RelationSchema, View, MemorySource, ECA, Simulation,
        BestCaseSchedule, insert,
    )
    from repro.relational.engine import evaluate_view

    r1 = RelationSchema("r1", ("W", "X"))
    r2 = RelationSchema("r2", ("X", "Y"))
    view = View.natural_join("V", [r1, r2], ["W"])
    source = MemorySource([r1, r2], {"r1": [(1, 2)], "r2": [(2, 4)]})
    warehouse = ECA(view, evaluate_view(view, source.snapshot()))
    sim = Simulation(source, warehouse, [insert("r2", (2, 3))])
    sim.run(BestCaseSchedule())
    print(warehouse.mv.rows())   # [(1,), (1,)]
"""

from repro.consistency import (
    ConsistencyReport,
    StalenessReport,
    check_trace,
    staleness_profile,
)
from repro.core import (
    ALGORITHMS,
    BasicAlgorithm,
    BatchECA,
    DeferredECA,
    ECA,
    ECAKey,
    ECALocal,
    LCA,
    RecomputeView,
    StoredCopies,
    WarehouseAlgorithm,
    create_algorithm,
)
from repro.costmodel import (
    CostRecorder,
    IndexCatalog,
    PaperParameters,
    Scenario1Estimator,
    Scenario2Estimator,
)
from repro.errors import (
    ChannelEmpty,
    ConsistencyViolation,
    ExpressionError,
    ProtocolError,
    ReproError,
    SchemaError,
    SignError,
    SimulationError,
    TransportClosed,
    UpdateError,
    ViewStateError,
)
from repro.relational import (
    And,
    Attr,
    Comparison,
    Condition,
    Const,
    MINUS,
    Not,
    Or,
    PLUS,
    Query,
    RelationSchema,
    SignedBag,
    SignedTuple,
    Term,
    TrueCondition,
    UnionView,
    View,
    attr,
)
from repro.runtime import (
    FaultPlan,
    InMemoryTransport,
    RuntimeResult,
    run_concurrent,
)
from repro.simulation import (
    REFRESH,
    BestCaseSchedule,
    RandomSchedule,
    Schedule,
    ScriptedSchedule,
    Simulation,
    Trace,
    WorstCaseSchedule,
    project_view,
    run_simulation,
)
from repro.source import (
    MemorySource,
    SQLiteSource,
    Source,
    Update,
    delete,
    insert,
)
from repro.warehouse import MaterializedView, WarehouseCatalog

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "And",
    "Attr",
    "BasicAlgorithm",
    "BatchECA",
    "BestCaseSchedule",
    "ChannelEmpty",
    "DeferredECA",
    "Comparison",
    "Condition",
    "ConsistencyReport",
    "ConsistencyViolation",
    "Const",
    "CostRecorder",
    "ECA",
    "ECAKey",
    "ECALocal",
    "ExpressionError",
    "FaultPlan",
    "InMemoryTransport",
    "IndexCatalog",
    "LCA",
    "MINUS",
    "MaterializedView",
    "MemorySource",
    "Not",
    "Or",
    "PLUS",
    "PaperParameters",
    "ProtocolError",
    "Query",
    "REFRESH",
    "RandomSchedule",
    "RecomputeView",
    "RelationSchema",
    "ReproError",
    "RuntimeResult",
    "SQLiteSource",
    "Scenario1Estimator",
    "Scenario2Estimator",
    "Schedule",
    "SchemaError",
    "ScriptedSchedule",
    "SignError",
    "SignedBag",
    "SignedTuple",
    "Simulation",
    "SimulationError",
    "Source",
    "StalenessReport",
    "StoredCopies",
    "Term",
    "Trace",
    "TransportClosed",
    "TrueCondition",
    "UnionView",
    "Update",
    "UpdateError",
    "View",
    "ViewStateError",
    "WarehouseAlgorithm",
    "WarehouseCatalog",
    "WorstCaseSchedule",
    "attr",
    "check_trace",
    "create_algorithm",
    "delete",
    "insert",
    "project_view",
    "run_concurrent",
    "run_simulation",
    "staleness_profile",
]
