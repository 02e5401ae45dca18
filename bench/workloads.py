"""Seeded synthetic two-version Java projects with planted truth.

Every sample is one focal signature change inside a generated Java
project.  The generator writes, under a work directory:

* ``samples/<id>/pre`` and ``samples/<id>/post`` — the two snapshot trees;
* ``manifest.json`` — the only file the program is given;
* ``truth/<id>.json`` — the planted truth the correctness gate checks the
  collected context against.  The program never reads it.

A project is a set of *units*.  A unit is one focal method (on a service
class) together with its obsolete test, its callers, and the new type its
updated signature introduces.  In a sample's trees every unit except the
sample's own is in its neutral (pre) state in both versions, so files that
do not belong to the sample's unit are byte-identical between the two
versions, and across samples of the same project.

The same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

PARAM = "param"
RET = "ret"

NOUNS = [
    "Order", "Invoice", "Ledger", "Account", "Shipment", "Catalog", "Customer",
    "Payment", "Refund", "Quota", "Tenant", "Vendor", "Budget", "Contract",
    "Voucher", "Parcel", "Route", "Schedule", "Ticket", "Profile", "Batch",
    "Asset", "Channel", "Device", "Region", "Warehouse", "Supplier", "Coupon",
]
AREAS = [
    "billing", "shipping", "inventory", "identity", "analytics", "pricing",
    "support", "search", "audit", "storage", "routing", "rewards",
]
SUBPACKAGES = ["impl", "internal", "io", "rules", "jobs", "view"]
NOISE_NOUNS = [
    "Buffer", "Cursor", "Digest", "Entry", "Filter", "Gauge", "Handle", "Index",
    "Journal", "Key", "Lease", "Marker", "Node", "Offset", "Pager", "Queue",
    "Record", "Segment", "Table", "Unit", "Vector", "Window", "Zone", "Frame",
]
NOISE_ROLES = ["Helper", "Codec", "Policy", "Registry", "Tracker", "Mapper", "Store", "Planner"]
NOISE_VERBS = ["merge", "resolve", "compute", "encode", "scan", "collect", "adjust", "render"]
CALLER_ROLES = ["Workflow", "Coordinator", "Handler", "Controller", "Importer", "Scheduler"]


@dataclass(frozen=True)
class Scale:
    """Shape of one workload (sizes are per sample and version)."""

    samples: int
    projects: int  # samples are spread round-robin over this many projects
    units_per_service: int
    callers_per_unit: int
    sites_per_caller: int
    target_files: int  # files per version, noise fills up to this
    noise_methods: tuple[int, int]  # range of methods per noise class
    focal_mention_share: float  # share of noise files naming the focal method in a comment
    jobs: int


WORKLOADS: dict[str, Scale] = {
    "large-repo": Scale(
        samples=4, projects=4, units_per_service=1, callers_per_unit=3,
        sites_per_caller=1, target_files=250, noise_methods=(0, 6),
        focal_mention_share=0.0, jobs=1,
    ),
    "many-callers": Scale(
        samples=4, projects=4, units_per_service=1, callers_per_unit=20,
        sites_per_caller=3, target_files=45, noise_methods=(0, 6),
        focal_mention_share=0.75, jobs=1,
    ),
    "shared-project": Scale(
        samples=12, projects=1, units_per_service=3, callers_per_unit=1,
        sites_per_caller=1, target_files=64, noise_methods=(0, 6),
        focal_mention_share=0.0, jobs=2,
    ),
}

# The smallest sizes, for the smoke test.
SMOKE: dict[str, Scale] = {
    "large-repo": Scale(2, 2, 1, 2, 1, 30, (0, 3), 0.0, 1),
    "many-callers": Scale(2, 2, 1, 5, 2, 20, (0, 3), 0.75, 1),
    "shared-project": Scale(4, 1, 2, 2, 1, 40, (0, 3), 0.0, 2),
}


# ----------------------------------------------------------------------
# small helpers
# ----------------------------------------------------------------------


def _lower(name: str) -> str:
    return name[:1].lower() + name[1:]


def _cap(name: str) -> str:
    return name[:1].upper() + name[1:]


def _pkg_path(package: str) -> str:
    return package.replace(".", "/")


def _java(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


@dataclass
class Member:
    """A public member of a new type or one of its parents."""

    declaring_class: str
    name: str
    kind: str  # method | constructor | field


@dataclass
class Unit:
    index: int
    kind: str  # PARAM | RET
    noun: str
    service: str  # simple class name of the focal class
    new_type: str
    method: str
    test_method: str
    callers: list[str] = field(default_factory=list)  # simple class names
    caller_areas: list[str] = field(default_factory=list)
    new_type_extra: list[str] = field(default_factory=list)  # extra public getters
    base_timeout: int = 30


@dataclass
class Project:
    base: str  # base package
    units: list[Unit]
    services: list[str]
    noise: list[tuple[str, str, int]]  # (package, class name, method count)
    noise_parents: dict[str, str]
    scale: Scale
    rng_seed: int


# ----------------------------------------------------------------------
# project layout
# ----------------------------------------------------------------------


def _plan_project(seed: int, scale: Scale, units: int, name_salt: str, kind_offset: int) -> Project:
    rng = random.Random(f"{seed}:{name_salt}")
    base = f"org.{rng.choice(['acme', 'nimbus', 'vertex', 'harbor', 'quill'])}{name_salt}"
    nouns = rng.sample(NOUNS, units)
    areas = rng.sample(AREAS, len(AREAS))
    plan_units: list[Unit] = []
    services: list[str] = []
    for i, noun in enumerate(nouns):
        s = i // scale.units_per_service
        area = areas[s % len(areas)]
        service = f"{_cap(area)}Service"
        if service not in services:
            services.append(service)
        kind = PARAM if (i + kind_offset) % 2 == 0 else RET
        method = f"register{noun}" if kind == PARAM else f"summarize{noun}"
        new_type = f"{noun}Settings" if kind == PARAM else f"{noun}Report"
        unit = Unit(
            index=i,
            kind=kind,
            noun=noun,
            service=service,
            new_type=new_type,
            method=method,
            test_method=f"test{_cap(method)}",
            base_timeout=rng.randrange(10, 90),
        )
        for j in range(scale.callers_per_unit):
            role = CALLER_ROLES[(i + j) % len(CALLER_ROLES)]
            unit.callers.append(f"{noun}{role}{j}")
            unit.caller_areas.append(areas[(s + 1 + j) % len(areas)])
        extras = rng.sample(["Priority", "Region", "Owner", "Label", "Limit", "Window"], 3)
        unit.new_type_extra = extras[: rng.randrange(1, 4)]
        plan_units.append(unit)
    fixed = len(_support_files(base)) + 2 * len(services) + sum(
        1 + len(u.callers) for u in plan_units  # new type + callers
    )
    noise_count = max(0, scale.target_files - fixed)
    noise: list[tuple[str, str, int]] = []
    parents: dict[str, str] = {}
    last_in_package: dict[str, str] = {}
    # Class sizes come from one fixed, skewed distribution (many small
    # classes, a tail of large ones); the seed only shuffles them, so the
    # total work is nearly the same for every seed.
    lo, hi = scale.noise_methods
    sizes = [lo + int((hi - lo + 1) * ((n + 0.5) / noise_count) ** 3) for n in range(noise_count)]
    rng.shuffle(sizes)
    for n in range(noise_count):
        package = f"{base}.{rng.choice(AREAS)}.{rng.choice(SUBPACKAGES)}"
        name = f"{rng.choice(NOISE_NOUNS)}{rng.choice(NOISE_ROLES)}{n}"
        if package in last_in_package and rng.random() < 0.35:
            parents[name] = last_in_package[package]
        last_in_package[package] = name
        noise.append((package, name, sizes[n]))
    return Project(base, plan_units, services, noise, parents, scale, rng.randrange(1 << 30))


# ----------------------------------------------------------------------
# fixed project files
# ----------------------------------------------------------------------


def _support_files(b: str) -> dict[str, str]:
    main = "src/main/java"
    files: dict[str, str] = {}

    def put(package: str, name: str, lines: list[str], root: str = main) -> None:
        files[f"{root}/{_pkg_path(package)}/{name}.java"] = _java(lines)

    put(f"{b}.core.base", "Lifecycle", [
        f"package {b}.core.base;",
        "",
        "/** Start/stop contract shared by every service. */",
        "public abstract class Lifecycle {",
        "    protected volatile boolean open = true;",
        "",
        "    public boolean isOpen() {",
        "        return open;",
        "    }",
        "",
        "    public void close() {",
        "        open = false; // idempotent",
        "    }",
        "}",
    ])
    put(f"{b}.core.base", "AbstractService", [
        f"package {b}.core.base;",
        "",
        f"import {b}.core.ServiceException;",
        f"import {b}.model.Receipt;",
        "",
        "public abstract class AbstractService extends Lifecycle {",
        "    private long submitted;",
        "",
        "    protected void checkOpen() throws ServiceException {",
        "        if (!isOpen()) {",
        "            throw new ServiceException(\"service closed: \" + getClass().getName());",
        "        }",
        "    }",
        "",
        "    protected Receipt submit(String key, long timeoutMillis) {",
        "        submitted++;",
        "        return new Receipt(key, timeoutMillis);",
        "    }",
        "}",
    ])
    put(f"{b}.core", "ServiceException", [
        f"package {b}.core;",
        "",
        "public class ServiceException extends Exception {",
        "    public ServiceException(String message) {",
        "        super(message);",
        "    }",
        "}",
    ])
    put(f"{b}.model", "RequestOptions", [
        f"package {b}.model;",
        "",
        "/** Legacy request options; superseded per operation. */",
        "@Deprecated",
        "public class RequestOptions {",
        "    private long timeoutMillis = 30_000L;",
        "    private boolean dryRun;",
        "",
        "    public static RequestOptions defaults() {",
        "        return new RequestOptions();",
        "    }",
        "",
        "    public RequestOptions withTimeout(long seconds) {",
        "        this.timeoutMillis = seconds * 1000L;",
        "        return this;",
        "    }",
        "",
        "    public long timeoutMillis() {",
        "        return timeoutMillis;",
        "    }",
        "",
        "    public boolean isDryRun() {",
        "        return dryRun;",
        "    }",
        "}",
    ])
    put(f"{b}.model", "Stats", [
        f"package {b}.model;",
        "",
        "public class Stats {",
        "    private final long total;",
        "    private final long failures;",
        "",
        "    public Stats(long total, long failures) {",
        "        this.total = total;",
        "        this.failures = failures;",
        "    }",
        "",
        "    public long total() {",
        "        return total;",
        "    }",
        "",
        "    public long failures() {",
        "        return failures;",
        "    }",
        "}",
    ])
    put(f"{b}.model", "Receipt", [
        f"package {b}.model;",
        "",
        "public final class Receipt {",
        "    private final String key;",
        "    private final long timeoutMillis;",
        "",
        "    public Receipt(String key, long timeoutMillis) {",
        "        this.key = key;",
        "        this.timeoutMillis = timeoutMillis;",
        "    }",
        "",
        "    public static Receipt empty(String key) {",
        "        return new Receipt(key, 0L);",
        "    }",
        "",
        "    public String key() {",
        "        return key;",
        "    }",
        "}",
    ])
    put(f"{b}.model.base", "AttributeBag", [
        f"package {b}.model.base;",
        "",
        "import java.util.HashMap;",
        "import java.util.Map;",
        "",
        "/** String-keyed attributes; values are typed by the subclass. */",
        "public abstract class AttributeBag<V> {",
        "    protected final Map<String, V> attributes = new HashMap<>();",
        "",
        "    public V getAttribute(String name) {",
        "        return attributes.get(name);",
        "    }",
        "",
        "    public boolean hasAttribute(String name) {",
        "        return attributes.containsKey(name);",
        "    }",
        "",
        "    protected void putAttribute(String name, V value) {",
        "        attributes.put(name, value);",
        "    }",
        "}",
    ])
    put(f"{b}.model.base", "BaseSettings", [
        f"package {b}.model.base;",
        "",
        "public abstract class BaseSettings extends AttributeBag<String> {",
        "    public static final int SCHEMA_VERSION = 2;",
        "",
        "    public String describe() {",
        "        return getClass().getSimpleName() + \"{v\" + SCHEMA_VERSION + \"}\";",
        "    }",
        "",
        "    public abstract boolean dryRun();",
        "}",
    ])
    put(f"{b}.model.base", "BaseReport", [
        f"package {b}.model.base;",
        "",
        "public abstract class BaseReport<T extends Number> extends AttributeBag<T> {",
        "    public abstract T getTotal();",
        "",
        "    public long asLong() {",
        "        return getTotal().longValue();",
        "    }",
        "}",
    ])
    put(f"{b}.util", "Strings", [
        f"package {b}.util;",
        "",
        "public final class Strings {",
        "    private Strings() {}",
        "",
        "    public static String join(String a, String b) {",
        "        return a + \"/\" + b; // never null",
        "    }",
        "",
        "    public static boolean isBlank(String s) {",
        "        return s == null || s.trim().isEmpty();",
        "    }",
        "}",
    ])
    put(f"{b}.util", "Checks", [
        f"package {b}.util;",
        "",
        "public final class Checks {",
        "    private Checks() {}",
        "",
        "    public static <T> T notNull(T value, String what) {",
        "        if (value == null) {",
        "            throw new IllegalArgumentException(what + \" must not be null\");",
        "        }",
        "        return value;",
        "    }",
        "}",
    ])
    put(f"{b}.util", "Clock", [
        f"package {b}.util;",
        "",
        "public interface Clock {",
        "    long nowMillis();",
        "",
        "    default long elapsedSince(long start) {",
        "        return nowMillis() - start;",
        "    }",
        "}",
    ])
    put(f"{b}.service", "BaseCoordinator", [
        f"package {b}.service;",
        "",
        f"import {b}.util.Checks;",
        "",
        "public abstract class BaseCoordinator {",
        "    protected int attempts;",
        "",
        "    protected <T> T require(T value) {",
        "        attempts++;",
        "        return Checks.notNull(value, \"value\");",
        "    }",
        "}",
    ])
    put(f"{b}.testing", "ServiceTestBase", [
        f"package {b}.testing;",
        "",
        "public abstract class ServiceTestBase {",
        "    protected static void assertEquals(Object expected, Object actual) {",
        "        if (expected == null ? actual != null : !expected.equals(actual)) {",
        "            throw new AssertionError(\"expected <\" + expected + \"> but was <\" + actual + \">\");",
        "        }",
        "    }",
        "",
        "    protected static void assertTrue(boolean condition) {",
        "        if (!condition) {",
        "            throw new AssertionError(\"expected true\");",
        "        }",
        "    }",
        "}",
    ], root="src/test/java")
    return files


# ----------------------------------------------------------------------
# unit files: new types, services, tests, callers
# ----------------------------------------------------------------------


def _new_type_file(p: Project, u: Unit) -> tuple[str, str, list[Member]]:
    b = p.base
    path = f"src/main/java/{_pkg_path(b)}/model/{u.new_type}.java"
    members: list[Member] = []
    t = u.new_type
    if u.kind == PARAM:
        lines = [
            f"package {b}.model;",
            "",
            f"import {b}.model.base.*;",
            "",
            "/**",
            f" * Settings for {_lower(u.noun)} requests; replaces {{@code RequestOptions}}.",
            " */",
            f"public class {t} extends BaseSettings {{",
            f"    public static final String KIND = \"{_lower(u.noun)}\";",
            "    private long timeout;",
            "    private boolean dryRun;",
        ]
        members.append(Member(t, "KIND", "field"))
        for extra in u.new_type_extra:
            lines.append(f"    private String {_lower(extra)} = \"{_lower(extra)}-default\";")
        lines += [
            "",
            f"    public {t}() {{",
            f"        this({u.base_timeout}L, false);",
            "    }",
            "",
            f"    public {t}(long timeout, boolean dryRun) {{",
            "        this.timeout = timeout;",
            "        this.dryRun = dryRun;",
            "    }",
            "",
            f"    public static Draft draft() {{",
            "        return new Draft();",
            "    }",
            "",
            "    public long getTimeout() {",
            "        return timeout;",
            "    }",
            "",
            "    @Override",
            "    public boolean dryRun() {",
            "        return dryRun;",
            "    }",
        ]
        members += [
            Member(t, t, "constructor"),
            Member(t, "draft", "method"),
            Member(t, "getTimeout", "method"),
            Member(t, "dryRun", "method"),
        ]
        for extra in u.new_type_extra:
            lines += [
                "",
                f"    public String get{extra}() {{",
                f"        return {_lower(extra)};",
                "    }",
            ]
            members.append(Member(t, f"get{extra}", "method"))
        lines += [
            "",
            "    private void validate() {",
            "        if (timeout < 0) {",
            "            throw new IllegalStateException(\"negative timeout\");",
            "        }",
            "    }",
            "",
            "    public static final class Draft {",
            f"        private long timeout = {u.base_timeout}L;",
            "",
            "        public Draft timeout(long value) {",
            "            this.timeout = value;",
            "            return this;",
            "        }",
            "",
            f"        public {t} build() {{",
            f"            return new {t}(timeout, false);",
            "        }",
            "    }",
            "}",
        ]
        members += [
            Member("BaseSettings", "SCHEMA_VERSION", "field"),
            Member("BaseSettings", "describe", "method"),
            Member("BaseSettings", "dryRun", "method"),
        ]
    else:
        lines = [
            f"package {b}.model;",
            "",
            f"import {b}.model.base.*;",
            "",
            f"/** Per-{_lower(u.noun)} report; generalizes {{@code Stats}}. */",
            f"public class {t}<T extends Number> extends BaseReport<T> {{",
            "    private final T total;",
            "    private final T failures;",
            f"    public final String source = \"{_lower(u.noun)}s\";",
            "",
            f"    public {t}(T total, T failures) {{",
            "        this.total = total;",
            "        this.failures = failures;",
            "    }",
            "",
            "    @Override",
            "    public T getTotal() {",
            "        return total;",
            "    }",
            "",
            "    public T getFailures() {",
            "        return failures;",
            "    }",
        ]
        members += [
            Member(t, "source", "field"),
            Member(t, t, "constructor"),
            Member(t, "getTotal", "method"),
            Member(t, "getFailures", "method"),
        ]
        for extra in u.new_type_extra:
            lines += [
                "",
                f"    public String get{extra}() {{",
                f"        return \"{_lower(extra)}:\" + total;",
                "    }",
            ]
            members.append(Member(t, f"get{extra}", "method"))
        lines += [
            "",
            "    private String debugString() {",
            "        return \"total=\" + total + \", failures=\" + failures;",
            "    }",
            "}",
        ]
        members += [
            Member("BaseReport", "getTotal", "method"),
            Member("BaseReport", "asLong", "method"),
        ]
    members += [
        Member("AttributeBag", "getAttribute", "method"),
        Member("AttributeBag", "hasAttribute", "method"),
    ]
    return path, _java(lines), members


def _service_path(p: Project, service: str) -> str:
    return f"src/main/java/{_pkg_path(p.base)}/core/{service}.java"


def _test_path(p: Project, service: str) -> str:
    return f"src/test/java/{_pkg_path(p.base)}/core/{service}Test.java"


def _unit_constant(u: Unit) -> str:
    return f"{u.noun.upper()}_RETRIES"


def _service_file(p: Project, service: str, changed: Unit | None) -> str:
    """The focal class; ``changed`` is the unit in its post state, if any."""
    b = p.base
    units = [u for u in p.units if u.service == service]
    post = {changed.index} if changed is not None and changed.service == service else set()
    imports = [f"import {b}.core.base.AbstractService;", f"import {b}.model.Receipt;"]
    imports.append(f"import {b}.model.RequestOptions;")
    imports.append(f"import {b}.model.Stats;")
    for u in units:
        if u.index in post:
            imports.append(f"import {b}.model.{u.new_type};")
    lines = [f"package {b}.core;", "", *sorted(imports), ""]
    lines += [
        "/**",
        f" * Entry point for {service[:-7].lower()} operations.",
        " * Callers must not share instances across tenants.",
        " */",
        f"public class {service} extends AbstractService {{",
    ]
    for u in units:
        retries = 3 + u.index % 4
        if u.index in post:
            retries += 2
        lines.append(f"    static final int {_unit_constant(u)} = {retries};")
    lines.append(f"    private final String name = \"{service}\";")
    for u in units:
        lines.append("")
        lines += _focal_method(u, u.index in post)
    for u in units:
        lines.append("")
        suffix = "v2" if u.index in post else "v1"
        lines += [
            f"    private String describe{u.noun}() {{",
            "        // the tag below is parsed by the audit tooling",
            f"        return name + \"#{u.method}@{suffix}\";",
            "    }",
        ]
    lines.append("}")
    return _java(lines)


def _focal_method(u: Unit, post: bool) -> list[str]:
    if u.kind == PARAM:
        if not post:
            return [
                "    /**",
                f"     * Registers a {_lower(u.noun)} under {{@code key}}.",
                "     */",
                f"    public Receipt {u.method}(String key, RequestOptions options) throws ServiceException {{",
                "        checkOpen();",
                "        if (options.isDryRun()) {",
                "            return Receipt.empty(key);",
                "        }",
                "        return submit(key, options.timeoutMillis());",
                "    }",
            ]
        return [
            "    /**",
            f"     * Registers a {_lower(u.noun)} under {{@code key}}.",
            "     */",
            f"    public Receipt {u.method}(String key, {u.new_type} settings) throws ServiceException {{",
            "        checkOpen();",
            "        if (settings.dryRun()) {",
            "            return Receipt.empty(key);",
            "        }",
            "        return submit(key, settings.getTimeout() * 1000L);",
            "    }",
        ]
    if not post:
        return [
            f"    public Stats {u.method}(String key) {{",
            f"        long total = key.length() * {_unit_constant(u)};",
            "        return new Stats(total, 0L);",
            "    }",
        ]
    return [
        f"    public {u.new_type}<Long> {u.method}(String key) {{",
        f"        long total = key.length() * {_unit_constant(u)};",
        f"        return new {u.new_type}<>(total, 0L);",
        "    }",
    ]


def _test_method(u: Unit, repaired: bool) -> list[str]:
    key = f"{_lower(u.noun)}-{u.index}"
    if u.kind == PARAM:
        if not repaired:
            setup = f"        RequestOptions options = RequestOptions.defaults().withTimeout({u.base_timeout});"
            arg = "options"
        else:
            setup = f"        {u.new_type} settings = {u.new_type}.draft().timeout({u.base_timeout}).build();"
            arg = "settings"
        return [
            "    @Test",
            f"    public void {u.test_method}() throws Exception {{",
            setup,
            f"        Receipt receipt = service.{u.method}(\"{key}\", {arg});",
            f"        assertEquals(\"{key}\", receipt.key());",
            "    }",
        ]
    if not repaired:
        bind = f"        Stats stats = service.{u.method}(\"{key}\");"
        check = "        assertTrue(stats.total() > 0);"
    else:
        bind = f"        {u.new_type}<Long> report = service.{u.method}(\"{key}\");"
        check = "        assertTrue(report.getTotal() > 0);"
    return [
        "    @Test",
        f"    public void {u.test_method}() {{",
        bind,
        check,
        "    }",
    ]


def _fixture_field(u: Unit) -> str:
    return f"{u.noun.upper()}_FIXTURE"


def _test_file(p: Project, service: str, changed: Unit | None) -> str:
    b = p.base
    units = [u for u in p.units if u.service == service]
    post = {changed.index} if changed is not None and changed.service == service else set()
    lines = [
        f"package {b}.core;",
        "",
        f"import {b}.model.*;",
        f"import {b}.testing.ServiceTestBase;",
        "",
        f"public class {service}Test extends ServiceTestBase {{",
    ]
    for u in units:
        version = "v2" if u.index in post else "v1"
        lines.append(
            f"    private static final String {_fixture_field(u)} = \"fixtures/{_lower(u.noun)}/{version}.json\";"
        )
    lines += [f"    private final {service} service = new {service}();"]
    for u in units:
        lines.append("")
        lines += _test_method(u, repaired=False)
    lines.append("}")
    return _java(lines)


def _caller_path(p: Project, u: Unit, j: int) -> str:
    return f"src/main/java/{_pkg_path(p.base)}/service/{u.caller_areas[j]}/{u.callers[j]}.java"


def _site_var(u: Unit, j: int, s: int) -> str:
    return f"{_lower(u.noun)}{j}{'abcdefgh'[s]}"


def _caller_file(p: Project, u: Unit, j: int, post: bool, rng: random.Random) -> str:
    b = p.base
    cls = u.callers[j]
    area = u.caller_areas[j]
    field_name = _lower(u.service)
    imports = [f"import {b}.util.Strings;", f"import {b}.service.BaseCoordinator;"]
    if j % 2 == 0:
        imports.append(f"import {b}.core.{u.service};")
        imports.append(f"import {b}.core.ServiceException;")
    else:
        imports.append(f"import {b}.core.*;")
    if u.kind == PARAM:
        imports.append(f"import {b}.model.Receipt;")
        imports.append(f"import {b}.model.{u.new_type if post else 'RequestOptions'};")
    else:
        imports.append(f"import {b}.model.{u.new_type if post else 'Stats'};")
    lines = [f"package {b}.service.{area};", "", *sorted(imports), ""]
    lines += [
        f"/** {cls}: drives {_lower(u.noun)} flows for the {area} area. */",
        f"public class {cls} extends BaseCoordinator {{",
        f"    private final {u.service} {field_name};",
        f"    private final String prefix = \"{area}/{j}\";",
        "",
        f"    public {cls}({u.service} {field_name}) {{",
        f"        this.{field_name} = require({field_name});",
        "    }",
    ]
    sites = p.scale.sites_per_caller
    for s in range(sites):
        var = _site_var(u, j, s)
        lines.append("")
        seconds = 5 + (j * 7 + s * 3) % 90
        if u.kind == PARAM:
            lines += [
                f"    public Receipt place{_cap(var)}(String key) throws ServiceException {{",
                f"        // site {var}: {seconds}s budget",
            ]
            if not post:
                lines.append(
                    f"        RequestOptions {var}Options = RequestOptions.defaults().withTimeout({seconds});"
                )
            else:
                lines.append(
                    f"        {u.new_type} {var}Settings = {u.new_type}.draft().timeout({seconds}).build();"
                )
            lines.append("        String label = Strings.join(prefix, key);")
            arg = f"{var}Settings" if post else f"{var}Options"
            lines += [
                f"        return {field_name}.{u.method}(label, {arg});",
                "    }",
            ]
        else:
            lines.append(f"    public long audit{_cap(var)}(String key) {{")
            if not post:
                lines.append(f"        Stats {var}Stats = {field_name}.{u.method}(key);")
            else:
                lines.append(f"        {u.new_type}<Long> {var}Report = {field_name}.{u.method}(key);")
            lines.append(f"        String tag = \"audit-{var}\";")
            if not post:
                lines.append(f"        long {var}Total = {var}Stats.total() + {seconds};")
            else:
                lines.append(f"        long {var}Total = {var}Report.getTotal() + {seconds};")
            lines += [
                f"        return Strings.isBlank(tag) ? 0L : {var}Total;",
                "    }",
            ]
    for m in range(j % 3):
        lines.append("")
        lines += _noise_method(rng, cls, m, j + m)
    lines.append("}")
    return _java(lines)


# ----------------------------------------------------------------------
# noise classes
# ----------------------------------------------------------------------


def _noise_method(rng: random.Random, owner: str, m: int, variant: int) -> list[str]:
    verb = rng.choice(NOISE_VERBS)
    noun = rng.choice(NOISE_NOUNS)
    name = f"{verb}{noun}{m}"
    shape = variant % 6
    if shape == 0:
        return [
            f"    public int {name}(int[] values) {{",
            "        int acc = 0;",
            "        for (int i = 0; i < values.length; i++) {",
            f"            acc += values[i] * {rng.randrange(2, 31)};",
            "        }",
            "        return acc;",
            "    }",
        ]
    if shape == 1:
        return [
            "    @SuppressWarnings(\"unchecked\")",
            f"    public <T extends Comparable<T>> List<T> {name}(List<T> items, T floor) {{",
            "        List<T> out = new ArrayList<>();",
            "        for (T item : items) {",
            "            if (item.compareTo(floor) >= 0) {",
            "                out.add(item);",
            "            }",
            "        }",
            "        return out;",
            "    }",
        ]
    if shape == 2:
        text = rng.choice(["path // not a comment", "brace { inside", "quote \\\" inside", "tab\\tsep"])
        return [
            f"    protected String {name}(String input) {{",
            "        /* keep separators stable across versions */",
            f"        String marker = \"{text}\";",
            "        char sep = '/';",
            "        return input == null ? marker : input + sep + marker;",
            "    }",
        ]
    if shape == 3:
        return [
            f"    public Map<String, Integer> {name}(Map<String, Integer> counts) {{",
            "        Map<String, Integer> copy = new HashMap<>(counts);",
            f"        copy.replaceAll((k, v) -> v == null ? 0 : v + {rng.randrange(1, 9)});",
            "        return copy;",
            "    }",
        ]
    if shape == 4:
        return [
            f"    public long {name}(long seed) {{",
            "        try {",
            f"            return Math.floorMod(seed * {rng.randrange(3, 999)}L, {rng.randrange(7, 9999)}L);",
            "        } catch (ArithmeticException e) {",
            "            return -1L; // unreachable for positive moduli",
            "        }",
            "    }",
        ]
    return [
        "    @Override",
        "    public String toString() {" if m == 0 else f"    public String {name}() {{",
        f"        return \"{owner}[\" + hashCode() + \"]\";",
        "    }",
    ]


def _noise_file(
    p: Project, n: int, rng: random.Random, mention: Unit | None
) -> str:
    package, name, methods = p.noise[n]
    b = p.base
    imports = ["import java.util.ArrayList;", "import java.util.HashMap;",
               "import java.util.List;", "import java.util.Map;",
               f"import {b}.util.Strings;", f"import {b}.model.*;"]
    parent = p.noise_parents.get(name)
    lines = [f"package {package};", "", *imports, ""]
    lines.append("/**")
    lines.append(f" * {name} — generated support class.")
    if mention is not None:
        lines.append(f" * Not related to {{@link {mention.service}#{mention.method}}}.")
    lines.append(" */")
    if n % 10 == 0 and parent is None:
        lines += [
            f"public enum {name} {{",
            "    ALPHA(\"a\"), BETA(\"b\"), GAMMA(\"c\");",
            "",
            "    private final String code;",
            "",
            f"    {name}(String code) {{",
            "        this.code = code;",
            "    }",
            "",
            "    public String code() {",
            "        return code;",
            "    }",
            "}",
        ]
        return _java(lines)
    extends = f" extends {parent}" if parent else ""
    lines.append(f"public class {name}{extends} {{")
    lines.append(f"    public static final int LIMIT = {rng.randrange(1, 500)};")
    lines.append(f"    private final List<String> names = new ArrayList<>();")
    lines.append(f"    protected char delimiter = '{rng.choice([',', ';', '|'])}';")
    for m in range(methods):
        lines.append("")
        lines += _noise_method(rng, name, m, n + m)
    if n % 3 == 0:
        lines += [
            "",
            "    static final class Cache {",
            "        private final Map<String, String> values = new HashMap<>();",
            "",
            "        String lookup(String key) {",
            "            return values.getOrDefault(key, Strings.join(\"miss\", key));",
            "        }",
            "    }",
        ]
    lines.append("}")
    return _java(lines)


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------


@dataclass
class Workload:
    root: Path
    manifest: Path
    sample_ids: list[str]
    jobs: int


def _project_files(p: Project) -> tuple[dict[str, str], dict[tuple[int, str], tuple[str, str]], dict[int, list[Member]]]:
    """Neutral files, per-unit (pre, post) variants, and new-type members."""
    rng = random.Random(p.rng_seed)
    neutral = _support_files(p.base)
    variants: dict[tuple[int, str], tuple[str, str]] = {}
    members: dict[int, list[Member]] = {}
    for service in p.services:
        neutral[_service_path(p, service)] = _service_file(p, service, None)
        neutral[_test_path(p, service)] = _test_file(p, service, None)
    for u in p.units:
        path, text, planted = _new_type_file(p, u)
        neutral[path] = text
        members[u.index] = planted
        variants[(u.index, _service_path(p, u.service))] = (
            neutral[_service_path(p, u.service)], _service_file(p, u.service, u))
        variants[(u.index, _test_path(p, u.service))] = (
            neutral[_test_path(p, u.service)], _test_file(p, u.service, u))
        for j in range(len(u.callers)):
            caller_rng_state = rng.getstate()
            pre = _caller_file(p, u, j, False, rng)
            rng.setstate(caller_rng_state)
            post = _caller_file(p, u, j, True, rng)
            path = _caller_path(p, u, j)
            neutral[path] = pre
            variants[(u.index, path)] = (pre, post)
    for n, (package, name, _methods) in enumerate(p.noise):
        mention = None
        if p.units and n % 20 < 20 * p.scale.focal_mention_share:
            mention = p.units[0]
        path = f"src/main/java/{_pkg_path(package)}/{name}.java"
        neutral[path] = _noise_file(p, n, rng, mention)
    return neutral, variants, members


def _ground_truth(u: Unit) -> str:
    return "\n".join(line[4:] for line in _test_method(u, repaired=True))


def _truth(p: Project, u: Unit, sample_id: str, members: list[Member]) -> dict:
    callers = []
    for j in range(len(u.callers)):
        callers.append({
            "file": _caller_path(p, u, j),
            "sites": [
                (f"{_site_var(u, j, s)}Settings" if u.kind == PARAM else f"{_site_var(u, j, s)}Report")
                for s in range(p.scale.sites_per_caller)
            ],
        })
    return {
        "sample_id": sample_id,
        "kind": u.kind,
        "focal_method": u.method,
        "new_type": u.new_type,
        "defining_classes": [u.new_type, "BaseSettings" if u.kind == PARAM else "BaseReport", "AttributeBag"],
        "members": [m.__dict__ for m in members],
        "callers": callers,
        "env_hunks": [
            {"family": "env_ctx_focal", "file": _service_path(p, u.service), "marker": _unit_constant(u)},
            {"family": "env_ctx_focal", "file": _service_path(p, u.service), "marker": f"{u.method}@v2"},
            {"family": "env_ctx_test", "file": _test_path(p, u.service), "marker": _fixture_field(u)},
        ],
    }


def generate(name: str, seed: int, root: Path, scale: Scale | None = None) -> Workload:
    """Write workload ``name`` for ``seed`` under ``root`` (which must not exist)."""
    scale = scale or WORKLOADS[name]
    root.mkdir(parents=True)
    (root / "truth").mkdir()
    manifest: list[dict] = []
    sample_ids: list[str] = []
    units_per_project = -(-scale.samples // scale.projects)
    projects = [
        _plan_project(seed, scale, units_per_project, f"{name[:1]}{k}", k)
        for k in range(scale.projects)
    ]
    built = [_project_files(p) for p in projects]
    for i in range(scale.samples):
        k = i % scale.projects
        p = projects[k]
        neutral, variants, members = built[k]
        u = p.units[i // scale.projects]
        sample_id = f"{name}-{i:02d}-{u.method}"
        sample_ids.append(sample_id)
        base = root / "samples" / sample_id
        for version, pick in (("pre", 0), ("post", 1)):
            for path, text in neutral.items():
                text = variants[(u.index, path)][pick] if (u.index, path) in variants else text
                target = base / version / path
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text, encoding="utf-8")
        rng = random.Random(f"{seed}:{sample_id}")
        service_file = _service_path(p, u.service)
        test_file = _test_path(p, u.service)
        if u.kind == PARAM:
            params_pre, params_post = ["String", "RequestOptions"], ["String", u.new_type]
        else:
            params_pre = params_post = ["String"]
        manifest.append({
            "id": sample_id,
            "pre_root": f"samples/{sample_id}/pre",
            "post_root": f"samples/{sample_id}/post",
            "focal": {
                "file_pre": service_file,
                "file_post": service_file,
                "classes": [u.service],
                "method": u.method,
                "params_pre": params_pre,
                "params_post": params_post,
            },
            "test": {
                "file": test_file,
                "classes": [f"{u.service}Test"],
                "method": u.test_method,
                "params": [],
            },
            "ground_truth": _ground_truth(u),
            "project": p.base,
            "commit": f"{rng.getrandbits(32):08x}",
        })
        truth = _truth(p, u, sample_id, members[u.index])
        (root / "truth" / f"{sample_id}.json").write_text(
            json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return Workload(root, manifest_path, sample_ids, scale.jobs)
