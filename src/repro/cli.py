"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables/figures or run live demos on
the simulated platform:

* ``table1``    — Table 1 FPGA resource utilization
* ``figure7``   — Fig. 7 cost-scaling series + crossover summary
* ``matrix``    — the capability matrix (SMART / Sancus / TrustLite)
* ``fig3``      — the live access-control matrix of a booted platform
* ``demo``      — boot and run the two-trustlet scheduling demo
* ``disasm``    — disassemble a module of the demo image
* ``lint``      — statically verify an image (trustlint)
* ``fleet``     — clone a device fleet and run remote attestation
* ``serve``     — run the fleet as an attestation service under
  seeded open-loop load (Poisson arrivals, bursts, flap storms)
* ``faults``    — seeded fault-injection campaign over the fleet
* ``ota``       — staged signed-firmware update campaign with health
  gates and deterministic auto-rollback

Exit codes are uniform across commands: **0** success / clean,
**1** findings or a failed check, **2** usage error (unknown command,
bad argument, unknown module or image name).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from repro.errors import ReproError
from repro.machine.access import AccessType

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _cmd_table1(_args) -> int:
    from repro.hwcost.model import format_table1

    print(format_table1())
    return 0


def _cmd_figure7(_args) -> int:
    from repro.hwcost.figure7 import crossover_summary, format_figure7

    print(format_figure7())
    print()
    for key, value in crossover_summary().items():
        print(f"{key}: {value}")
    return 0


def _cmd_matrix(_args) -> int:
    from repro.baselines.capabilities import format_matrix

    print(format_matrix())
    return 0


def _cmd_fig3(_args) -> int:
    from repro.core.platform import TrustLitePlatform
    from repro.sw.images import build_two_counter_image

    platform = TrustLitePlatform()
    image = build_two_counter_image()
    platform.boot(image)
    names = ("TL-A", "TL-B", "OS")
    subjects = {n: image.layout_of(n).code_base + 0x40 for n in names}
    print(f"{'object':16s}" + "".join(f"{n:>8s}" for n in names))
    for name in names:
        lay = image.layout_of(name)
        for label, addr in (
            (f"{name} entry", lay.entry),
            (f"{name} code", lay.code_base + 0x40),
            (f"{name} data", lay.data_base),
            (f"{name} stack", lay.stack_base),
        ):
            cells = ""
            for subject in names:
                letters = "".join(
                    letter
                    for letter, access in (
                        ("r", AccessType.READ),
                        ("w", AccessType.WRITE),
                        ("x", AccessType.FETCH),
                    )
                    if platform.mpu.allows(subjects[subject], addr, 4, access)
                )
                cells += f"{letters or '-':>8s}"
            print(f"{label:16s}{cells}")
    return 0


def _cmd_demo(args) -> int:
    from repro.core.platform import TrustLitePlatform
    from repro.sw.images import build_two_counter_image
    from repro.sw import trustlets

    platform = TrustLitePlatform()
    platform.boot(build_two_counter_image(timer_period=args.period))
    platform.run(max_cycles=args.cycles)
    stats = platform.engine.stats
    print(f"cycles run           : {platform.cpu.cycles}")
    print(f"timer interrupts     : {stats.interrupts}")
    print(f"trustlet preemptions : {stats.trustlet_interruptions}")
    for name in ("TL-A", "TL-B"):
        counter = platform.read_trustlet_word(
            name, trustlets.COUNTER_OFF_VALUE
        )
        print(f"{name} counter        : {counter}")
    print(f"MPU faults           : {platform.mpu.stats.faults}")
    return 0


def _cmd_disasm(args) -> int:
    from repro.isa.disasm import disassemble, format_listing
    from repro.sw.images import build_two_counter_image

    image = build_two_counter_image()
    try:
        lay = image.layout_of(args.module)
    except Exception:
        print(f"unknown module {args.module!r}; "
              f"choose from {', '.join(image.module_order)}",
              file=sys.stderr)
        return EXIT_USAGE
    code = image.prom[lay.code_base:lay.code_end]
    print(format_listing(disassemble(code, base=lay.code_base)))
    return EXIT_OK


def _lint_images() -> dict:
    from repro.sw import images
    from repro.sw.epay import build_epay_image
    from repro.sw.handshake import build_handshake_image

    return {
        "two-counter": images.build_two_counter_image,
        "ipc": images.build_ipc_image,
        "attestation": images.build_attestation_image,
        "epay": build_epay_image,
        "handshake": build_handshake_image,
        "broken": images.build_broken_image,
    }


def _cmd_lint(args) -> int:
    from repro.analysis import lint_container, lint_image

    if args.container:
        from repro.ota import build_demo_container

        stream, root, floor = build_demo_container(args.container)
        report = lint_container(
            stream,
            trust_root=root,
            version_floor=floor,
            image_name=f"container:{args.container}",
        )
    else:
        image = _lint_images()[args.image]()
        report = lint_image(image, image_name=args.image)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return EXIT_OK if report.ok else EXIT_FINDINGS


def _launch(args, config_type, run, fmt, execution=None, **derived) -> int:
    """Build, run and print one fleet front-end's report.

    The frozen ``config_type`` takes every parsed flag whose ``dest``
    names one of its fields, overridden by the ``derived`` fields the
    command computes itself.  ``execution()`` returns how ``run``
    executes the config (default: ``workers=args.workers``); a
    ``--workers`` below 1 or a value the config rejects is a usage
    error.  The exit code is 0 when ``report["ok"]``, else 1.
    """
    try:
        if args.workers < 1:
            raise ReproError(f"workers must be >= 1: {args.workers}")
        options = execution() if execution else {"workers": args.workers}
        given = {
            field.name: getattr(args, field.name)
            for field in fields(config_type)
            if hasattr(args, field.name)
        }
        config = config_type(**{**given, **derived})
    except ReproError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run(config, **options)
    print(json.dumps(report, indent=2) if args.json else fmt(report))
    return EXIT_OK if report["ok"] else EXIT_FINDINGS


def _cmd_fleet(args) -> int:
    from repro.fleet import (
        ExecutionPlan, FleetConfig, format_report, run_fleet,
    )

    return _launch(
        args, FleetConfig, run_fleet, format_report,
        execution=lambda: {"plan": ExecutionPlan(
            workers=args.workers,
            shard_size=None if args.adaptive_shards else args.shard_size,
            engine=args.engine,
        )},
    )


def _cmd_serve(args) -> int:
    from repro.fleet import ServiceConfig, format_serve_report, run_service

    # `--burst 4` alone is enough: default windows derive from the
    # duration (still a pure function of the arguments).
    windows = {}
    if args.burst_multiplier > 1.0 and not args.burst_every:
        windows = {
            "burst_every": max(1, args.duration_cycles // 4),
            "burst_length": (
                args.burst_length or max(1, args.duration_cycles // 8)
            ),
        }
    return _launch(
        args, ServiceConfig, run_service, format_serve_report, **windows
    )


def _cmd_faults(args) -> int:
    from repro.faults import CampaignConfig, format_campaign, run_campaign

    return _launch(args, CampaignConfig, run_campaign, format_campaign)


def _cmd_ota(args) -> int:
    from repro.ota import OtaConfig, format_ota_report, run_campaign

    return _launch(args, OtaConfig, run_campaign, format_ota_report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TrustLite (EuroSys 2014) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table1", help="Table 1 resource utilization") \
        .set_defaults(func=_cmd_table1)
    sub.add_parser("figure7", help="Fig. 7 scaling + crossover") \
        .set_defaults(func=_cmd_figure7)
    sub.add_parser("matrix", help="capability matrix") \
        .set_defaults(func=_cmd_matrix)
    sub.add_parser("fig3", help="live access-control matrix") \
        .set_defaults(func=_cmd_fig3)
    demo = sub.add_parser("demo", help="run the scheduling demo")
    demo.add_argument("--cycles", type=int, default=200_000)
    demo.add_argument("--period", type=int, default=400)
    demo.set_defaults(func=_cmd_demo)
    disasm = sub.add_parser("disasm", help="disassemble a demo module")
    disasm.add_argument("module", help="module name (OS, TL-A, TL-B)")
    disasm.set_defaults(func=_cmd_disasm)
    lint = sub.add_parser(
        "lint",
        help="statically verify an image (exit 0 clean, 1 findings)",
    )
    lint.add_argument(
        "--image",
        choices=(
            "two-counter", "ipc", "attestation", "epay", "handshake",
            "broken",
        ),
        default="two-counter",
        help="canned image to verify (default: %(default)s)",
    )
    lint.add_argument(
        "--container",
        choices=(
            "signed", "unsigned", "wrong-key", "rollback", "tampered",
            "truncated",
        ),
        default=None,
        help="lint a canned signed firmware container (TL-OTA rules) "
             "instead of an image",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report",
    )
    lint.set_defaults(func=_cmd_lint)
    fleet = sub.add_parser(
        "fleet",
        help="clone a fleet and attest it (exit 0 all verdicts as "
             "expected, 1 otherwise)",
    )
    fleet.add_argument("--devices", type=int, default=8,
                       help="fleet size (default: %(default)s)")
    fleet.add_argument("--rounds", type=int, default=1,
                       help="attestation rounds (default: %(default)s)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="seed for nonces, faults and compromise choice")
    fleet.add_argument("--compromise", type=int, default=1,
                       help="devices to tamper post-boot "
                            "(default: %(default)s)")
    fleet.add_argument("--drop-rate", type=float, default=0.0,
                       help="per-link message loss probability")
    fleet.add_argument("--delay-min", type=int, default=0,
                       help="minimum link delay in cycles")
    fleet.add_argument("--delay-max", type=int, default=512,
                       help="maximum link delay in cycles")
    fleet.add_argument("--timeout-cycles", type=int, default=8192,
                       help="per-attempt response timeout in cycles")
    fleet.add_argument("--retries", dest="max_retries", type=int,
                       default=2,
                       help="re-challenges before marking unresponsive")
    fleet.add_argument("--backoff", type=float, default=1.0,
                       help="timeout multiplier per retry attempt "
                            "(simulated cycles; default: %(default)s)")
    fleet.add_argument("--step-cycles", type=int, default=0,
                       help="guest cycles each device runs between rounds")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker processes for sharded execution "
                            "(default: %(default)s; verdicts are "
                            "identical for any worker count)")
    fleet.add_argument("--shard-size", type=int, default=16,
                       help="devices per shard (default: %(default)s)")
    fleet.add_argument("--adaptive-shards", action="store_true",
                       help="size shards from measured per-device "
                            "cost instead of --shard-size")
    fleet.add_argument("--engine", choices=("fast", "reference", "trace"),
                       default="trace",
                       help="execution engine for hydrated clones "
                            "(default: %(default)s; every engine "
                            "gives the identical report)")
    fleet.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
    fleet.set_defaults(func=_cmd_fleet)
    serve = sub.add_parser(
        "serve",
        help="run the attestation service under seeded open-loop load "
             "(exit 0 all verdicts as expected, 1 otherwise)",
    )
    serve.add_argument("--devices", type=int, default=8,
                       help="fleet size (default: %(default)s)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for arrivals, nonces, faults, storms "
                            "and compromise choice")
    serve.add_argument("--compromise", type=int, default=1,
                       help="devices to tamper post-boot "
                            "(default: %(default)s)")
    serve.add_argument("--duration", dest="duration_cycles", type=int,
                       default=60_000,
                       help="load horizon in simulated cycles "
                            "(default: %(default)s); the service "
                            "then drains")
    serve.add_argument("--rate", dest="rate_per_kcycle", type=float,
                       default=2.0,
                       help="mean arrivals per 1000 cycles "
                            "(default: %(default)s)")
    serve.add_argument("--burst", dest="burst_multiplier", type=float,
                       default=1.0,
                       help="burst-window rate multiplier "
                            "(default: %(default)s = no bursts; > 1 "
                            "enables burst trains)")
    serve.add_argument("--burst-every", type=int, default=0,
                       help="cycles between burst-window starts "
                            "(default: duration/4 when --burst > 1)")
    serve.add_argument("--burst-length", type=int, default=0,
                       help="burst window length in cycles "
                            "(default: duration/8 when --burst > 1)")
    serve.add_argument("--storm-up", dest="storm_up_mean", type=int,
                       default=0,
                       help="flap storm: mean cycles up between outages "
                            "(0 = no storm)")
    serve.add_argument("--storm-down", dest="storm_down_mean", type=int,
                       default=0,
                       help="flap storm: mean cycles down per outage")
    serve.add_argument("--drop-rate", type=float, default=0.0,
                       help="per-link message loss probability")
    serve.add_argument("--delay-min", type=int, default=0,
                       help="minimum link delay in cycles")
    serve.add_argument("--delay-max", type=int, default=256,
                       help="maximum link delay in cycles")
    serve.add_argument("--timeout-cycles", type=int, default=8192,
                       help="challenge expiry in cycles (no retries in "
                            "open-loop mode; losses are measured)")
    serve.add_argument("--tick-cycles", type=int, default=256,
                       help="simulated cycles per server tick")
    serve.add_argument("--queue", dest="queue_capacity", type=int,
                       default=64,
                       help="admission queue capacity; overflow is shed")
    serve.add_argument("--batch-max", type=int, default=8,
                       help="max quotes per verification batch")
    serve.add_argument("--pipeline", dest="pipeline_depth", type=int,
                       default=2,
                       help="modeled verifier pipeline lanes (part of "
                            "the simulation, changes the report)")
    serve.add_argument("--workers", type=int, default=1,
                       help="worker processes for the quote checks "
                            "(wall clock only; the report is identical "
                            "for any worker count)")
    serve.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
    serve.set_defaults(func=_cmd_serve)
    faults = sub.add_parser(
        "faults",
        help="run the seeded fault-injection campaign (exit 0 all "
             "invariants hold, 1 violations)",
    )
    faults.add_argument("--seed", type=int, default=0,
                        help="campaign seed (every fault stream derives "
                             "from it; same seed, same report bytes)")
    faults.add_argument("--rounds", type=int, default=2,
                        help="attestation rounds per scenario "
                             "(default: %(default)s)")
    faults.add_argument("--timeout-cycles", type=int, default=8192,
                        help="per-attempt response timeout in cycles")
    faults.add_argument("--retries", dest="max_retries", type=int,
                        default=2,
                        help="re-challenges before marking unresponsive "
                             "(must be >= 1)")
    faults.add_argument("--backoff", type=float, default=1.0,
                        help="timeout multiplier per retry attempt")
    faults.add_argument("--step-cycles", type=int, default=2000,
                        help="guest cycles run between rounds in the "
                             "IRQ/MPU scenarios")
    faults.add_argument("--workers", type=int, default=1,
                        help="worker processes (the report is identical "
                             "for any worker count)")
    faults.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    faults.set_defaults(func=_cmd_faults)
    ota = sub.add_parser(
        "ota",
        help="run a staged signed-firmware update campaign (exit 0 "
             "fleet updated, 1 rolled back / failed)",
    )
    ota.add_argument("--devices", type=int, default=6,
                     help="fleet size (default: %(default)s)")
    ota.add_argument("--seed", type=int, default=0,
                     help="campaign seed (keys, link faults, nonces; "
                          "same seed, same report bytes)")
    ota.add_argument("--canary", type=int, default=1,
                     help="devices in the canary wave "
                          "(default: %(default)s)")
    ota.add_argument("--cohort", type=int, default=0,
                     help="devices in the cohort wave (0 = a quarter "
                          "of the remainder)")
    ota.add_argument("--chunk-size", type=int, default=1024,
                     help="container transfer chunk bytes "
                          "(default: %(default)s)")
    ota.add_argument("--drop-rate", type=float, default=0.0,
                     help="per-link message loss probability")
    ota.add_argument("--delay-min", type=int, default=0,
                     help="minimum link delay in cycles")
    ota.add_argument("--delay-max", type=int, default=256,
                     help="maximum link delay in cycles")
    ota.add_argument("--timeout-cycles", type=int, default=8192,
                     help="per-chunk ack timeout in cycles")
    ota.add_argument("--attempts", dest="max_attempts", type=int,
                     default=3,
                     help="chunk send attempts before the transfer "
                          "fails (default: %(default)s)")
    ota.add_argument("--backoff-cycles", type=int, default=4096,
                     help="simulated-cycle backoff base per chunk "
                          "retry (executor formula; "
                          "default: %(default)s)")
    ota.add_argument("--fail", choices=("none", "canary"),
                     default="none",
                     help="force a failure mode: 'canary' tampers the "
                          "canary wave's installed code so the health "
                          "gate fails and the campaign rolls back")
    ota.add_argument("--corrupt-chunk", type=int, default=-1,
                     help="flip a byte of this chunk index in flight "
                          "on every device's first attempt (-1 = off)")
    ota.add_argument("--workers", type=int, default=1,
                     help="worker processes (the report payload is "
                          "identical for any worker count)")
    ota.add_argument("--json", action="store_true",
                     help="emit the machine-readable report")
    ota.set_defaults(func=_cmd_ota)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into something like `head`; exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
