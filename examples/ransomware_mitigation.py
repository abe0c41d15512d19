#!/usr/bin/env python
"""In-CSD detection + mitigation: stop a Lockbit run mid-encryption.

The paper's motivating scenario (Sections I, IV): the classifier lives on
the drive next to the data it protects, so a positive verdict can refuse
the malware's subsequent writes *at the storage*, before the bulk of the
files are encrypted.

This example:

1. trains and deploys the detector (small scale for speed);
2. "executes" a Lockbit variant in the sandbox to get its API-call trace;
3. replays the trace call-by-call: every NtWriteFile becomes a write to
   the SmartSSD attributed to the malware's stream, every call feeds the
   streaming detector, and every verdict feeds the response engine,
   which write-blocks the stream at the drive on the first alarm;
4. shows the timeline — when the alarm fired, how many encrypted-file
   writes were admitted before the block, and how many were refused.

Run:  python examples/ransomware_mitigation.py
"""

from repro import build_dataset
from repro.hw.smartssd import SmartSSD, WriteRefused
from repro.nn import TrainingConfig
from repro.ransomware import CuckooSandbox, train_detector
from repro.ransomware.families import LOCKBIT
from repro.response import ResponseEngine, ResponsePolicy, SmartSsdEnforcer

MALWARE_STREAM = "pid-4242"

#: Write-block a stream at the drive on its first positive verdict.
BLOCK_ON_FIRST_ALARM = ResponsePolicy(
    write_block_threshold=0.0, quarantine_threshold=None,
    kill_threshold=None, confirmations=1, attribute=False,
)


def main() -> None:
    print("Training the detector (scaled-down dataset)...")
    dataset = build_dataset(scale=0.05, seed=3)
    detector, _, _ = train_detector(
        dataset,
        training=TrainingConfig(epochs=12, eval_every=12, learning_rate=0.005),
        seed=0,
    )
    detector.stride = 10  # classify every 10th window: still sub-ms reaction

    print("Detonating Lockbit variant 3 in the sandbox...")
    trace = CuckooSandbox(seed=99).execute_ransomware(LOCKBIT, 3)
    print(f"  trace: {len(trace)} API calls")

    device = SmartSSD()
    responder = ResponseEngine(
        policy=BLOCK_ON_FIRST_ALARM, enforcer=SmartSsdEnforcer(device)
    )

    detector.reset()
    admitted, refused = 0, 0
    for index, call in enumerate(trace.calls):
        if call == "NtWriteFile":
            try:
                device.stream_write(MALWARE_STREAM, f"victim-file-{index}", 64 * 1024)
                admitted += 1
            except WriteRefused:
                refused += 1
        verdict = detector.observe(call)
        if verdict is None:
            continue
        if responder.on_verdict(MALWARE_STREAM, verdict).escalated:
            print(f"  ALARM at call {index} "
                  f"(p={verdict.probability:.3f}, "
                  f"inference {verdict.inference_microseconds:.0f} us)")

    total_writes = admitted + refused
    print("\nOutcome:")
    print(f"  encrypted-file writes attempted : {total_writes}")
    print(f"  admitted before the block       : {admitted} "
          f"({admitted / total_writes:.1%})")
    print(f"  refused by the CSD              : {refused} "
          f"({refused / total_writes:.1%})")
    print(f"  bytes of encryption prevented   : {device.blocked_bytes:,}")

    # A benign process is untouched throughout.
    device.stream_write("pid-1", "user-document", 4096)
    print("  benign process writes           : still admitted")


if __name__ == "__main__":
    main()
