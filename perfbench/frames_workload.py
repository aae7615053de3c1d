"""``frames``: one camera in a closed loop through ``RecognitionSystem.process_frame``.

A seeded 320x240 synthetic entrance scene with five actors is pre-rendered
during set-up as ``CLIPS`` clips of ``CLIP_FRAMES`` frames, each from its
own sub-seed and each starting with every actor in view, so the number of
silhouettes per frame depends little on the seed.  The timed phase replays
the clips back to back, each through a fresh system (background model and
tracker state evolve from frame to frame), until the time is up.  Frames
are classified in process with ``predict_batch`` on a 768-bit map.

The scene and the map follow ``benchmarks/test_vision_throughput.py``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core import BinarySom, SomClassifier
from repro.pipeline import RecognitionSystem, RecognitionSystemConfig
from repro.signatures import extract_signature
from repro.vision import ActorSpec, BackgroundSubtractor, SceneConfig, SyntheticSurveillanceScene
from repro.vision.frame import Frame

import common
import ledger as ledger_mod

SCENE_HEIGHT, SCENE_WIDTH = 240, 320
CLIPS = 8
CLIP_FRAMES = 32
TRAIN_FRAMES = 40
MIN_BLOB_AREA = 300
MIN_TRAIN_MASK_PIXELS = 300
N_NEURONS = 16
TRAIN_EPOCHS = 6
WARMUP_FRAMES = 16
PARITY_FRAMES = 6


def bench_actors() -> list:
    """Five actors sized for the 320x240 scene."""
    return [
        ActorSpec(0, torso_colour=(210, 40, 40), legs_colour=(40, 40, 60),
                  height=60, width=26, speed=2.0, entry_row=60, colour_jitter=3.0),
        ActorSpec(1, torso_colour=(40, 70, 210), legs_colour=(90, 90, 100),
                  height=64, width=28, speed=-2.4, entry_row=90, colour_jitter=3.0),
        ActorSpec(2, torso_colour=(60, 180, 70), legs_colour=(40, 40, 45),
                  height=62, width=27, speed=2.8, entry_row=130, colour_jitter=3.0),
        ActorSpec(3, torso_colour=(230, 200, 60), legs_colour=(60, 50, 40),
                  height=58, width=25, speed=-2.0, entry_row=40, colour_jitter=3.0),
        ActorSpec(4, torso_colour=(150, 60, 170), legs_colour=(30, 30, 50),
                  height=66, width=28, speed=2.4, entry_row=170, colour_jitter=3.0),
    ]


def scene(seed) -> SyntheticSurveillanceScene:
    """No camera jitter or occluders; every actor starts in view."""
    config = SceneConfig(
        height=SCENE_HEIGHT, width=SCENE_WIDTH, lighting_amplitude=4.0,
        camera_jitter_pixels=0, pixel_noise_std=2.0, furniture_occluders=0,
        initial_pause_max_frames=0,
    )
    return SyntheticSurveillanceScene(actors=bench_actors(), config=config, seed=seed)


def train_classifier(scene_seed, som_seed, train_seed) -> SomClassifier:
    """A bSOM fitted on ground-truth silhouette signatures of a training scene."""
    signatures, labels = [], []
    for frame in scene(scene_seed).frames(TRAIN_FRAMES):
        for identity, mask in frame.truth_masks.items():
            if mask.sum() >= MIN_TRAIN_MASK_PIXELS:
                signatures.append(extract_signature(frame.image, mask).bits)
                labels.append(identity)
    X = np.array(signatures, dtype=np.uint8)
    y = np.array(labels, dtype=np.int64)
    return SomClassifier(BinarySom(N_NEURONS, 768, seed=som_seed)).fit(
        X, y, epochs=TRAIN_EPOCHS, seed=train_seed
    )


def make_inputs(seed: int):
    """(classifier, background plate, clips of frames) from the seed alone."""
    s_train, s_som, s_fit, s_clips = np.random.SeedSequence([seed, 0]).spawn(4)
    classifier = train_classifier(np.random.default_rng(s_train),
                                  int(s_som.generate_state(1)[0]),
                                  int(s_fit.generate_state(1)[0]))
    clips = []
    for clip_seed in s_clips.spawn(CLIPS):
        # Keep only what process_frame reads; ground-truth masks are large.
        clips.append([
            Frame(index=f.index, image=f.image, timestamp=f.timestamp)
            for f in scene(np.random.default_rng(clip_seed)).frames(CLIP_FRAMES)
        ])
    return classifier, scene(0).background, clips


def new_system(classifier, background, vectorized=True) -> RecognitionSystem:
    system = RecognitionSystem(
        classifier,
        RecognitionSystemConfig(min_blob_area=MIN_BLOB_AREA, vectorized=vectorized),
    )
    system.initialise_background(background)
    return system


def replay(classifier, background, clips, seconds: float, ledger=None) -> dict:
    """Process clips until ``seconds`` of frame loop have run (at least one pass).

    A pass is one run through every clip; ``passes`` holds each full pass's
    (frames, loop wall seconds, process CPU seconds).
    """
    frame_s, labels, bits, passes = [], [], [], []
    loop_s = 0.0
    pass_start = (0, 0.0, time.process_time())
    spans_before = ledger.snapshot() if ledger is not None else None
    threads_before = common.thread_cpu_seconds()
    cpu_before = time.process_time()
    clock = time.perf_counter
    done_clips = 0
    while loop_s < seconds or done_clips < len(clips):
        clip = clips[done_clips % len(clips)]
        system = new_system(classifier, background)
        begin = clock()
        for frame in clip:
            start = clock()
            observations = system.process_frame(frame)
            frame_s.append(clock() - start)
            for observation in observations:
                labels.append(observation.label)
                bits.append(observation.signature.bits)
        loop_s += clock() - begin
        done_clips += 1
        if done_clips % len(clips) == 0:
            now = (len(frame_s), loop_s, time.process_time())
            passes.append(tuple(end - start for end, start in zip(now, pass_start)))
            pass_start = now
    process_cpu = time.process_time() - cpu_before
    thread_cpu = common.thread_cpu_delta(threads_before, common.thread_cpu_seconds())
    spans = ledger_mod.window(spans_before, ledger.snapshot()) if ledger else {}
    return {
        "frame_s": frame_s, "loop_s": loop_s, "passes": passes,
        "process_cpu_s": process_cpu,
        "thread_cpu": thread_cpu, "spans": spans,
        "labels": np.asarray(labels, dtype=np.int64),
        "bits": np.asarray(bits, dtype=np.uint8).reshape(len(bits), -1),
    }


def wrong_labels(classifier, labels: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Mask of frame labels that differ from ``predict_batch`` on their signatures."""
    if len(labels) == 0:
        return np.zeros(0, dtype=bool)
    return classifier.predict_batch(bits).labels != labels


def segmentation_mismatches(classifier, background, clip) -> tuple:
    """(blobs compared, mismatches) of the vectorized path vs the oracle path.

    The oracle system keeps a vectorized background subtractor, as in the
    repo's own parity test: the bit-exactness claim covers morphology,
    labelling and blob extraction on identical foreground masks.
    """
    fast = new_system(classifier, background, vectorized=True)
    oracle = new_system(classifier, background, vectorized=False)
    oracle.subtractor = BackgroundSubtractor(
        threshold=oracle.config.difference_threshold, vectorized=True
    )
    oracle.subtractor.initialise(background)
    compared = mismatches = 0
    for frame in clip[:PARITY_FRAMES]:
        fast_blobs, oracle_blobs = fast.segment(frame.image), oracle.segment(frame.image)
        if len(fast_blobs) != len(oracle_blobs):
            mismatches += 1
            continue
        for a, b in zip(fast_blobs, oracle_blobs):
            compared += 1
            same = (a.label == b.label and a.area == b.area
                    and a.bounding_box == b.bounding_box and a.centroid == b.centroid
                    and np.array_equal(a.mask, b.mask))
            mismatches += not same
    return compared, mismatches


def _accounting(result: dict, classifier) -> dict:
    wrong = wrong_labels(classifier, result["labels"], result["bits"])
    frames = len(result["frame_s"])
    return {"offered": frames, "attempted": frames, "answered": frames,
            "checked": len(result["labels"]), "wrong": int(wrong.sum())}


def run(seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    if trace:
        return _run_traced(seed, seconds)
    setup_times = []
    for _ in range(setup_repeats):
        begin = time.perf_counter()
        classifier, background, clips = make_inputs(seed)
        replay(classifier, background, [clips[0][:WARMUP_FRAMES]], 0.0)
        setup_times.append(time.perf_counter() - begin)
    result = replay(classifier, background, clips, seconds)
    timing = common.timing_summary(result["frame_s"])
    # Rates are medians over full passes, so one stalled pass moves them little.
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": statistics.median(n / wall for n, wall, _ in result["passes"]),
        "p50_ms": timing["p50_ms"],
        "p99_ms": timing["p99_ms"],
        "cpu_us_per_op": statistics.median(cpu * 1e6 / n for n, _, cpu in result["passes"]),
        "rss_mb": common.peak_rss_mb(),
    }
    counts = _accounting(result, classifier)
    parity_clip = clips[seed % len(clips)]
    counts["parity_blobs"], counts["parity_mismatches"] = segmentation_mismatches(
        classifier, background, parity_clip)
    counts["wrong"] += counts["parity_mismatches"]
    return {"metrics": metrics, "phases": {"frames": counts}, "timing": timing,
            "setup_times": setup_times, "ledger": None}


FRAME_ROWS = (
    ("vision.background.ms_per_frame", "vision.background"),
    ("vision.morphology.ms_per_frame", "vision.morphology"),
    ("vision.connected_components.ms_per_frame", "vision.connected_components"),
    ("vision.blobs.ms_per_frame", "vision.blobs"),
    ("vision.tracker.ms_per_frame", "vision.tracker"),
    ("signatures.histogram.ms_per_frame", "signatures.histogram"),
    ("signatures.binarize.ms_per_frame", "signatures.binarize"),
    ("core.classifier.ms_per_frame", "core.classifier"),
    ("pipeline.system.self_ms_per_frame", "pipeline.system"),
)


def _run_traced(seed: int, seconds: float) -> dict:
    classifier, background, clips = make_inputs(seed)
    replay(classifier, background, [clips[0][:WARMUP_FRAMES]], 0.0)
    untraced = replay(classifier, background, clips, seconds / 2.0)
    ledger = ledger_mod.Ledger()
    extracted = []
    ledger.on_return("vision.blobs:extract_blobs",
                     lambda args, blobs: extracted.append(len(blobs)))
    ledger.install(ledger_mod.FRAME_LAYERS)
    try:
        traced = replay(classifier, background, clips, seconds / 2.0, ledger=ledger)
    finally:
        ledger.uninstall()
    frames = len(traced["frame_s"])
    signatures = len(traced["labels"])
    wall_self = ledger_mod.layer_self(traced["spans"], index=3)
    cpu_self = ledger_mod.layer_self(traced["spans"])
    rows = ledger_mod.ledger_rows(traced["spans"], traced["thread_cpu"],
                                  traced["process_cpu_s"], frames)
    metrics = {name: wall_self[layer] * 1e3 / frames for name, layer in FRAME_ROWS}
    untraced_cpu_per_op = untraced["process_cpu_s"] * 1e6 / len(untraced["frame_s"])
    metrics.update({
        "vision.blobs.per_frame": sum(extracted) / frames,
        "core.classifier.signatures_per_frame": signatures / frames,
        "signatures.packing.us_per_req": (
            cpu_self["signatures.packing"] * 1e6 / signatures if signatures else 0.0),
        "trace.overhead_share": rows["total"] / untraced_cpu_per_op - 1.0,
    })
    phases = {"frames": _accounting(untraced, classifier),
              "traced frames": _accounting(traced, classifier)}
    return {"metrics": metrics, "phases": phases, "setup_times": [], "ledger": rows}
