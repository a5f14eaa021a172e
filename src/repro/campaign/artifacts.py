"""Structured campaign artifacts: ``results.json`` and ``results.csv``.

A campaign directory is the durable output of one sweep::

    <out>/
        spec.json      the expanded input spec (reproducibility)
        results.json   one record per cell + run metadata
        results.csv    the same records flattened for spreadsheets / pandas

``results.json`` is the machine-readable source of truth (benchmarks and
follow-up analysis load it back with :func:`load_results`); the CSV carries
the scalar columns only.  Terminal rendering lives in
:mod:`repro.campaign.report`: a finished sweep and ``repro sweep report``
print the same table from the same document.

Every artifact is written atomically — serialized to a ``.tmp`` sibling and
``os.replace``d into place — so an interrupted sweep can never leave a
half-written ``results.json`` behind; whatever was there before the write
survives intact.  A file that is nevertheless corrupt (e.g. produced by an
older release that wrote in place, or clobbered by something else) raises
:class:`ArtifactError` naming the path instead of a bare ``JSONDecodeError``.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Any, Callable, Dict, List, TextIO, Union

from repro.campaign.executor import CampaignResult
from repro.faults.injector import fault_point


class ArtifactError(ValueError):
    """A campaign artifact is missing its format marker or is unreadable.

    Subclasses :class:`ValueError` so callers that already guard artifact
    loads with ``except (OSError, ValueError)`` keep working; the message
    always names the offending path.
    """

#: Scalar columns exported to ``results.csv``, in order.
CSV_COLUMNS = (
    "index",
    "cell_id",
    "status",
    "seed",
    "requests",
    "delta",
    "inserted_volume",
    "final_volume",
    "max_footprint",
    "max_footprint_ratio",
    "mean_footprint_ratio",
    "cost_ratio",
    "total_moves",
    "total_moved_volume",
    "moves_per_insert",
    "max_request_moved_volume",
    "footprint_series",
    "gap_histogram",
    "per_class_occupancy",
    "trace_recorder",
    "device_elapsed_ms",
    "elapsed_seconds",
    "error",
)


def campaign_to_dict(result: CampaignResult) -> Dict[str, Any]:
    """The ``results.json`` document for one campaign run."""
    document = {
        "format": "repro-campaign-results",
        "version": 1,
        "campaign": result.spec.name,
        "seed": result.spec.seed,
        "jobs": result.jobs,
        "elapsed_seconds": round(result.elapsed_seconds, 6),
        "cells": len(result.records),
        "ok": len(result.ok_records),
        "errors": len(result.error_records),
        "resumed": result.metadata.get("resumed", 0),
        "spec": result.spec.to_dict(),
        "records": result.records,
    }
    if result.metadata.get("interrupted"):
        # A sweep cut short (Ctrl-C, dead worker): the records present are
        # complete and durable, but the matrix is not — ``--resume`` picks
        # the rest up instead of restarting from zero.
        document["interrupted"] = True
    return document


def atomic_write(path: Union[str, os.PathLike], writer: Callable[[TextIO], None]) -> None:
    """Write a text file atomically: ``.tmp`` sibling, fsync, ``os.replace``.

    A crash at any point leaves either the previous file or the complete new
    one — never a truncated hybrid.  The ``.tmp`` sibling lives in the same
    directory so the replace never crosses filesystems.  Each cut is a
    named fault site (``artifact.write.body`` / ``.fsync`` / ``.replace``)
    so the chaos harness can kill the write at every stage; a failed write
    removes its ``.tmp`` sibling instead of leaving it behind.
    """
    tmp_path = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="") as handle:
            fault_point("artifact.write.body")
            writer(handle)
            handle.flush()
            fault_point("artifact.write.fsync")
            os.fsync(handle.fileno())
        fault_point("artifact.write.replace")
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    os.replace(tmp_path, path)


def _dump_json(document: Any, handle: TextIO) -> None:
    json.dump(document, handle, indent=2, sort_keys=True)
    handle.write("\n")


def write_results(result: CampaignResult, out_dir: Union[str, os.PathLike]) -> Dict[str, str]:
    """Write ``spec.json`` / ``results.json`` / ``results.csv`` under ``out_dir``.

    Each file is written atomically (see :func:`atomic_write`).  Returns the
    paths written, keyed by artifact name.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "spec": os.path.join(out_dir, "spec.json"),
        "results": os.path.join(out_dir, "results.json"),
        "csv": os.path.join(out_dir, "results.csv"),
    }
    atomic_write(paths["spec"], lambda handle: _dump_json(result.spec.to_dict(), handle))
    atomic_write(paths["results"], lambda handle: _dump_json(campaign_to_dict(result), handle))

    def _write_csv(handle: TextIO) -> None:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for record in result.records:
            writer.writerow(_csv_row(record))

    atomic_write(paths["csv"], _write_csv)
    return paths


def _csv_row(record: Dict[str, Any]) -> List[Any]:
    row = []
    for column in CSV_COLUMNS:
        if column == "error":
            error = record.get("error", "")
            row.append(error.strip().splitlines()[-1] if error else "")
        elif column == "footprint_series":
            series = record.get("footprint_series")
            if isinstance(series, dict):
                row.append(" ".join(str(v) for v in series.get("footprint", ())))
            else:
                row.append("")
        elif column == "gap_histogram":
            series = record.get("gap_histogram")
            if isinstance(series, dict):
                row.append(" ".join(str(v) for v in series.get("free_volume", ())))
            else:
                row.append("")
        elif column == "per_class_occupancy":
            series = record.get("per_class_occupancy")
            if isinstance(series, dict) and series.get("volume"):
                # The final sample, one "low-high:volume" token per class.
                row.append(
                    " ".join(
                        f"{low}-{high}:{value}"
                        for (low, high), value in zip(series["classes"], series["volume"][-1])
                    )
                )
            else:
                row.append("")
        elif column == "trace_recorder":
            info = record.get("trace_recorder")
            row.append(info.get("path", "") if isinstance(info, dict) else "")
        else:
            row.append(record.get(column, ""))
    return row


def load_results(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Load a ``results.json`` document, checking its format marker.

    Raises :class:`ArtifactError` (naming the path) for a truncated, corrupt,
    or foreign JSON file, and the usual :class:`OSError` for a missing one.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as error:
            raise ArtifactError(
                f"{path} is not valid JSON (truncated or corrupt campaign "
                f"artifact?): {error}"
            ) from error
    if not isinstance(document, dict) or document.get("format") != "repro-campaign-results":
        raise ArtifactError(f"{path} is not a repro campaign results file")
    return document


def completed_records(document: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Map ``cell_id`` -> record for every *successful* cell of a results
    document (the input for ``run_campaign(..., completed=...)``)."""
    return {
        record["cell_id"]: record
        for record in document.get("records", [])
        if record.get("status") == "ok"
    }
