"""repro.serve — detection as a service.

A stdlib-only HTTP/JSON daemon over the library's audit stack: clients
submit designs to ``POST /v1/audits``, a persistent journaled job queue
feeds a worker pool that runs audits through the existing
scheduler/executor with one shared warm result cache, and clients stream
the typed run events live over Server-Sent Events or fetch the finished
report (schema ``repro.core.report.SCHEMA_VERSION``).  Start it from the
command line::

    repro serve --port 8321 --jobs 4 --queue-dir ./audit-queue

and talk to it with :class:`repro.serve.client.ServeClient` (or plain
``curl``; see the README quickstart).
"""

from repro.serve.app import AuditServer
from repro.serve.client import AuditFailedError, ServeClient, ServeError
from repro.serve.protocol import (
    SERVE_PROTOCOL_VERSION,
    Job,
    ProtocolError,
    QuotaExceededError,
    Submission,
    submission_from_dict,
)
from repro.serve.queue import JobQueue

__all__ = [
    "AuditServer",
    "ServeClient",
    "ServeError",
    "AuditFailedError",
    "JobQueue",
    "Job",
    "Submission",
    "submission_from_dict",
    "ProtocolError",
    "QuotaExceededError",
    "SERVE_PROTOCOL_VERSION",
]
