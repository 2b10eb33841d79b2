"""Simulated FUSE (Filesystem in Userspace) subsystem.

The package models the three parts of FUSE that the paper's CntrFS depends on:

* the wire protocol (:mod:`repro.fuse.protocol`): opcodes and request/reply
  structures exchanged over ``/dev/fuse``,
* the kernel-side driver (:mod:`repro.fuse.client`): a
  :class:`repro.fs.filesystem.Filesystem` that can be mounted in any mount
  namespace and forwards operations over a :class:`repro.fuse.device.FuseConnection`,
  implementing the caches and batching behaviours whose effect the paper
  evaluates: FOPEN_KEEP_CACHE, FUSE_WRITEBACK_CACHE, FUSE_PARALLEL_DIROPS,
  splice and the worker-thread count are mount options
  (:class:`repro.fuse.options.FuseMountOptions`); batched FORGET and
  readahead-window READs (FUSE_ASYNC_READ) are always on,
* the userspace server loop (:mod:`repro.fuse.server`): the dispatch base
  class that CntrFS (:mod:`repro.core.cntrfs`) implements, one
  ``op_<opcode>`` method per opcode it handles.
"""

from repro.fuse.protocol import FuseOpcode, FuseRequest, FuseReply, FuseAttr
from repro.fuse.options import FuseMountOptions
from repro.fuse.device import FuseConnection, FuseDeviceHandle, register_fuse_device
from repro.fuse.client import FuseClientFs
from repro.fuse.server import FuseServer

__all__ = [
    "FuseOpcode",
    "FuseRequest",
    "FuseReply",
    "FuseAttr",
    "FuseMountOptions",
    "FuseConnection",
    "FuseDeviceHandle",
    "register_fuse_device",
    "FuseClientFs",
    "FuseServer",
]
