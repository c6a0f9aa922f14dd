"""COVISE: COllaborative VIsualization and Simulation Environment (section 4).

Reproduced architecture (section 4.5):

* **data objects** with system-wide unique names and attributes, living in
  per-host **shared data spaces** (:mod:`repro.covise.dataobj`,
  :mod:`repro.covise.datamgr`);
* **request brokers** on each participating host handling "data
  management, efficient data transfer and conversion between different
  platforms" (:mod:`repro.covise.crb`);
* **modules** ("modeled as processes") combined into module networks, the
  rendering step at the end (:mod:`repro.covise.modules`,
  :mod:`repro.covise.stdmodules`);
* a **central controller** "which has the only knowledge about the whole
  application topology" (:mod:`repro.covise.controller`);
* the **Map-editor** to build distributed applications
  (:mod:`repro.covise.mapeditor`);
* **collaborative sessions** where "all partners see the same screen
  representations at the same time", synchronized at the *parameter*
  level rather than by streaming content (:mod:`repro.covise.collab`) —
  the design consequence of the feedback-loop analysis in sections
  4.2-4.4.
"""

from repro.covise.dataobj import DataObject, PolygonData, ScalarField2D, UniformScalarField
from repro.covise.datamgr import SharedDataSpace
from repro.covise.crb import RequestBroker
from repro.covise.modules import Module, PipelineError
from repro.covise.controller import Controller
from repro.covise.mapeditor import MapEditor
from repro.covise.stdmodules import (
    CuttingPlaneModule,
    IsoSurfaceModule,
    ReadSim,
    RendererModule,
)
from repro.covise.collab import CollaborativeCovise

__all__ = [
    "DataObject",
    "UniformScalarField",
    "ScalarField2D",
    "PolygonData",
    "SharedDataSpace",
    "RequestBroker",
    "Module",
    "PipelineError",
    "Controller",
    "MapEditor",
    "ReadSim",
    "CuttingPlaneModule",
    "IsoSurfaceModule",
    "RendererModule",
    "CollaborativeCovise",
]
