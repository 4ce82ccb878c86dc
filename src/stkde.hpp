#pragma once
/// \file stkde.hpp
/// Umbrella header: the whole public API in one include.
///
///   #include "stkde.hpp"
///
/// Fine-grained headers remain available for faster builds; this header is
/// for applications and experiments where convenience wins.

// Geometry and domain discretization.
#include "geom/bounding_box.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"
#include "geom/voxel_mapper.hpp"

// Kernels, invariants, bandwidth selection.
#include "kernels/bandwidth.hpp"
#include "kernels/invariants.hpp"
#include "kernels/kernels.hpp"
#include "kernels/table_cache.hpp"

// Density grids.
#include "grid/dense_grid.hpp"
#include "grid/extent.hpp"
#include "grid/reduction.hpp"

// Decomposition and scheduling substrates.
#include "partition/binning.hpp"
#include "partition/decomposition.hpp"
#include "partition/load.hpp"
#include "partition/tile_order.hpp"
#include "sched/coloring.hpp"
#include "sched/critical_path.hpp"
#include "sched/dag_scheduler.hpp"
#include "sched/replication.hpp"
#include "sched/simulator.hpp"
#include "sched/stencil_graph.hpp"
#include "sched/thread_pool.hpp"
#include "spatial/knn.hpp"

// Estimation: the paper's algorithms and the extensions.
#include "core/adaptive.hpp"
#include "core/algorithms.hpp"
#include "core/config.hpp"
#include "core/estimator.hpp"
#include "core/incremental.hpp"
#include "core/kde2d.hpp"
#include "core/result.hpp"
#include "core/weighted.hpp"

// Fault tolerance: WAL + durable checkpoints, deterministic fault
// injection (docs/ROBUSTNESS.md).
#include "core/durability.hpp"
#include "io/wal.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

// Datasets, I/O, analysis.
#include "analysis/clusters.hpp"
#include "data/csv.hpp"
#include "data/datasets.hpp"
#include "data/generator.hpp"
#include "data/instances.hpp"
#include "io/bytes.hpp"
#include "io/grid_io.hpp"
#include "io/pgm.hpp"
#include "io/slice.hpp"
#include "io/vtk.hpp"

// Density-as-a-service (link stkde_serve for these). The overload layer
// (admission, executor, client retry) rides with it; its utility
// primitives (injectable clock, token bucket, decorrelated backoff) are
// header-only.
#include "serve/admission.hpp"
#include "serve/client_retry.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"
#include "util/backoff.hpp"
#include "util/clock.hpp"
#include "util/token_bucket.hpp"
