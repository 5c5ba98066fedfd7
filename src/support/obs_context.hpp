// Scoped observability contexts: attribute every span, counter bump, and
// flight-recorder event to a run/session/solve scope (docs/observability.md).
//
// Model. An ObsContext is an RAII frame that pushes a string label
// ("session=wan_a", "solve=17") onto a thread-local scope stack; nested
// frames concatenate into a path ("session=wan_a/solve=17"). The current
// path is stamped onto trace events at emission time and onto flight
// recorder entries, so a postmortem or Chrome trace can answer "WHICH
// solve was doing this". ThreadPool::submit() captures the submitter's
// scope handle and re-installs it around the task on the worker thread, so
// work fanned out through parallel_map_ordered stays attributed to the
// scope that requested it.
//
// Contracts (inherited from support/trace, pinned by tests):
//   * Zero cost when disabled: with no trace sink installed, entering or
//     leaving a scope touches only a thread-local shared_ptr -- no clock,
//     no lock, no registry. Scope stamping happens AFTER the sink null
//     check inside the emit helpers.
//   * Bit-identical results: scopes are write-only metadata. Nothing reads
//     the current scope to make a decision, so scoped and unscoped runs
//     produce identical solutions, node counts, and fingerprints.
//
// Per-scope metrics: the process-global MetricsRegistry is cumulative, so
// a per-scope view is a DELTA -- snapshot the registry on entry and take
// MetricsSnapshot::delta_since on exit. Scopes themselves never snapshot,
// so hot paths can scope cheaply.
#pragma once

#include <memory>
#include <string>

namespace cdcs::support {

/// One immutable node of the scope stack. Nodes are shared_ptr-linked so a
/// handle captured by a pool task keeps its whole ancestry alive after the
/// submitting frame unwinds. The full path is concatenated eagerly at
/// construction: stamping an event is a single string copy.
class ObsScopeNode {
 public:
  ObsScopeNode(std::string label,
               std::shared_ptr<const ObsScopeNode> parent);

  /// "outer/inner" path, root first. Never empty for a live node.
  const std::string& path() const { return path_; }
  /// This node's own label (the last path segment).
  const std::string& label() const { return label_; }
  const std::shared_ptr<const ObsScopeNode>& parent() const {
    return parent_;
  }

 private:
  std::string label_;
  std::string path_;
  std::shared_ptr<const ObsScopeNode> parent_;
};

/// Shareable reference to a scope stack (null = no scope). Cheap to copy
/// across threads; what ThreadPool::submit captures.
using ObsScopeHandle = std::shared_ptr<const ObsScopeNode>;

/// The calling thread's current scope (null when none is active).
ObsScopeHandle current_obs_scope();

/// The calling thread's current scope path, "" when none is active. The
/// reference is valid while the scope is (emit sites copy immediately).
const std::string& current_obs_scope_path();

/// RAII scope frame for the current thread. Construction pushes `label`
/// onto the scope stack; destruction restores whatever was current before
/// (frames may therefore interleave with other RAII state safely, but must
/// be destroyed on the thread that created them).
class ObsContext {
 public:
  explicit ObsContext(std::string label);
  ~ObsContext();

  ObsContext(const ObsContext&) = delete;
  ObsContext& operator=(const ObsContext&) = delete;

  /// Full path of this frame ("outer/inner").
  const std::string& path() const { return node_->path(); }

 private:
  ObsScopeHandle node_;
  ObsScopeHandle prev_;
};

/// Installs `scope` (possibly null) as the current thread's scope for its
/// own lifetime, restoring the previous scope on destruction. What the
/// thread pool wraps around each task so worker threads inherit the
/// submitter's scope.
class ObsScopeGuard {
 public:
  explicit ObsScopeGuard(ObsScopeHandle scope);
  ~ObsScopeGuard();

  ObsScopeGuard(const ObsScopeGuard&) = delete;
  ObsScopeGuard& operator=(const ObsScopeGuard&) = delete;

 private:
  ObsScopeHandle prev_;
};

}  // namespace cdcs::support
